#pragma once
// Shared plumbing of the repo benchmark program: clocks, percentile
// statistics, seeded stratified input draws, the metric record it prints,
// an in-memory Chrome trace-event recorder, peak RSS and a STREAM-style
// bandwidth probe.  Nothing here calls into the library; the
// workloads (serve_workloads.cpp, attention_workload.cpp) do.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

namespace ftbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Wall-clock of one invocation, in seconds.
template <typename F>
double time_s(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

// ------------------------------------------------------------- statistics ---

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v);

/// A percentile is reported only when at least ten samples lie beyond it.
inline bool percentile_supported(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0;
}

// ------------------------------------------------------------ seeded input ---

/// `n` draws at jittered quantiles (i + u) / n of a distribution given by its
/// inverse CDF, in seeded random order.  The seed moves every value and the
/// order, but the sample's shape is pinned, so a metric read over the whole
/// sample does not wander from seed to seed the way i.i.d. draws would.
template <typename InvCdf>
std::vector<double> stratified(std::size_t n, std::mt19937_64& rng,
                               InvCdf inv_cdf) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = inv_cdf((static_cast<double>(i) + u(rng)) / static_cast<double>(n));
  }
  std::shuffle(v.begin(), v.end(), rng);
  return v;
}

/// `n` draws at the points frac(u + k * alpha) of a Weyl sequence with a
/// seeded start u, in sequence order.  Every prefix covers the distribution
/// evenly, so a sum over the first k draws (the work queued ahead of the
/// k-th request of a burst) barely moves with the seed.  Give independent
/// quantities different irrational `alpha`s.
template <typename InvCdf>
std::vector<double> low_discrepancy(std::size_t n, std::mt19937_64& rng,
                                    double alpha, InvCdf inv_cdf) {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  std::vector<double> v(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double p = u + static_cast<double>(k) * alpha;
    v[k] = inv_cdf(p - std::floor(p));
  }
  return v;
}

/// Inverse of the standard normal CDF (bisection on erfc; exact enough for
/// drawing lengths).
double inv_norm_cdf(double p);

// ----------------------------------------------------------------- results ---

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< observations behind the value (0 = computed)
  bool supported = true;    ///< false: too few samples beyond the percentile
};

/// One workload run: correctness verdict, operation counts and metrics.
struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< human-readable failed checks
  std::vector<Metric> metrics;

  void fail(const std::string& why) {
    failures.push_back(why);
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  }
  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0, bool supported = true) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit), samples,
                             supported});
  }
  /// Percentile `q` of `v` under `name`, flagged when the sample is too
  /// small to support it.
  void add_quantile(std::string name, const std::vector<double>& v, double q,
                    std::string unit) {
    add(std::move(name), quantile(v, q), std::move(unit), v.size(),
        q <= 0.5 || percentile_supported(v.size(), q));
  }
  [[nodiscard]] bool correct() const { return failures.empty(); }
};

/// Print `r` as the result line run.py reads: one JSON object.
void print_result_json(const std::string& workload, const Result& r);

// ------------------------------------------------------------------- trace ---

/// In-memory span recorder, written as Chrome trace-event JSON (loadable in
/// Perfetto or chrome://tracing) when the run ends.  Disabled recorders cost
/// one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Microseconds since the recorder was created.
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }

  /// A complete span [ts_us, ts_us + dur_us) on track (pid, tid); `args` is
  /// a pre-rendered JSON object body ("\"k\": 1, ...") or empty.
  void span(std::string name, const char* cat, double ts_us, double dur_us,
            int pid, std::size_t tid, std::string args = {});

  /// Write {"traceEvents": [...]}; false on I/O failure.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    const char* cat;
    double ts, dur;
    int pid;
    std::size_t tid;
    std::string args;
  };
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Event> events_;
};

// ----------------------------------------------------------------- machine ---

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mib();

/// STREAM triad a = b + s * c over arrays well past the last-level cache,
/// OpenMP-parallel, best of several passes; decimal GB/s counting two reads
/// and one write per element.
double stream_triad_gbps();

}  // namespace ftbench
