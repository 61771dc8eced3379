#include "support.hpp"

#include <sys/resource.h>

#include <fstream>
#include <memory>

#include <omp.h>

namespace ftbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double inv_norm_cdf(double p) {
  double lo = -10.0, hi = 10.0;
  for (int i = 0; i < 80; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (0.5 * std::erfc(-mid / std::sqrt(2.0)) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

void print_result_json(const std::string& workload, const Result& r) {
  std::printf("{\"workload\": \"%s\", \"correct\": %s, \"attempted\": %zu, "
              "\"failed\": %zu, \"metrics\": {",
              json_escape(workload).c_str(), r.correct() ? "true" : "false",
              r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    // %.17g keeps every digit the double carries.
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                "\"samples\": %zu, \"supported\": %s}",
                i ? ", " : "", json_escape(m.name).c_str(),
                std::isfinite(m.value) ? m.value : 0.0,
                json_escape(m.unit).c_str(), m.samples,
                m.supported ? "true" : "false");
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void Tracer::span(std::string name, const char* cat, double ts_us,
                  double dur_us, int pid, std::size_t tid, std::string args) {
  if (!enabled_) return;
  events_.push_back(
      Event{std::move(name), cat, ts_us, dur_us, pid, tid, std::move(args)});
}

bool Tracer::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[160];
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    std::snprintf(buf, sizeof buf,
                  "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": %d, "
                  "\"tid\": %zu",
                  e.ts, e.dur, e.pid, e.tid);
    f << (i ? ",\n" : "") << "{\"name\": \"" << json_escape(e.name)
      << "\", \"cat\": \"" << e.cat << "\", " << buf << ", \"args\": {"
      << e.args << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double stream_triad_gbps() {
  // 3 x 32 MiB: far past any last-level cache this benchmark runs on.
  constexpr std::size_t n = std::size_t{1} << 23;
  const auto a = std::make_unique<float[]>(n);
  const auto b = std::make_unique<float[]>(n);
  const auto c = std::make_unique<float[]>(n);
  const auto len = static_cast<std::ptrdiff_t>(n);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < len; ++i) {
    a[i] = 0.0f;
    b[i] = 1.0f;
    c[i] = 2.0f;
  }
  double best = 1e30;
  for (int pass = 0; pass < 6; ++pass) {
    const double t = time_s([&] {
#pragma omp parallel for schedule(static)
      for (std::ptrdiff_t i = 0; i < len; ++i) a[i] = b[i] + 0.5f * c[i];
    });
    best = std::min(best, t);
  }
  if (a[n / 2] != 2.0f) return 0.0;  // keeps the stores observable
  return 3.0 * sizeof(float) * static_cast<double>(n) / best / 1e9;
}

}  // namespace ftbench
