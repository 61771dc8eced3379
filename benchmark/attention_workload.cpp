// paper_attention: the paper's h16/d64 kernel configuration, full-sequence
// (bidirectional) attention at seq 512 x batch 4 and seq 2048 x batch 1,
// timed for the unprotected flash kernel, EFTA-optimized (strided ABFT +
// SNVR, unified verification), per-iteration EFTA, ABFT only, SNVR only and
// the decoupled operation-level baseline.  The variants are interleaved and
// their order rotates each repetition, so drift on the machine lands on
// every variant alike.  Never touches serve.

#include <cmath>
#include <limits>

#include "attention/attention.hpp"
#include "attention/decoupled_ft.hpp"
#include "core/efta.hpp"
#include "fault/fault.hpp"
#include "tensor/random.hpp"
#include "workloads.hpp"

namespace ftbench {
namespace {

namespace fa = ftt::attention;
namespace fc = ftt::core;
namespace ff = ftt::fault;
namespace ft = ftt::tensor;

constexpr std::size_t kHeads = 16, kDim = 64;
/// Timed repetitions, each every variant over both shapes (about 4 s on the
/// reference machine at full size).
constexpr std::size_t kReps = 5, kSmokeReps = 3;
constexpr float kCleanTolerance = 2e-3f;   // tests/test_efta.cpp
constexpr float kFaultTolerance = 1e-2f;   // tests/test_efta_faults.cpp

struct Shape {
  std::size_t seq, batch;
};

enum class Kind { kFlash, kEfta, kDecoupled };

struct Variant {
  const char* name;
  Kind kind;
  fc::EftaOptions opt;
};

/// Indices into variants().
constexpr std::size_t flash = 0, efta = 1, per_iteration = 2, decoupled_ft = 5;

std::vector<Variant> variants() {
  fc::EftaOptions optimized;
  optimized.unified_verification = true;
  fc::EftaOptions per_iteration;
  fc::EftaOptions abft_only = optimized;
  abft_only.softmax = fc::SoftmaxProtect::kNone;
  fc::EftaOptions snvr_only = optimized;
  snvr_only.gemm = fc::GemmProtect::kNone;
  return {{"flash", Kind::kFlash, {}},
          {"efta", Kind::kEfta, optimized},
          {"efta_perit", Kind::kEfta, per_iteration},
          {"efta_abft_only", Kind::kEfta, abft_only},
          {"efta_snvr_only", Kind::kEfta, snvr_only},
          {"decoupled", Kind::kDecoupled, {}}};
}

struct Inputs {
  ft::Tensor4H Q, K, V;
  std::vector<ft::Tensor4F> out;  ///< one per variant
};

Inputs make_inputs(const Shape& s, std::size_t nvariants, std::uint64_t seed) {
  Inputs in{ft::Tensor4H(s.batch, kHeads, s.seq, kDim),
            ft::Tensor4H(s.batch, kHeads, s.seq, kDim),
            ft::Tensor4H(s.batch, kHeads, s.seq, kDim),
            {}};
  ft::fill_normal(in.Q, seed);
  ft::fill_normal(in.K, seed + 1);
  ft::fill_normal(in.V, seed + 2);
  for (std::size_t v = 0; v < nvariants; ++v) {
    in.out.emplace_back(s.batch, kHeads, s.seq, kDim);
  }
  return in;
}

fa::FtReport run(const Variant& v, const Inputs& in, ft::Tensor4F& O,
                 ff::FaultInjector* inj = nullptr) {
  switch (v.kind) {
    case Kind::kFlash:
      fa::flash_attention(in.Q, in.K, in.V, O, 64, false);
      return {};
    case Kind::kEfta:
      return fc::efta_attention(in.Q, in.K, in.V, O, v.opt, inj);
    case Kind::kDecoupled:
      return fa::decoupled_ft_attention(in.Q, in.K, in.V, O, {}, inj);
  }
  return {};
}

float max_diff(const ft::Tensor4F& a, const ft::Tensor4F& b) {
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float d = std::fabs(a.data()[i] - b.data()[i]);
    if (std::isnan(d)) return std::numeric_limits<float>::infinity();
    m = std::max(m, d);
  }
  return m;
}

}  // namespace

Result run_paper_attention(const Args& a) {
  Result r;
  const std::vector<Variant> vars = variants();
  const std::size_t nv = vars.size();
  const std::vector<Shape> shapes =
      a.smoke ? std::vector<Shape>{{128, 4}, {512, 1}}
              : std::vector<Shape>{{512, 4}, {2048, 1}};
  const std::size_t reps = a.smoke ? kSmokeReps : kReps;
  Tracer tr(!a.trace.empty());

  // Set-up: inputs for both shapes plus an untimed warm-up of every
  // variant on a small unrelated problem.
  std::vector<Inputs> in;
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    in.clear();
    setup.push_back(time_s([&] {
      for (std::size_t s = 0; s < shapes.size(); ++s) {
        in.push_back(make_inputs(shapes[s], nv, a.seed * 16 + s * 4));
      }
      Inputs warm = make_inputs({128, 1}, 1, 0xa11ce);
      for (const Variant& v : vars) run(v, warm, warm.out[0]);
    }));
  }
  r.add("setup_s", median(setup), "s", setup.size());

  // times[v][s][rep], seconds.
  std::vector<std::vector<std::vector<double>>> times(
      nv, std::vector<std::vector<double>>(shapes.size()));
  std::size_t clean_flags = 0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t s = 0; s < shapes.size(); ++s) {
      for (std::size_t k = 0; k < nv; ++k) {
        const std::size_t v = (rep + k) % nv;
        fa::FtReport rp;
        const double us0 = tr.now_us();
        const double t =
            time_s([&] { rp = run(vars[v], in[s], in[s].out[v]); });
        tr.span(std::string(vars[v].name) + ".seq" +
                    std::to_string(shapes[s].seq),
                "kernel", us0, t * 1e6, 1, s);
        times[v][s].push_back(t);
        if (v == efta) clean_flags += rp.total_detected();
        ++r.attempted;
      }
    }
  }
  const double peak_rss = peak_rss_mib();

  // Checks: every protected variant reproduces flash on clean inputs, and a
  // seeded single bit-30 flip at each of GEMM I, EXP and GEMM II is
  // detected and corrected by EFTA-optimized.
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    for (std::size_t v = 1; v < nv; ++v) {
      const float d = max_diff(in[s].out[v], in[s].out[flash]);
      if (!(d < kCleanTolerance)) {
        ++r.failed;
        r.fail(std::string(vars[v].name) + " at seq " +
               std::to_string(shapes[s].seq) + " is " + std::to_string(d) +
               " from flash");
      }
    }
  }
  std::mt19937_64 rng(a.seed);
  Inputs probe = make_inputs({shapes[0].seq, 1}, 2, a.seed * 16 + 9);
  run(vars[flash], probe, probe.out[0]);
  ff::FaultInjector counter;  // unarmed: counts each site's values
  run(vars[efta], probe, probe.out[1], &counter);
  std::size_t corrected = 0;
  const ff::Site sites[] = {ff::Site::kGemm1, ff::Site::kExp,
                           ff::Site::kGemm2};
  for (const ff::Site site : sites) {
    auto inj = ff::FaultInjector::single(site, rng() % counter.calls(site), 30);
    const fa::FtReport rp = run(vars[efta], probe, probe.out[1], &inj);
    const float d = max_diff(probe.out[1], probe.out[0]);
    ++r.attempted;
    if (rp.faults_injected == 1 && rp.total_detected() >= 1 &&
        d < kFaultTolerance) {
      ++corrected;
    } else {
      ++r.failed;
      r.fail(std::string("flip at ") + ff::site_name(site) +
             " not corrected (" +
             std::to_string(rp.total_detected()) + " detected, " +
             std::to_string(d) + " from flash)");
    }
  }

  // Per-repetition sums over both shapes, paired within the repetition.
  const auto rep_sum = [&](std::size_t v, std::size_t rep) {
    double t = 0.0;
    for (std::size_t s = 0; s < shapes.size(); ++s) t += times[v][s][rep];
    return t;
  };
  std::size_t rows = 0;
  for (const Shape& s : shapes) rows += s.seq * s.batch;
  std::vector<double> protected_ms, overhead, decoupled, unified;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const double e = rep_sum(efta, rep);
    protected_ms.push_back(e * 1e3);
    overhead.push_back(e / rep_sum(flash, rep));
    decoupled.push_back(rep_sum(decoupled_ft, rep) / e);
    unified.push_back(rep_sum(per_iteration, rep) / e);
  }
  const double p50 = median(protected_ms);
  r.add("tokens_per_s", static_cast<double>(rows) / (p50 / 1e3), "1/s", reps);
  r.add("latency_p50_ms", p50, "ms", reps);
  r.add("peak_rss_mib", peak_rss, "MiB");
  r.add("attn_overhead_ratio", median(overhead), "ratio", reps);
  r.add("attn_decoupled_speedup", median(decoupled), "ratio", reps);

  if (tr.enabled()) {
    for (std::size_t v = 0; v < nv; ++v) {
      for (std::size_t s = 0; s < shapes.size(); ++s) {
        r.add(std::string(vars[v].name) + ".ms.seq" +
                  std::to_string(shapes[s].seq),
              median(times[v][s]) * 1e3, "ms", reps);
      }
    }
    r.add("efta.unified_speedup", median(unified), "ratio", reps);
    r.add("efta.clean_flags", static_cast<double>(clean_flags), "count");
    r.add("efta.injected_corrected_frac",
          static_cast<double>(corrected) /
              static_cast<double>(std::size(sites)),
          "fraction", std::size(sites));
    r.add("machine.stream_gbps", stream_triad_gbps(), "GB/s");
    if (!tr.write(a.trace)) r.fail("cannot write trace " + a.trace);
  }
  return r;
}

}  // namespace ftbench
