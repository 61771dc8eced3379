// EFTA clean-path correctness: the protected fused kernel must reproduce
// standard attention exactly (up to fp16 noise) in every protection mode,
// with zero false corrections at the calibrated thresholds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "attention/attention.hpp"
#include "core/efta.hpp"
#include "fault/fault.hpp"
#include "tensor/random.hpp"

namespace fa = ftt::attention;
namespace fc = ftt::core;
namespace ff = ftt::fault;
namespace ft = ftt::tensor;
using ftt::numeric::Half;

namespace {

float max_diff(const ft::Tensor4F& a, const ft::Tensor4F& b) {
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float d = std::fabs(a.data()[i] - b.data()[i]);
    if (std::isnan(d)) return std::numeric_limits<float>::infinity();
    m = std::max(m, d);
  }
  return m;
}

struct Made {
  ft::Tensor4H Q, K, V;
};
Made make(std::size_t batch, std::size_t heads, std::size_t seq,
          std::size_t dim, std::uint64_t seed) {
  Made m{ft::Tensor4H(batch, heads, seq, dim),
         ft::Tensor4H(batch, heads, seq, dim),
         ft::Tensor4H(batch, heads, seq, dim)};
  ft::fill_normal(m.Q, seed);
  ft::fill_normal(m.K, seed + 1);
  ft::fill_normal(m.V, seed + 2);
  return m;
}

/// The largest max − min over the score rows q·k/sqrt(d) of slice (0, 0).
double widest_score_spread(const ft::Tensor4H& Q, const ft::Tensor4H& K) {
  double widest = 0.0;
  for (std::size_t r = 0; r < Q.seq(); ++r) {
    double lo = 1e300, hi = -1e300;
    for (std::size_t c = 0; c < K.seq(); ++c) {
      double s = 0.0;
      for (std::size_t k = 0; k < Q.dim(); ++k) {
        s += static_cast<double>(Q.at(0, 0, r, k).to_float()) *
             K.at(0, 0, c, k).to_float();
      }
      s /= std::sqrt(static_cast<double>(Q.dim()));
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
    widest = std::max(widest, hi - lo);
  }
  return widest;
}

}  // namespace

TEST(Efta, UnprotectedMatchesStandard) {
  auto [Q, K, V] = make(1, 2, 128, 64, 1);
  ft::Tensor4F Os(1, 2, 128, 64), Oe(1, 2, 128, 64);
  fa::standard_attention(Q, K, V, Os);
  fc::EftaOptions opt;
  opt.gemm = fc::GemmProtect::kNone;
  opt.softmax = fc::SoftmaxProtect::kNone;
  fc::efta_attention(Q, K, V, Oe, opt);
  EXPECT_LT(max_diff(Os, Oe), 2e-3f);
}

TEST(Efta, ProtectedMatchesStandard) {
  auto [Q, K, V] = make(1, 2, 128, 64, 2);
  ft::Tensor4F Os(1, 2, 128, 64), Oe(1, 2, 128, 64);
  fa::standard_attention(Q, K, V, Os);
  const auto rep = fc::efta_attention(Q, K, V, Oe, {});
  EXPECT_LT(max_diff(Os, Oe), 2e-3f);
  EXPECT_EQ(rep.gemm1.flagged, 0u);
  EXPECT_EQ(rep.gemm2.flagged, 0u);
  EXPECT_EQ(rep.range_corrections, 0u);
}

TEST(Efta, OptimizedMatchesStandard) {
  auto [Q, K, V] = make(2, 2, 192, 64, 3);
  ft::Tensor4F Os(2, 2, 192, 64), Oe(2, 2, 192, 64);
  fa::standard_attention(Q, K, V, Os);
  fc::EftaOptions opt;
  opt.unified_verification = true;
  const auto rep = fc::efta_attention(Q, K, V, Oe, opt);
  EXPECT_LT(max_diff(Os, Oe), 2e-3f);
  EXPECT_EQ(rep.gemm2.flagged, 0u);
}

TEST(Efta, CleanExpCheckNoFalseAlarms) {
  auto [Q, K, V] = make(1, 4, 256, 64, 4);
  ft::Tensor4F O(1, 4, 256, 64);
  fc::EftaOptions opt;
  opt.unified_verification = true;
  const auto rep = fc::efta_attention(Q, K, V, O, opt);
  EXPECT_GT(rep.exp_check.checks, 0u);
  EXPECT_EQ(rep.exp_check.flagged, 0u);
}

TEST(Efta, ElementModeMatchesStandard) {
  auto [Q, K, V] = make(1, 1, 128, 64, 5);
  ft::Tensor4F Os(1, 1, 128, 64), Oe(1, 1, 128, 64);
  fa::standard_attention(Q, K, V, Os);
  fc::EftaOptions opt;
  opt.gemm = fc::GemmProtect::kElement;
  const auto rep = fc::efta_attention(Q, K, V, Oe, opt);
  EXPECT_LT(max_diff(Os, Oe), 2e-3f);
  EXPECT_EQ(rep.gemm1.corrected, 0u);
}

TEST(Efta, DmrModeMatchesStandard) {
  auto [Q, K, V] = make(1, 1, 128, 64, 6);
  ft::Tensor4F Os(1, 1, 128, 64), Oe(1, 1, 128, 64);
  fa::standard_attention(Q, K, V, Os);
  fc::EftaOptions opt;
  opt.softmax = fc::SoftmaxProtect::kDMR;
  fc::efta_attention(Q, K, V, Oe, opt);
  EXPECT_LT(max_diff(Os, Oe), 2e-3f);
}

TEST(Efta, UnifiedAndPerStepAgree) {
  auto [Q, K, V] = make(1, 2, 256, 64, 7);
  ft::Tensor4F Oa(1, 2, 256, 64), Ob(1, 2, 256, 64);
  fc::EftaOptions a, b;
  a.unified_verification = false;
  b.unified_verification = true;
  fc::efta_attention(Q, K, V, Oa, a);
  fc::efta_attention(Q, K, V, Ob, b);
  // Fault-free, both orderings compute the same arithmetic.
  EXPECT_LT(max_diff(Oa, Ob), 1e-6f);
}

TEST(Efta, Dim128Config) {
  // The paper's large-model setting: head dim 128.
  auto [Q, K, V] = make(1, 2, 128, 128, 8);
  ft::Tensor4F Os(1, 2, 128, 128), Oe(1, 2, 128, 128);
  fa::standard_attention(Q, K, V, Os);
  fc::EftaOptions opt;
  opt.unified_verification = true;
  const auto rep = fc::efta_attention(Q, K, V, Oe, opt);
  EXPECT_LT(max_diff(Os, Oe), 2e-3f);
  EXPECT_EQ(rep.gemm2.flagged, 0u);
}

TEST(Efta, RejectsMisalignedShapes) {
  auto [Q, K, V] = make(1, 1, 96, 64, 9);  // 96 % 64 != 0
  ft::Tensor4F O(1, 1, 96, 64);
  EXPECT_THROW(fc::efta_attention(Q, K, V, O, {}), std::invalid_argument);
  // A zero dim passes every stride test (0 % s == 0); it must still throw,
  // before any hook, instead of indexing empty staging.
  auto [Q0, K0, V0] = make(1, 1, 64, 0, 9);
  ft::Tensor4F O0(1, 1, 64, 0);
  ff::FaultInjector probe;
  EXPECT_THROW(fc::efta_attention(Q0, K0, V0, O0, {}, &probe),
               std::invalid_argument);
  for (std::size_t s = 0; s < ff::kSiteCount; ++s) {
    EXPECT_EQ(probe.calls(static_cast<ff::Site>(s)), 0u) << s;
  }
}

TEST(Efta, SmallSeqEqualsBlock) {
  auto [Q, K, V] = make(1, 1, 64, 64, 10);
  ft::Tensor4F Os(1, 1, 64, 64), Oe(1, 1, 64, 64);
  fa::standard_attention(Q, K, V, Os);
  fc::efta_attention(Q, K, V, Oe, {});
  EXPECT_LT(max_diff(Os, Oe), 2e-3f);
}

TEST(Efta, CleanRunIsBitwiseFlash) {
  // Contract-chain link: with no fault and no detection, protection only
  // observes — every option combination computes exactly flash attention's
  // arithmetic (same GEMM order, same EXP, same fp16 rounding of P), so the
  // outputs are memcmp-equal, not merely close.  The second pass scales Q
  // and K by 6: row score spreads pass 104, so exp lanes flush to +0 and
  // land on subnormal outputs (the lanes' scalar fallback and expf's bottom
  // range).  The EXP check flags there, since a zero or subnormal P has no
  // usable log, but each repair re-exponentiates the same scores, so the
  // output stays flash's.
  for (const float qk_scale : {1.0f, 6.0f}) {
    auto [Q, K, V] = make(1, 2, 256, 64, 11);
    if (qk_scale != 1.0f) {
      for (ft::Tensor4H* t : {&Q, &K}) {
        for (std::size_t i = 0; i < t->size(); ++i) {
          t->data()[i] = Half(qk_scale * t->data()[i].to_float());
        }
      }
      ASSERT_GT(widest_score_spread(Q, K), 104.0);
    }
    ft::Tensor4F Of(1, 2, 256, 64), Oe(1, 2, 256, 64);
    for (const bool causal : {false, true}) {
      fa::flash_attention(Q, K, V, Of, 64, causal);
      for (const auto gemm :
           {fc::GemmProtect::kNone, fc::GemmProtect::kStrided}) {
        for (const auto softmax :
             {fc::SoftmaxProtect::kNone, fc::SoftmaxProtect::kSNVR,
              fc::SoftmaxProtect::kDMR}) {
          for (const bool unified : {false, true}) {
            fc::EftaOptions opt;
            opt.causal = causal;
            opt.gemm = gemm;
            opt.softmax = softmax;
            opt.unified_verification = unified;
            const auto rep = fc::efta_attention(Q, K, V, Oe, opt);
            const std::string tag =
                "qk_scale=" + std::to_string(qk_scale) +
                " causal=" + std::to_string(causal) +
                " gemm=" + std::to_string(static_cast<int>(gemm)) +
                " softmax=" + std::to_string(static_cast<int>(softmax)) +
                " unified=" + std::to_string(unified);
            if (qk_scale == 1.0f) {
              EXPECT_EQ(rep.total_detected(), 0u) << tag;
            }
            EXPECT_EQ(0, std::memcmp(Of.data(), Oe.data(),
                                     Of.size() * sizeof(float)))
                << tag;
          }
        }
      }
    }
  }
}

TEST(EftaCosts, ProtectionIsSmallFractionOfTotal) {
  // The paper's headline: average FT overhead under ~25% in the optimized
  // configuration at paper scale.
  ftt::sim::MachineModel m;
  fc::EftaOptions opt;
  opt.unified_verification = true;
  double total_ratio = 0.0;
  int n = 0;
  for (std::size_t seq : {512u, 1024u, 2048u, 4096u, 8192u, 16384u}) {
    const auto shape = fa::paper_shape(seq, 16, 64);
    const double base = m.seconds(fa::flash_attention_costs(shape));
    const double total = m.seconds(fc::efta_costs(shape, opt));
    total_ratio += (total - base) / base;
    ++n;
  }
  EXPECT_LT(total_ratio / n, 0.60);
  EXPECT_GT(total_ratio / n, 0.02);
}

TEST(EftaCosts, UnifiedCheaperThanPerStep) {
  fc::EftaOptions per_step, unified;
  per_step.unified_verification = false;
  unified.unified_verification = true;
  ftt::sim::MachineModel m;
  for (std::size_t seq : {512u, 2048u, 8192u}) {
    const auto shape = fa::paper_shape(seq, 16, 64);
    EXPECT_LT(m.seconds(fc::efta_costs(shape, unified)),
              m.seconds(fc::efta_costs(shape, per_step)))
        << seq;
  }
}

TEST(EftaCosts, StridedCheaperThanElementOnModel) {
  fc::EftaOptions strided, element;
  element.gemm = fc::GemmProtect::kElement;
  // Isolate the ABFT comparison (Fig. 11): same (no) softmax protection.
  strided.softmax = fc::SoftmaxProtect::kNone;
  element.softmax = fc::SoftmaxProtect::kNone;
  ftt::sim::MachineModel m;
  const auto shape = fa::paper_shape(2048, 16, 64);
  EXPECT_LT(m.seconds(fc::efta_costs(shape, strided)),
            m.seconds(fc::efta_costs(shape, element)));
}

TEST(EftaCosts, SnvrCheaperThanDmrOnModel) {
  fc::EftaOptions snvr, dmr;
  dmr.softmax = fc::SoftmaxProtect::kDMR;
  dmr.gemm = fc::GemmProtect::kNone;
  snvr.gemm = fc::GemmProtect::kNone;
  ftt::sim::MachineModel m;
  const auto shape = fa::paper_shape(2048, 16, 64);
  EXPECT_LT(m.seconds(fc::efta_costs(shape, snvr)),
            m.seconds(fc::efta_costs(shape, dmr)));
}

TEST(EftaCausal, MatchesCausalStandard) {
  auto [Q, K, V] = make(1, 2, 192, 64, 30);
  ft::Tensor4F Os(1, 2, 192, 64), Oe(1, 2, 192, 64);
  fa::standard_attention(Q, K, V, Os, /*causal=*/true);
  fc::EftaOptions opt;
  opt.causal = true;
  opt.unified_verification = true;
  const auto rep = fc::efta_attention(Q, K, V, Oe, opt);
  EXPECT_LT(max_diff(Os, Oe), 2e-3f);
  EXPECT_EQ(rep.gemm2.flagged, 0u);
  EXPECT_EQ(rep.range_corrections, 0u);
}

TEST(EftaCausal, PerStepAlsoMatches) {
  auto [Q, K, V] = make(1, 1, 256, 64, 31);
  ft::Tensor4F Os(1, 1, 256, 64), Oe(1, 1, 256, 64);
  fa::standard_attention(Q, K, V, Os, true);
  fc::EftaOptions opt;
  opt.causal = true;
  opt.unified_verification = false;
  fc::efta_attention(Q, K, V, Oe, opt);
  EXPECT_LT(max_diff(Os, Oe), 2e-3f);
}

// --- misuse: typed errors raised before any slice runs ---

TEST(EftaMisuse, RejectsBadStride) {
  auto [Q, K, V] = make(1, 1, 64, 64, 71);
  ft::Tensor4F O(1, 1, 64, 64);
  for (const int stride : {0, -8, 3}) {
    fc::EftaOptions opt;
    opt.stride = stride;
    EXPECT_THROW(fc::efta_attention(Q, K, V, O, opt), std::invalid_argument)
        << stride;
  }
}

TEST(EftaMisuse, RejectsKShorterThanQ) {
  auto [Q, K, V] = make(1, 1, 128, 64, 72);
  ft::Tensor4H Kshort(1, 1, 64, 64), Vshort(1, 1, 64, 64);
  ft::Tensor4F O(1, 1, 128, 64);
  EXPECT_THROW(fc::efta_attention(Q, Kshort, Vshort, O, {}),
               std::invalid_argument);
}
