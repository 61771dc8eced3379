// EFTA under injected faults: every site of the paper's case analysis, in
// both per-step and unified verification modes, parameterized over bit
// positions and call offsets.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "attention/attention.hpp"
#include "core/efta.hpp"
#include "tensor/random.hpp"

namespace fa = ftt::attention;
namespace fc = ftt::core;
namespace ff = ftt::fault;
namespace ft = ftt::tensor;

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

float max_rel(const ft::Tensor4F& a, const ft::Tensor4F& b) {
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float d = std::fabs(a.data()[i] - b.data()[i]);
    if (std::isnan(d)) return std::numeric_limits<float>::infinity();
    m = std::max(m, d / (std::fabs(b.data()[i]) + 0.1f));
  }
  return m;
}

struct Env {
  ft::Tensor4H Q{1, 1, 128, 64}, K{1, 1, 128, 64}, V{1, 1, 128, 64};
  ft::Tensor4F ref{1, 1, 128, 64};
  Env() {
    ft::fill_normal(Q, 11);
    ft::fill_normal(K, 12);
    ft::fill_normal(V, 13);
    fa::standard_attention(Q, K, V, ref);
  }
  ft::Tensor4F run(const fc::EftaOptions& opt, ff::FaultInjector* inj,
                   fa::FtReport* out_rep = nullptr) const {
    ft::Tensor4F O(1, 1, 128, 64);
    const auto rep = fc::efta_attention(Q, K, V, O, opt, inj);
    if (out_rep) *out_rep = rep;
    return O;
  }
};

/// Every FtReport counter that a campaign can move, in a fixed order: per
/// verifier (GEMM I, EXP, GEMM II) checks, flagged, corrected, recomputed,
/// checksum repairs and uncorrectable, then range corrections and flips
/// placed.  (range_violations and dmr_recomputes stay 0 in these modes.)
using Counters = std::array<std::size_t, 20>;
Counters counters(const fa::FtReport& r) {
  Counters c{};
  std::size_t i = 0;
  for (const ftt::abft::Report* x : {&r.gemm1, &r.exp_check, &r.gemm2}) {
    for (const std::size_t v : {x->checks, x->flagged, x->corrected,
                                x->recomputed, x->checksum_repairs,
                                x->uncorrectable}) {
      c[i++] = v;
    }
  }
  c[i++] = r.range_corrections;
  c[i++] = r.faults_injected;
  return c;
}

/// The pinned campaign's flips: one call index per site, bits 30, 26, 3.
struct CampaignFlip {
  ff::Site site;
  std::uint64_t index;
  unsigned bit;
};
std::vector<CampaignFlip> campaign_flips(
    std::initializer_list<std::pair<ff::Site, std::uint64_t>> sites) {
  std::vector<CampaignFlip> flips;
  for (const auto& [site, index] : sites) {
    for (const unsigned bit : {30u, 26u, 3u}) {
      flips.push_back({site, index, bit});
    }
  }
  return flips;
}

fc::EftaOptions mode(bool unified) {
  fc::EftaOptions o;
  o.unified_verification = unified;
  return o;
}

}  // namespace

class EftaFaultModes : public ::testing::TestWithParam<bool> {};

TEST_P(EftaFaultModes, ProbeCallCountsPinned) {
  // The campaign indices below (e.g. the checksum calls {10, 600, 1500},
  // GEMM II call 3333) address per-site hook ordinals.  Pin the ordinal
  // space an unarmed probe observes for Env's shape, so a kernel change
  // that fires fewer hooks cannot quietly push a campaign out of range
  // (an index past calls() injects nothing).  Per (row-block, column-block)
  // pair of the 2 x 2 grid: a 64 x 64 score tile (GEMM I, EXP), a 64 x 64
  // output update (GEMM II), and 5120 checksum values — the four per-pair
  // encodes (2 x 8 x 64 + 2 x 64 x 8), the two S checksum tiles, the O
  // checksum rescale and the O checksum GEMM (64 x 8 x 2 each).
  Env env;
  ff::FaultInjector probe;
  env.run(mode(GetParam()), &probe);
  EXPECT_EQ(probe.calls(ff::Site::kGemm1), 16384u);
  EXPECT_EQ(probe.calls(ff::Site::kExp), 16384u);
  EXPECT_EQ(probe.calls(ff::Site::kGemm2), 16384u);
  EXPECT_EQ(probe.calls(ff::Site::kChecksum), 20480u);
  EXPECT_EQ(probe.injected(), 0u);

  // The ablation variants' ordinal spaces.  Element ABFT fires 384 checksum
  // hooks a pair: Q's and P's two column-sum rows and S's two checksum rows
  // (2 x 64 each).  DMR evaluates every EXP lane twice when the replicas
  // agree.
  struct Variant {
    fc::GemmProtect gemm;
    fc::SoftmaxProtect softmax;
    std::uint64_t exp, checksum;
  };
  for (const Variant& v :
       {Variant{fc::GemmProtect::kElement, fc::SoftmaxProtect::kSNVR, 16384,
                1536},
        Variant{fc::GemmProtect::kStrided, fc::SoftmaxProtect::kDMR, 32768,
                20480}}) {
    fc::EftaOptions opt = mode(GetParam());
    opt.gemm = v.gemm;
    opt.softmax = v.softmax;
    ff::FaultInjector variant_probe;
    env.run(opt, &variant_probe);
    const int id = static_cast<int>(v.gemm) * 10 + static_cast<int>(v.softmax);
    EXPECT_EQ(variant_probe.calls(ff::Site::kGemm1), 16384u) << id;
    EXPECT_EQ(variant_probe.calls(ff::Site::kExp), v.exp) << id;
    EXPECT_EQ(variant_probe.calls(ff::Site::kGemm2), 16384u) << id;
    EXPECT_EQ(variant_probe.calls(ff::Site::kChecksum), v.checksum) << id;
    EXPECT_EQ(variant_probe.injected(), 0u) << id;
  }
}

TEST_P(EftaFaultModes, CampaignReportsPinned) {
  // Every report counter of a fixed single-flip campaign at seq 256 (4 x 4
  // tile pairs): a residue-class screen that passed a class the scalar
  // check flags, or flagged one it passes, moves a counter here.  Both modes
  // verify GEMM I and check EXP per tile; they differ only in the per-tile
  // O verifies (GEMM II checks).  An EXP check stops at a row's first
  // flagged class and re-exponentiates the row, so a flipped checksum
  // costs that row's remaining classes.  A checksum flip GEMM I's verify
  // classifies is mended in the S checksum before the EXP check reads it,
  // so only the rows GEMM I passed (5 at bit 30) still flag at EXP.
  const std::size_t kSeq = 256;
  ft::Tensor4H Q(1, 1, kSeq, 64), K(1, 1, kSeq, 64), V(1, 1, kSeq, 64);
  ft::fill_normal(Q, 21);
  ft::fill_normal(K, 22);
  ft::fill_normal(V, 23);
  const auto flips = campaign_flips({{ff::Site::kGemm1, 21011},
                                     {ff::Site::kExp, 33333},
                                     {ff::Site::kGemm2, 47777},
                                     {ff::Site::kChecksum, 40961}});
  // Rows: GEMM I, EXP, GEMM II, checksum; bits 30, 26, 3 within each.
  const Counters kUnified[] = {
      {8192, 1, 1, 0, 0, 0, 8192, 0, 0, 0, 0, 0, 2048, 0, 0, 0, 0, 0, 0, 1},
      {8192, 1, 1, 0, 0, 0, 8192, 0, 0, 0, 0, 0, 2048, 0, 0, 0, 0, 0, 0, 1},
      {8192, 0, 0, 0, 0, 0, 8192, 0, 0, 0, 0, 0, 2048, 0, 0, 0, 0, 0, 0, 1},
      {8192, 0, 0, 0, 0, 0, 8190, 1, 0, 1, 0, 0, 2048, 0, 0, 0, 0, 0, 0, 1},
      {8192, 0, 0, 0, 0, 0, 8190, 1, 0, 1, 0, 0, 2048, 0, 0, 0, 0, 0, 0, 1},
      {8192, 0, 0, 0, 0, 0, 8192, 0, 0, 0, 0, 0, 2048, 0, 0, 0, 0, 0, 0, 1},
      {8192, 0, 0, 0, 0, 0, 8192, 0, 0, 0, 0, 0, 2048, 1, 1, 0, 0, 0, 0, 1},
      {8192, 0, 0, 0, 0, 0, 8192, 0, 0, 0, 0, 0, 2048, 1, 1, 0, 0, 0, 0, 1},
      {8192, 0, 0, 0, 0, 0, 8192, 0, 0, 0, 0, 0, 2048, 0, 0, 0, 0, 0, 0, 1},
      {8192, 52, 0, 0, 52, 0, 8157, 5, 0, 5, 0, 0, 2048, 0, 0, 0, 0, 0, 0, 1},
      {8192, 64, 0, 0, 64, 0, 8192, 0, 0, 0, 0, 0, 2048, 0, 0, 0, 0, 0, 0, 1},
      {8192, 0, 0, 0, 0, 0, 8192, 0, 0, 0, 0, 0, 2048, 0, 0, 0, 0, 0, 0, 1},
  };
  const Counters kPerStep[] = {
      {8192, 1, 1, 0, 0, 0, 8192, 0, 0, 0, 0, 0, 10240, 0, 0, 0, 0, 0, 0, 1},
      {8192, 1, 1, 0, 0, 0, 8192, 0, 0, 0, 0, 0, 10240, 0, 0, 0, 0, 0, 0, 1},
      {8192, 0, 0, 0, 0, 0, 8192, 0, 0, 0, 0, 0, 10240, 0, 0, 0, 0, 0, 0, 1},
      {8192, 0, 0, 0, 0, 0, 8190, 1, 0, 1, 0, 0, 10240, 0, 0, 0, 0, 0, 0, 1},
      {8192, 0, 0, 0, 0, 0, 8190, 1, 0, 1, 0, 0, 10240, 0, 0, 0, 0, 0, 0, 1},
      {8192, 0, 0, 0, 0, 0, 8192, 0, 0, 0, 0, 0, 10240, 0, 0, 0, 0, 0, 0, 1},
      {8192, 0, 0, 0, 0, 0, 8192, 0, 0, 0, 0, 0, 10240, 1, 1, 0, 0, 0, 0, 1},
      {8192, 0, 0, 0, 0, 0, 8192, 0, 0, 0, 0, 0, 10240, 1, 1, 0, 0, 0, 0, 1},
      {8192, 0, 0, 0, 0, 0, 8192, 0, 0, 0, 0, 0, 10240, 0, 0, 0, 0, 0, 0, 1},
      {8192, 52, 0, 0, 52, 0, 8157, 5, 0, 5, 0, 0, 10240, 0, 0, 0, 0, 0, 0, 1},
      {8192, 64, 0, 0, 64, 0, 8192, 0, 0, 0, 0, 0, 10240, 0, 0, 0, 0, 0, 0, 1},
      {8192, 0, 0, 0, 0, 0, 8192, 0, 0, 0, 0, 0, 10240, 0, 0, 0, 0, 0, 0, 1},
  };
  const Counters* pinned = GetParam() ? kUnified : kPerStep;
  ASSERT_EQ(flips.size(), std::size(kUnified));
  for (std::size_t i = 0; i < flips.size(); ++i) {
    auto inj = ff::FaultInjector::single(flips[i].site, flips[i].index,
                                         flips[i].bit);
    ft::Tensor4F O(1, 1, kSeq, 64);
    const auto rep = fc::efta_attention(Q, K, V, O, mode(GetParam()), &inj);
    EXPECT_EQ(counters(rep), pinned[i])
        << ff::site_name(flips[i].site) << " bit " << flips[i].bit;
    EXPECT_EQ(rep.dmr_recomputes, 0u);
    EXPECT_EQ(rep.gemm1.range_violations + rep.exp_check.range_violations +
                  rep.gemm2.range_violations,
              0u);
  }
}

TEST_P(EftaFaultModes, Gemm1HighBitCorrected) {
  Env env;
  auto inj = ff::FaultInjector::single(ff::Site::kGemm1, 2077, 30);
  fa::FtReport rep;
  const auto O = env.run(mode(GetParam()), &inj, &rep);
  EXPECT_EQ(rep.faults_injected, 1u);
  EXPECT_GE(rep.gemm1.corrected + rep.exp_check.corrected, 1u);
  EXPECT_LT(max_diff(O, env.ref), 1e-2f);
}

TEST_P(EftaFaultModes, ExpFaultRecomputed) {
  Env env;
  auto inj = ff::FaultInjector::single(ff::Site::kExp, 911, 29);
  fa::FtReport rep;
  const auto O = env.run(mode(GetParam()), &inj, &rep);
  EXPECT_EQ(rep.faults_injected, 1u);
  EXPECT_GE(rep.exp_check.flagged, 1u);
  EXPECT_LT(max_diff(O, env.ref), 1e-2f);
}

TEST_P(EftaFaultModes, ExpSignFlipRecovered) {
  // Negative exp output: impossible value, caught by the positivity guard.
  Env env;
  auto inj = ff::FaultInjector::single(ff::Site::kExp, 911, 31);
  fa::FtReport rep;
  const auto O = env.run(mode(GetParam()), &inj, &rep);
  EXPECT_GE(rep.exp_check.flagged, 1u);
  EXPECT_LT(max_diff(O, env.ref), 1e-2f);
}

TEST_P(EftaFaultModes, Gemm2Corrected) {
  Env env;
  auto inj = ff::FaultInjector::single(ff::Site::kGemm2, 3333, 30);
  fa::FtReport rep;
  const auto O = env.run(mode(GetParam()), &inj, &rep);
  EXPECT_EQ(rep.faults_injected, 1u);
  EXPECT_GE(rep.gemm2.corrected, 1u);
  EXPECT_LT(max_diff(O, env.ref), 1e-2f);
}

TEST_P(EftaFaultModes, RescaleCorrected) {
  Env env;
  auto inj = ff::FaultInjector::single(ff::Site::kRescale, 4000, 30);
  fa::FtReport rep;
  const auto O = env.run(mode(GetParam()), &inj, &rep);
  EXPECT_EQ(rep.faults_injected, 1u);
  EXPECT_LT(max_diff(O, env.ref), 1e-2f);
}

TEST_P(EftaFaultModes, ReduceSumRangeRestricted) {
  // Case 3: a big flip in the running rowsum pushes l outside
  // [sum exp(m_blk - m_glob), seq]; SNVR replaces it with the approximation.
  // The result is approximate, not exact — check it stays usable.
  Env env;
  auto inj = ff::FaultInjector::single(ff::Site::kReduceSum, 77, 29);
  fa::FtReport rep;
  const auto O = env.run(mode(GetParam()), &inj, &rep);
  EXPECT_EQ(rep.faults_injected, 1u);
  EXPECT_GE(rep.range_corrections, 1u);
  for (std::size_t i = 0; i < O.size(); ++i) {
    EXPECT_TRUE(std::isfinite(O.data()[i]));
  }
}

TEST_P(EftaFaultModes, ReduceMaxUpwardCancels) {
  // Case 1: an upward-flipped running max cancels exactly through the
  // rescale chain (the stabilizer need not be the true max).
  Env env;
  // Bit 23 flips low exponent bits: moderate perturbation of the max.
  auto inj = ff::FaultInjector::single(ff::Site::kReduceMax, 50, 23);
  fa::FtReport rep;
  const auto O = env.run(mode(GetParam()), &inj, &rep);
  EXPECT_EQ(rep.faults_injected, 1u);
  EXPECT_LT(max_rel(O, env.ref), 0.05f);
}

TEST_P(EftaFaultModes, ChecksumPipelineFlipHarmless) {
  // A flip confined to the checksum pipeline must never corrupt the payload.
  Env env;
  for (std::uint64_t call : {10u, 600u, 1500u}) {
    auto inj = ff::FaultInjector::single(ff::Site::kChecksum, call, 28);
    fa::FtReport rep;
    const auto O = env.run(mode(GetParam()), &inj, &rep);
    EXPECT_LT(max_diff(O, env.ref), 1e-2f) << call;
  }
}

TEST_P(EftaFaultModes, LowBitFlipsStayNegligible) {
  // Low-mantissa flips may escape detection but by construction cannot move
  // the output materially.
  Env env;
  for (ff::Site site : {ff::Site::kGemm1, ff::Site::kExp, ff::Site::kGemm2}) {
    auto inj = ff::FaultInjector::single(site, 123, 2);
    const auto O = env.run(mode(GetParam()), &inj, nullptr);
    EXPECT_LT(max_rel(O, env.ref), 0.02f) << ff::site_name(site);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, EftaFaultModes, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Unified" : "PerStep";
                         });

// --- bit-position sweep (property-style): high bits always recovered ---

class EftaBitSweep : public ::testing::TestWithParam<unsigned> {};

namespace {
// Exponent-field flips (>= bit 29) must be detected and repaired exactly;
// mantissa-field flips may legitimately sit below the detection threshold,
// but then their impact is bounded by construction.
float bit_tolerance(unsigned bit) { return bit >= 30 ? 0.05f : 0.30f; }
}  // namespace

TEST_P(EftaBitSweep, Gemm1FlipRecovered) {
  Env env;
  auto inj = ff::FaultInjector::single(ff::Site::kGemm1, 999, GetParam());
  fc::EftaOptions opt = mode(true);
  const auto O = env.run(opt, &inj, nullptr);
  EXPECT_LT(max_rel(O, env.ref), bit_tolerance(GetParam()))
      << "bit " << GetParam();
}

TEST_P(EftaBitSweep, Gemm2FlipRecovered) {
  Env env;
  auto inj = ff::FaultInjector::single(ff::Site::kGemm2, 4242, GetParam());
  fc::EftaOptions opt = mode(true);
  const auto O = env.run(opt, &inj, nullptr);
  EXPECT_LT(max_rel(O, env.ref), bit_tolerance(GetParam()))
      << "bit " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Bits, EftaBitSweep,
                         ::testing::Values(20u, 23u, 26u, 28u, 30u, 31u));

// --- DMR softmax mode under EXP faults ---

TEST(EftaDmr, ExpFaultCaughtByReplication) {
  Env env;
  fc::EftaOptions opt;
  opt.softmax = fc::SoftmaxProtect::kDMR;
  auto inj = ff::FaultInjector::single(ff::Site::kExp, 500, 30);
  fa::FtReport rep;
  ft::Tensor4F O(1, 1, 128, 64);
  rep = fc::efta_attention(env.Q, env.K, env.V, O, opt, &inj);
  EXPECT_EQ(rep.faults_injected, 1u);
  EXPECT_GE(rep.dmr_recomputes, 1u);
  EXPECT_LT(max_diff(O, env.ref), 1e-2f);
}

// --- element (traditional) ABFT inside EFTA ---

TEST(EftaElement, Gemm1FlipCorrected) {
  Env env;
  fc::EftaOptions opt;
  opt.gemm = fc::GemmProtect::kElement;
  auto inj = ff::FaultInjector::single(ff::Site::kGemm1, 321, 30);
  fa::FtReport rep;
  ft::Tensor4F O(1, 1, 128, 64);
  rep = fc::efta_attention(env.Q, env.K, env.V, O, opt, &inj);
  EXPECT_EQ(rep.faults_injected, 1u);
  EXPECT_GE(rep.gemm1.corrected, 1u);
  EXPECT_LT(max_diff(O, env.ref), 1e-2f);
}

TEST(EftaElement, Gemm2FlipCorrected) {
  Env env;
  fc::EftaOptions opt;
  opt.gemm = fc::GemmProtect::kElement;
  auto inj = ff::FaultInjector::single(ff::Site::kGemm2, 2222, 30);
  fa::FtReport rep;
  ft::Tensor4F O(1, 1, 128, 64);
  rep = fc::efta_attention(env.Q, env.K, env.V, O, opt, &inj);
  EXPECT_GE(rep.gemm2.corrected, 1u);
  EXPECT_LT(max_diff(O, env.ref), 1e-2f);
}

// --- multi-error within one kernel call (beyond-SEU stress) ---

TEST(EftaMultiError, TwoFlipsDistinctResidues) {
  // Two MAC flips landing in different residue classes: both corrected by
  // the 8-wide tensor checksum (the paper's coverage advantage).
  Env env;
  auto inj =
      ff::FaultInjector::bernoulli(2.0 / (128.0 * 128.0), 99, {ff::Site::kGemm1});
  fa::FtReport rep;
  const auto O = env.run(mode(true), &inj, &rep);
  // Whatever landed, output must remain close to the reference.
  EXPECT_LT(max_rel(O, env.ref), 0.05f);
}

// --- causal (decoder) attention under faults ---

TEST(EftaCausalFaults, OffDiagonalGemm1Corrected) {
  ft::Tensor4H Q(1, 1, 128, 64), K(1, 1, 128, 64), V(1, 1, 128, 64);
  ft::fill_normal(Q, 41);
  ft::fill_normal(K, 42);
  ft::fill_normal(V, 43);
  fc::EftaOptions opt;
  opt.causal = true;
  opt.unified_verification = true;
  ft::Tensor4F ref(1, 1, 128, 64);
  fc::efta_attention(Q, K, V, ref, opt);
  // GEMM I hooks fire on visible lanes only: calls 0..2079 are the causal
  // triangle of row-block 0; the next 4096 belong to the second row block's
  // off-diagonal tile.
  auto inj = ff::FaultInjector::single(ff::Site::kGemm1, 5000, 30);
  ft::Tensor4F O(1, 1, 128, 64);
  const auto rep = fc::efta_attention(Q, K, V, O, opt, &inj);
  EXPECT_EQ(rep.faults_injected, 1u);
  EXPECT_LT(max_diff(O, ref), 1e-2f);
}

TEST(EftaCausalFaults, DiagonalBlockVerifiedPreMask) {
  ft::Tensor4H Q(1, 1, 128, 64), K(1, 1, 128, 64), V(1, 1, 128, 64);
  ft::fill_normal(Q, 44);
  ft::fill_normal(K, 45);
  ft::fill_normal(V, 46);
  fc::EftaOptions opt;
  opt.causal = true;
  opt.unified_verification = true;
  ft::Tensor4F ref(1, 1, 128, 64);
  fc::efta_attention(Q, K, V, ref, opt);
  // Call 100 lands in the first (diagonal) block, row 13: the pre-mask
  // linear verification must repair it before the causal mask applies.
  auto inj = ff::FaultInjector::single(ff::Site::kGemm1, 100, 30);
  ft::Tensor4F O(1, 1, 128, 64);
  const auto rep = fc::efta_attention(Q, K, V, O, opt, &inj);
  EXPECT_EQ(rep.faults_injected, 1u);
  EXPECT_GE(rep.gemm1.corrected, 1u);
  EXPECT_LT(max_diff(O, ref), 1e-2f);
}
