// Protected single-token decode (KV-cache inference step).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "attention/attention.hpp"
#include "core/decode.hpp"
#include "paged_kv_fixture.hpp"
#include "tensor/random.hpp"

namespace fa = ftt::attention;
namespace fc = ftt::core;
namespace ff = ftt::fault;
namespace ft = ftt::tensor;
using ftt::numeric::Half;

namespace {

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

struct DecodeEnv {
  static constexpr std::size_t kN = 256, kD = 64;
  ft::MatrixH K{kN, kD}, V{kN, kD};
  std::vector<Half> q;
  std::vector<float> ref;
  DecodeEnv() : q(kD), ref(kD) {
    ft::fill_normal(K, 61);
    ft::fill_normal(V, 62);
    std::mt19937_64 rng(63);
    std::normal_distribution<float> dist(0.0f, 1.0f);
    for (auto& v : q) v = Half(dist(rng));
    // Reference: standard attention with the decode row as the last query.
    ft::Tensor4H Qt(1, 1, kN, kD), Kt(1, 1, kN, kD), Vt(1, 1, kN, kD);
    for (std::size_t r = 0; r < kN; ++r) {
      for (std::size_t c = 0; c < kD; ++c) {
        Qt.at(0, 0, r, c) = q[c];  // same query in every row; row 0 suffices
        Kt.at(0, 0, r, c) = K(r, c);
        Vt.at(0, 0, r, c) = V(r, c);
      }
    }
    ft::Tensor4F O(1, 1, kN, kD);
    fa::standard_attention(Qt, Kt, Vt, O);
    for (std::size_t c = 0; c < kD; ++c) ref[c] = O.at(0, 0, 0, c);
  }
};

}  // namespace

TEST(Decode, CleanMatchesStandardAttention) {
  DecodeEnv env;
  std::vector<float> out(DecodeEnv::kD);
  const auto rep = fc::efta_decode_step(env.K, env.V, env.q, out);
  EXPECT_EQ(rep.gemm1.flagged, 0u);
  EXPECT_EQ(rep.exp_check.flagged, 0u);
  EXPECT_EQ(rep.range_corrections, 0u);
  for (std::size_t c = 0; c < DecodeEnv::kD; ++c) {
    EXPECT_NEAR(out[c], env.ref[c], 2e-3f) << c;
  }
}

TEST(Decode, RejectsBadShapes) {
  ft::MatrixH K(128, 64), V(128, 64);
  std::vector<Half> q(64);
  std::vector<float> out(64);
  {
    std::vector<Half> q_short(32);  // q must have d entries
    EXPECT_THROW(fc::efta_decode_step(K, V, q_short, out),
                 std::invalid_argument);
  }
  {
    ft::MatrixH V_bad(64, 64);  // V must match K's shape
    EXPECT_THROW(fc::efta_decode_step(K, V_bad, q, out),
                 std::invalid_argument);
  }
  {
    ft::MatrixH K0(0, 64), V0(0, 64);  // empty context
    EXPECT_THROW(fc::efta_decode_step(K0, V0, q, out), std::invalid_argument);
  }
  {
    ft::MatrixH K3(64, 3), V3(64, 3);  // d % stride != 0
    std::vector<Half> q3(3);
    std::vector<float> out3(3);
    EXPECT_THROW(fc::efta_decode_step(K3, V3, q3, out3),
                 std::invalid_argument);
  }
  {
    // A zero head dimension: a hand-built slice whose every pointer is
    // present (the tail pad would copy from it), and the contiguous
    // overload, throw before any work or hook.
    ft::MatrixH K0(100, 0), V0(100, 0);
    std::vector<Half> one(1);
    std::vector<float> sink(1);
    const std::vector<const Half*> tiles(2, one.data());
    const fc::KvSlice kv{tiles.data(), tiles.data(), 100, 0};
    const fc::DecodeWorkItem item{kv, one.data(), sink.data()};
    ff::FaultInjector probe;
    EXPECT_THROW(fc::efta_decode_block(item, {}, &probe),
                 std::invalid_argument);
    const fc::DecodeWorkItem items[] = {item};
    EXPECT_THROW(fc::efta_decode_batch(items, {}, &probe),
                 std::invalid_argument);
    EXPECT_THROW(fc::efta_decode_step(K0, V0, {}, {}, {}, &probe),
                 std::invalid_argument);
    for (std::size_t s = 0; s < ff::kSiteCount; ++s) {
      EXPECT_EQ(probe.calls(static_cast<ff::Site>(s)), 0u) << s;
    }
  }
}

TEST(Decode, RejectsStrideNotDividingTheTileBeforeAnyHook) {
  // Stride 12 divides d = 96 but not the 64-row tile, so the strided
  // checksums cannot tile a KV tile's rows.  Block, step and batch must all
  // throw before any work, with no hook fired, instead of failing in the
  // tile encoder mid-call (inside the batch's OpenMP loop, which ends the
  // process).
  constexpr std::size_t kN = 100, kD = 96;
  ft::MatrixH K(kN, kD), V(kN, kD);
  ft::fill_normal(K, 71);
  ft::fill_normal(V, 72);
  std::vector<const Half*> kt, vt;
  for (std::size_t r = 0; r < kN; r += fc::KvSlice::kTileRows) {
    kt.push_back(K.data() + r * kD);
    vt.push_back(V.data() + r * kD);
  }
  const fc::KvSlice kv{kt.data(), vt.data(), kN, kD};
  std::vector<Half> q(kD, Half(0.5f));
  std::vector<float> out(kD);
  fc::EftaOptions opt;
  opt.stride = 12;
  ff::FaultInjector probe;
  const fc::DecodeWorkItem item{kv, q.data(), out.data()};
  EXPECT_THROW(fc::efta_decode_block(item, opt, &probe),
               std::invalid_argument);
  EXPECT_THROW(fc::efta_decode_step(kv, q, out, opt, &probe),
               std::invalid_argument);
  EXPECT_THROW(fc::efta_decode_step(K, V, q, out, opt, &probe),
               std::invalid_argument);
  const fc::DecodeWorkItem items[] = {item, item};
  EXPECT_THROW(fc::efta_decode_batch(items, opt, &probe),
               std::invalid_argument);
  EXPECT_THROW(fc::efta_decode_batch(items, opt), std::invalid_argument);
  for (std::size_t s = 0; s < ff::kSiteCount; ++s) {
    EXPECT_EQ(probe.calls(static_cast<ff::Site>(s)), 0u) << s;
  }
}

TEST(Decode, RejectsTileMissingItsPayloadBeforeAnyHook) {
  // Each tile must carry the payload pointers its format reads: V rows and
  // K (K^T or rows) for an fp16 tile, the int8 payloads and scale arrays
  // for a kI8 tile.  Block, step and batch must all throw before any work,
  // with no hook fired, instead of dereferencing a null tile inside the
  // kernel — the batch even when a well-formed item precedes the bad one.
  constexpr std::size_t kN = 100, kD = 64;
  ft::MatrixH K(kN, kD), V(kN, kD);
  ft::fill_normal(K, 73);
  ft::fill_normal(V, 74);
  std::vector<const Half*> kt, vt;
  for (std::size_t r = 0; r < kN; r += fc::KvSlice::kTileRows) {
    kt.push_back(K.data() + r * kD);
    vt.push_back(V.data() + r * kD);
  }
  std::vector<Half> q(kD, Half(0.5f));
  std::vector<float> out(kD);
  const fc::KvSlice good{kt.data(), vt.data(), kN, kD};

  // An fp16 slice whose first K tile is missing.
  std::vector<const Half*> kt_hole = kt;
  kt_hole[0] = nullptr;
  const fc::KvSlice no_k{kt_hole.data(), vt.data(), kN, kD};
  // A kI8 first tile without any int8 payload or scale arrays.
  const fc::TileFmt fmt[] = {fc::TileFmt::kI8, fc::TileFmt::kF16};
  fc::KvSlice no_i8 = good;
  no_i8.fmt = fmt;
  // A kI8 first tile whose arrays exist but hold no payload for it.
  const std::vector<const std::int8_t*> i8_tiles(2, nullptr);
  const float scales[] = {1.0f, 1.0f};
  fc::KvSlice i8_hole = no_i8;
  i8_hole.k_i8 = i8_tiles.data();
  i8_hole.v_i8 = i8_tiles.data();
  i8_hole.k_scale = scales;
  i8_hole.v_scale = scales;

  ff::FaultInjector probe;
  for (const fc::KvSlice& kv : {no_k, no_i8, i8_hole}) {
    const fc::DecodeWorkItem item{kv, q.data(), out.data()};
    EXPECT_THROW(fc::efta_decode_block(item, {}, &probe),
                 std::invalid_argument);
    EXPECT_THROW(fc::efta_decode_step(kv, q, out, {}, &probe),
                 std::invalid_argument);
    const fc::DecodeWorkItem items[] = {
        fc::DecodeWorkItem{good, q.data(), out.data()}, item};
    EXPECT_THROW(fc::efta_decode_batch(items, {}, &probe),
                 std::invalid_argument);
    EXPECT_THROW(fc::efta_decode_batch(items), std::invalid_argument);
  }
  for (std::size_t s = 0; s < ff::kSiteCount; ++s) {
    EXPECT_EQ(probe.calls(static_cast<ff::Site>(s)), 0u) << s;
  }
}

TEST(Decode, RaggedContextMatchesStandardAttention) {
  // Context lengths that are not multiples of the 64-row checksum tile must
  // work: the ragged tail is zero-padded into a full checksum footprint.
  constexpr std::size_t kD = 64;
  for (const std::size_t n : {1u, 2u, 7u, 63u, 65u, 100u, 127u, 129u}) {
    ft::MatrixH K(n, kD), V(n, kD);
    ft::fill_normal(K, 400 + n);
    ft::fill_normal(V, 500 + n);
    std::vector<Half> q(kD);
    std::mt19937_64 rng(600 + n);
    std::normal_distribution<float> dist(0.0f, 1.0f);
    for (auto& v : q) v = Half(dist(rng));

    ft::Tensor4H Qt(1, 1, n, kD), Kt(1, 1, n, kD), Vt(1, 1, n, kD);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < kD; ++c) {
        Qt.at(0, 0, r, c) = q[c];
        Kt.at(0, 0, r, c) = K(r, c);
        Vt.at(0, 0, r, c) = V(r, c);
      }
    }
    ft::Tensor4F O(1, 1, n, kD);
    fa::standard_attention(Qt, Kt, Vt, O);

    std::vector<float> out(kD);
    const auto rep = fc::efta_decode_step(K, V, q, out);
    EXPECT_EQ(rep.gemm1.flagged, 0u) << n;
    EXPECT_EQ(rep.exp_check.flagged, 0u) << n;
    EXPECT_EQ(rep.gemm2.flagged, 0u) << n;
    EXPECT_EQ(rep.range_corrections, 0u) << n;
    for (std::size_t c = 0; c < kD; ++c) {
      EXPECT_NEAR(out[c], O.at(0, 0, 0, c), 2e-3f) << "n=" << n << " c=" << c;
    }
  }
}

TEST(Decode, ReusedInjectorReportsPerCallDelta) {
  // faults_injected counts the flips placed during *this* call, so reports
  // from consecutive calls sharing one injector can be merged without
  // double counting (the batched path relies on the same accounting).
  DecodeEnv env;
  std::vector<float> out(DecodeEnv::kD);
  auto inj = ff::FaultInjector::single(ff::Site::kGemm1, 100, 30);
  const auto first = fc::efta_decode_step(env.K, env.V, env.q, out, {}, &inj);
  EXPECT_EQ(first.faults_injected, 1u);
  const auto second = fc::efta_decode_step(env.K, env.V, env.q, out, {}, &inj);
  EXPECT_EQ(second.faults_injected, 0u);  // the single flip already fired
  EXPECT_EQ((first + second).faults_injected, 1u);
}

TEST(Decode, RaggedContextCorrectsGemm1Fault) {
  constexpr std::size_t kD = 64, kN = 100;
  ft::MatrixH K(kN, kD), V(kN, kD);
  ft::fill_normal(K, 71);
  ft::fill_normal(V, 72);
  std::vector<Half> q(kD);
  std::mt19937_64 rng(73);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  for (auto& v : q) v = Half(dist(rng));

  std::vector<float> ref(kD), out(kD);
  fc::efta_decode_step(K, V, q, ref);
  auto inj = ff::FaultInjector::single(ff::Site::kGemm1, 80, 30);
  const auto rep = fc::efta_decode_step(K, V, q, out, {}, &inj);
  EXPECT_EQ(rep.faults_injected, 1u);
  EXPECT_GE(rep.gemm1.corrected + rep.gemm1.checksum_repairs, 1u);
  for (std::size_t c = 0; c < kD; ++c) {
    EXPECT_NEAR(out[c], ref[c], 1e-2f) << c;
  }
}

TEST(Decode, CorrectsGemm1Fault) {
  DecodeEnv env;
  std::vector<float> out(DecodeEnv::kD);
  auto inj = ff::FaultInjector::single(ff::Site::kGemm1, 100, 30);
  const auto rep = fc::efta_decode_step(env.K, env.V, env.q, out, {}, &inj);
  EXPECT_EQ(rep.faults_injected, 1u);
  EXPECT_GE(rep.gemm1.corrected, 1u);
  for (std::size_t c = 0; c < DecodeEnv::kD; ++c) {
    EXPECT_NEAR(out[c], env.ref[c], 1e-2f) << c;
  }
}

TEST(Decode, RecoversFromExpFault) {
  DecodeEnv env;
  std::vector<float> out(DecodeEnv::kD);
  auto inj = ff::FaultInjector::single(ff::Site::kExp, 77, 30);
  const auto rep = fc::efta_decode_step(env.K, env.V, env.q, out, {}, &inj);
  EXPECT_EQ(rep.faults_injected, 1u);
  EXPECT_GE(rep.exp_check.flagged, 1u);
  for (std::size_t c = 0; c < DecodeEnv::kD; ++c) {
    EXPECT_NEAR(out[c], env.ref[c], 1e-2f) << c;
  }
}

TEST(Decode, CorrectsGemm2Fault) {
  DecodeEnv env;
  std::vector<float> out(DecodeEnv::kD);
  auto inj = ff::FaultInjector::single(ff::Site::kGemm2, 50, 30);
  const auto rep = fc::efta_decode_step(env.K, env.V, env.q, out, {}, &inj);
  EXPECT_EQ(rep.faults_injected, 1u);
  EXPECT_GE(rep.gemm2.corrected + rep.gemm2.checksum_repairs, 1u);
  for (std::size_t c = 0; c < DecodeEnv::kD; ++c) {
    EXPECT_NEAR(out[c], env.ref[c], 1e-2f) << c;
  }
}

TEST(Decode, RangeRestrictsRowsumFault) {
  DecodeEnv env;
  std::vector<float> out(DecodeEnv::kD);
  auto inj = ff::FaultInjector::single(ff::Site::kReduceSum, 1, 29);
  const auto rep = fc::efta_decode_step(env.K, env.V, env.q, out, {}, &inj);
  EXPECT_EQ(rep.faults_injected, 1u);
  for (std::size_t c = 0; c < DecodeEnv::kD; ++c) {
    EXPECT_TRUE(std::isfinite(out[c]));
  }
}

TEST(Decode, GrowingCacheStaysConsistent) {
  // The decode step over a prefix of the cache equals standard attention
  // over that prefix — the invariant autoregressive generation relies on.
  DecodeEnv env;
  for (const std::size_t n : {64u, 128u, 192u, 256u}) {
    ft::MatrixH K(n, DecodeEnv::kD), V(n, DecodeEnv::kD);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < DecodeEnv::kD; ++c) {
        K(r, c) = env.K(r, c);
        V(r, c) = env.V(r, c);
      }
    }
    std::vector<float> out(DecodeEnv::kD);
    const auto rep = fc::efta_decode_step(K, V, env.q, out);
    EXPECT_EQ(rep.gemm1.flagged, 0u) << n;
    // Weights must be a convex combination of the prefix's V rows.
    for (std::size_t c = 0; c < DecodeEnv::kD; ++c) {
      float lo = 1e30f, hi = -1e30f;
      for (std::size_t r = 0; r < n; ++r) {
        lo = std::min(lo, V(r, c).to_float());
        hi = std::max(hi, V(r, c).to_float());
      }
      EXPECT_GE(out[c], lo - 1e-3f);
      EXPECT_LE(out[c], hi + 1e-3f);
    }
  }
}

TEST(Decode, BlockRowsBitwiseStepsAtWideScoreSpreads) {
  // A 64-row block at n = 200 against each of its rows run as a one-row
  // step over that row's own prefix, with q and K scaled by 6 so that row
  // score spreads pass 104: exp lanes flush to +0 and land on subnormal
  // outputs, and the EXP check's repairs fire.  Both paths run the same
  // per-row code, so the rows stay bitwise equal.
  constexpr std::size_t kN = 200, kD = 64, kRows = 64;
  constexpr std::size_t kB = fc::KvSlice::kTileRows;
  ft::MatrixH K(kN, kD), V(kN, kD);
  ft::fill_normal(K, 71, 0.0f, 6.0f);
  ft::fill_normal(V, 72);
  std::vector<Half> q(kRows * kD);
  std::mt19937_64 rng(73);
  std::normal_distribution<float> dist(0.0f, 6.0f);
  for (auto& v : q) v = Half(dist(rng));
  double widest = 0.0;
  for (std::size_t r = 0; r < kRows; ++r) {
    double lo = 1e300, hi = -1e300;
    for (std::size_t c = 0; c < kN; ++c) {
      double s = 0.0;
      for (std::size_t k = 0; k < kD; ++k) {
        s += static_cast<double>(q[r * kD + k].to_float()) * K(c, k).to_float();
      }
      s /= std::sqrt(static_cast<double>(kD));
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
    widest = std::max(widest, hi - lo);
  }
  ASSERT_GT(widest, 104.0);

  std::vector<const Half*> kt, vt;
  for (std::size_t r = 0; r < kN; r += kB) {
    kt.push_back(K.data() + r * kD);
    vt.push_back(V.data() + r * kD);
  }
  const fc::KvSlice kv{kt.data(), vt.data(), kN, kD};
  std::vector<float> block(kRows * kD), step(kD);
  const auto rep = fc::efta_decode_block(
      fc::DecodeWorkItem{kv, q.data(), block.data(), kRows});
  EXPECT_GT(rep.exp_check.recomputed, 0u);
  EXPECT_EQ(rep.exp_check.uncorrectable, 0u);
  for (std::size_t r = 0; r < kRows; ++r) {
    fc::KvSlice prefix = kv;
    prefix.n = kN - kRows + r + 1;
    fc::efta_decode_step(prefix, {q.data() + r * kD, kD}, step);
    ASSERT_EQ(0, std::memcmp(step.data(), block.data() + r * kD,
                             kD * sizeof(float)))
        << "row " << r;
  }
}

TEST(Decode, ChainRootBlockRowsEqualEftaAndFlash) {
  // The contract chain's root: block-kernel row r == causal efta_attention
  // row r == causal flash_attention row r, bitwise.  The block kernel reads
  // a pool slice (sealed kF16T tiles, or kI8 tiles), one 64-row causal
  // block per item, the way a prefill chunk runs; efta_attention and flash
  // read the slice's raw fp16 twin, which for a kI8 tile is its exactly
  // dequantized rows.  All three sum GEMM II straight into the running
  // output in ascending k.  The 6x pass scales q and K so that row score
  // spreads pass 104 and the EXP check's repairs fire.
  constexpr std::size_t kD = 64, kB = fc::KvSlice::kTileRows;
  for (const fc::TileFmt fmt : {fc::TileFmt::kF16, fc::TileFmt::kI8}) {
    for (const float qk : {1.0f, 6.0f}) {
      for (const std::size_t n : {64u, 128u, 512u, 2048u}) {
        ft::MatrixH Q(n, kD), K(n, kD), V(n, kD);
        ft::fill_normal(Q, 31 + n, 0.0f, qk);
        ft::fill_normal(K, 32 + n, 0.0f, qk);
        ft::fill_normal(V, 33 + n);
        ftt::testing::PagedKv pool(1, kD, fmt);
        pool.append({K.data(), n * kD}, {V.data(), n * kD}, n);
        const fc::KvSlice kv = pool.slice(0);

        std::vector<float> block(n * kD);
        std::vector<fc::DecodeWorkItem> items;
        for (std::size_t r0 = 0; r0 < n; r0 += kB) {
          fc::KvSlice prefix = kv;
          prefix.n = r0 + kB;
          items.push_back(fc::DecodeWorkItem{prefix, Q.data() + r0 * kD,
                                             block.data() + r0 * kD, kB});
        }
        fc::efta_decode_batch(items);

        const auto [k, v] = ftt::testing::raw_twin(kv);
        ft::Tensor4H Qt(1, 1, n, kD), Kt(1, 1, n, kD), Vt(1, 1, n, kD);
        std::copy_n(Q.data(), n * kD, Qt.data());
        std::copy_n(k.data(), n * kD, Kt.data());
        std::copy_n(v.data(), n * kD, Vt.data());
        ft::Tensor4F efta(1, 1, n, kD), flash(1, 1, n, kD);
        fc::EftaOptions opt;
        opt.causal = true;
        opt.unified_verification = true;
        fc::efta_attention(Qt, Kt, Vt, efta, opt);
        fa::flash_attention(Qt, Kt, Vt, flash, 64, true);

        std::size_t equal = 0;
        for (std::size_t r = 0; r < n; ++r) {
          const std::size_t bytes = kD * sizeof(float);
          equal += std::memcmp(block.data() + r * kD, &efta.at(0, 0, r, 0),
                               bytes) == 0 &&
                   std::memcmp(&efta.at(0, 0, r, 0), &flash.at(0, 0, r, 0),
                               bytes) == 0;
        }
        EXPECT_EQ(equal, n) << "fmt " << int(fmt) << " qk " << qk << " n "
                            << n;
      }
    }
  }
}

TEST(Decode, ProbeCallCountsPinned) {
  // Campaign indices address per-site hook ordinals.  Pin the ordinal space
  // an unarmed probe observes, and the value two single flips land on, so a
  // kernel change that fires fewer hooks, or reorders them within a site,
  // cannot quietly re-aim a campaign.  n = 200 is 3 full tiles plus an
  // 8-row tail; a 64-row block starts at row 136, so only rows 56..63
  // (global 192..199) reach tile 3.
  constexpr std::size_t kN = 200, kD = 64, kRows = 64;
  constexpr std::size_t kB = fc::KvSlice::kTileRows;
  ft::MatrixH K(kN, kD), V(kN, kD);
  ft::fill_normal(K, 81);
  ft::fill_normal(V, 82);
  std::vector<Half> q(kRows * kD);
  std::mt19937_64 rng(83);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  for (auto& v : q) v = Half(dist(rng));
  std::vector<const Half*> kt, vt;
  for (std::size_t r = 0; r < kN; r += kB) {
    kt.push_back(K.data() + r * kD);
    vt.push_back(V.data() + r * kD);
  }
  const fc::KvSlice kv{kt.data(), vt.data(), kN, kD};
  std::vector<float> out(kRows * kD);
  const auto run = [&](std::size_t rows, ff::FaultInjector& inj) {
    const Half* qrows = q.data() + (kRows - rows) * kD;
    fc::efta_decode_block(fc::DecodeWorkItem{kv, qrows, out.data(), rows},
                          {}, &inj);
  };

  struct Pinned {
    std::size_t rows;
    std::uint64_t gemm1, reduce_max, exp, reduce_sum, rescale, gemm2,
        checksum;
  };
  // Block: 64 rows x 3 tiles + 8 rows x tile 3 = 200 (row, tile) visits,
  // 10784 visible score lanes.  Step: row 199 visits all 4 tiles.  Both
  // encode all four checksums of each tile fresh under any injector (2048
  // hooks a tile), and each visit adds 48 checksum hooks: its S checksums,
  // O checksum rescale and O checksum GEMM (2 x 8 each).  Rescale counts
  // each visit's d rescales plus each row's d normalizations.
  for (const Pinned& p :
       {Pinned{64, 10784, 200, 10784, 200, 16896, 12800, 17792},
        Pinned{1, 200, 4, 200, 4, 320, 256, 8384}}) {
    ff::FaultInjector probe;
    run(p.rows, probe);
    EXPECT_EQ(probe.calls(ff::Site::kGemm1), p.gemm1) << p.rows;
    EXPECT_EQ(probe.calls(ff::Site::kReduceMax), p.reduce_max) << p.rows;
    EXPECT_EQ(probe.calls(ff::Site::kExp), p.exp) << p.rows;
    EXPECT_EQ(probe.calls(ff::Site::kReduceSum), p.reduce_sum) << p.rows;
    EXPECT_EQ(probe.calls(ff::Site::kRescale), p.rescale) << p.rows;
    EXPECT_EQ(probe.calls(ff::Site::kGemm2), p.gemm2) << p.rows;
    EXPECT_EQ(probe.calls(ff::Site::kChecksum), p.checksum) << p.rows;
    EXPECT_EQ(probe.calls(ff::Site::kLinear), 0u) << p.rows;
    EXPECT_EQ(probe.injected(), 0u) << p.rows;
  }

  // Tiles 0..2 each take 64 x 64 rescale and GEMM II hooks, so tile 3's
  // (rows 56..63) start at ordinal 12288.
  struct Flip {
    ff::Site site;
    std::uint64_t index;
    std::uint32_t before_bits;
  };
  for (const Flip& f :
       {Flip{ff::Site::kGemm2, 12288 + 3 * kD + 5, 0x3f499505u},
        Flip{ff::Site::kRescale, 12288 + 100, 0x4014b618u}}) {
    auto inj = ff::FaultInjector::single(f.site, f.index, 30);
    run(kRows, inj);
    ASSERT_EQ(inj.injected(), 1u) << ff::site_name(f.site);
    EXPECT_EQ(inj.events()[0].call_index, f.index) << ff::site_name(f.site);
    std::uint32_t bits = 0;
    std::memcpy(&bits, &inj.events()[0].before, sizeof(bits));
    EXPECT_EQ(bits, f.before_bits) << ff::site_name(f.site);
  }
}

TEST(Decode, CampaignReportsPinned) {
  // The block kernel's analogue of EftaFaultModes.CampaignReportsPinned: a
  // 64-row block at n = 200 (3 full tiles plus an 8-row tail) on a raw
  // contiguous slice and on a sealed kF16T pool slice, every report counter
  // recorded before the residue-class screens existed (the checksum bit-30
  // row since re-recorded: a c1 flip past 1e30 is a checksum repair, so
  // GEMM I mends the class and the EXP check flags nothing).  The checksum
  // flips land on entry 1 of tile 2's encode: tiles 0 and 1 each fire 2048
  // encode hooks and 64 x 48 per-row checksum hooks first.
  constexpr std::size_t kN = 200, kD = 64, kRows = 64;
  constexpr std::size_t kB = fc::KvSlice::kTileRows;
  ft::MatrixH K(kN, kD), V(kN, kD);
  ft::fill_normal(K, 91);
  ft::fill_normal(V, 92);
  std::vector<Half> q(kRows * kD);
  std::mt19937_64 rng(93);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  for (auto& v : q) v = Half(dist(rng));
  std::vector<const Half*> kt, vt;
  for (std::size_t r = 0; r < kN; r += kB) {
    kt.push_back(K.data() + r * kD);
    vt.push_back(V.data() + r * kD);
  }
  const fc::KvSlice raw{kt.data(), vt.data(), kN, kD};
  ftt::testing::PagedKv pool(1, kD, fc::TileFmt::kF16);
  pool.append({K.data(), kN * kD}, {V.data(), kN * kD}, kN);
  const fc::KvSlice f16t = pool.slice(0);

  const auto flips = campaign_flips({{ff::Site::kGemm1, 5003},
                                     {ff::Site::kExp, 7777},
                                     {ff::Site::kGemm2, 12485},
                                     {ff::Site::kChecksum, 10241}});
  // Rows: GEMM I, EXP, GEMM II, checksum; bits 30, 26, 3 within each.
  const Counters kRaw[] = {
      {2048, 1, 1, 0, 0, 0, 1600, 0, 0, 0, 0, 0, 512, 0, 0, 0, 0, 0, 0, 1},
      {2048, 1, 1, 0, 0, 0, 1600, 0, 0, 0, 0, 0, 512, 0, 0, 0, 0, 0, 0, 1},
      {2048, 0, 0, 0, 0, 0, 1600, 0, 0, 0, 0, 0, 512, 0, 0, 0, 0, 0, 0, 1},
      {2048, 0, 0, 0, 0, 0, 1594, 1, 0, 1, 0, 0, 512, 0, 0, 0, 0, 0, 0, 1},
      {2048, 0, 0, 0, 0, 0, 1594, 1, 0, 1, 0, 0, 512, 0, 0, 0, 0, 0, 0, 1},
      {2048, 0, 0, 0, 0, 0, 1600, 0, 0, 0, 0, 0, 512, 0, 0, 0, 0, 0, 0, 1},
      {2048, 0, 0, 0, 0, 0, 1600, 0, 0, 0, 0, 0, 512, 1, 1, 0, 0, 0, 0, 1},
      {2048, 0, 0, 0, 0, 0, 1600, 0, 0, 0, 0, 0, 512, 1, 1, 0, 0, 0, 0, 1},
      {2048, 0, 0, 0, 0, 0, 1600, 0, 0, 0, 0, 0, 512, 0, 0, 0, 0, 0, 0, 1},
      {2048, 64, 0, 0, 64, 0, 1600, 0, 0, 0, 0, 0, 512, 0, 0, 0, 0, 0, 0, 1},
      {2048, 13, 0, 0, 13, 0, 1558, 6, 0, 6, 0, 0, 512, 0, 0, 0, 0, 0, 0, 1},
      {2048, 0, 0, 0, 0, 0, 1600, 0, 0, 0, 0, 0, 512, 0, 0, 0, 0, 0, 0, 1},
  };
  const Counters kF16T[] = {
      {2048, 1, 1, 0, 0, 0, 1600, 0, 0, 0, 0, 0, 512, 0, 0, 0, 0, 0, 0, 1},
      {2048, 1, 1, 0, 0, 0, 1600, 0, 0, 0, 0, 0, 512, 0, 0, 0, 0, 0, 0, 1},
      {2048, 0, 0, 0, 0, 0, 1600, 0, 0, 0, 0, 0, 512, 0, 0, 0, 0, 0, 0, 1},
      {2048, 0, 0, 0, 0, 0, 1594, 1, 0, 1, 0, 0, 512, 0, 0, 0, 0, 0, 0, 1},
      {2048, 0, 0, 0, 0, 0, 1594, 1, 0, 1, 0, 0, 512, 0, 0, 0, 0, 0, 0, 1},
      {2048, 0, 0, 0, 0, 0, 1600, 0, 0, 0, 0, 0, 512, 0, 0, 0, 0, 0, 0, 1},
      {2048, 0, 0, 0, 0, 0, 1600, 0, 0, 0, 0, 0, 512, 1, 1, 0, 0, 0, 0, 1},
      {2048, 0, 0, 0, 0, 0, 1600, 0, 0, 0, 0, 0, 512, 1, 1, 0, 0, 0, 0, 1},
      {2048, 0, 0, 0, 0, 0, 1600, 0, 0, 0, 0, 0, 512, 0, 0, 0, 0, 0, 0, 1},
      {2048, 64, 0, 0, 64, 0, 1600, 0, 0, 0, 0, 0, 512, 0, 0, 0, 0, 0, 0, 1},
      {2048, 13, 0, 0, 13, 0, 1558, 6, 0, 6, 0, 0, 512, 0, 0, 0, 0, 0, 0, 1},
      {2048, 0, 0, 0, 0, 0, 1600, 0, 0, 0, 0, 0, 512, 0, 0, 0, 0, 0, 0, 1},
  };
  ASSERT_EQ(flips.size(), std::size(kRaw));
  for (const auto& [kv, pinned, name] :
       {std::tuple{raw, kRaw, "raw"}, std::tuple{f16t, kF16T, "kF16T"}}) {
    for (std::size_t i = 0; i < flips.size(); ++i) {
      auto inj = ff::FaultInjector::single(flips[i].site, flips[i].index,
                                           flips[i].bit);
      std::vector<float> out(kRows * kD);
      const auto rep = fc::efta_decode_block(
          fc::DecodeWorkItem{kv, q.data(), out.data(), kRows}, {}, &inj);
      EXPECT_EQ(counters(rep), pinned[i])
          << name << " " << ff::site_name(flips[i].site) << " bit "
          << flips[i].bit;
    }
  }
}
