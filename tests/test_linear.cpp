// Protected linear layers (feed-forward substrate).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "abft/strided_abft.hpp"
#include "sim/mma.hpp"
#include "tensor/random.hpp"
#include "transformer/layers.hpp"
#include "transformer/linear.hpp"

namespace fb = ftt::abft;
namespace ftx = ftt::transformer;
namespace ft = ftt::tensor;
namespace ff = ftt::fault;
namespace fs = ftt::sim;
using ftt::numeric::Half;

TEST(Linear, ShapeAndDeterminism) {
  ftx::Linear l(128, 256, 42);
  EXPECT_EQ(l.in_features(), 128u);
  EXPECT_EQ(l.out_features(), 256u);
  ftx::Linear l2(128, 256, 42);
  for (std::size_t i = 0; i < l.weight().size(); ++i) {
    EXPECT_EQ(l.weight().data()[i].bits(), l2.weight().data()[i].bits());
  }
}

TEST(Linear, RejectsMisalignedOut) {
  EXPECT_THROW(ftx::Linear(128, 100, 1), std::invalid_argument);
}

TEST(Linear, MatchesReference) {
  // weight() is the sealed k-major image W^T (in x out).
  ftx::Linear l(64, 64, 7);
  ft::MatrixF x(8, 64);
  ft::fill_normal(x, 8);
  ft::MatrixF y(8, 64);
  l.forward(x, y);
  // Reference: fp16-rounded x times fp16 weights, fp32 accumulate, + bias.
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 64; ++c) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < 64; ++k) {
        acc += ftt::numeric::round_to_half(x(r, k)) *
               l.weight()(k, c).to_float();
      }
      EXPECT_NEAR(y(r, c), acc, 0.1f) << r << "," << c;  // reference omits the bias
    }
  }
}

TEST(Linear, ProtectedEqualsUnprotectedCleanRun) {
  ftx::Linear l(128, 128, 9);
  ft::MatrixF x(16, 128);
  ft::fill_normal(x, 10);
  ft::MatrixF y0(16, 128), y1(16, 128);
  l.forward(x, y0, ftx::LinearProtect::kNone);
  const auto rep = l.forward(x, y1, ftx::LinearProtect::kStridedAbft);
  EXPECT_EQ(rep.flagged, 0u);
  EXPECT_LT(ft::max_abs_diff(y0, y1), 1e-6f);
}

TEST(Linear, CorrectsInjectedFault) {
  ftx::Linear l(128, 128, 11);
  ft::MatrixF x(16, 128);
  ft::fill_normal(x, 12);
  ft::MatrixF ref(16, 128), y(16, 128);
  l.forward(x, ref);
  auto inj = ff::FaultInjector::single(ff::Site::kLinear, 1000, 28);
  const auto rep = l.forward(x, y, ftx::LinearProtect::kStridedAbft, &inj);
  EXPECT_EQ(inj.injected(), 1u);
  EXPECT_EQ(rep.corrected, 1u);
  EXPECT_LT(ft::max_abs_diff(ref, y), 1e-2f);
}

TEST(Linear, UnprotectedFaultPropagates) {
  // Negative control: without ABFT the same flip visibly corrupts output.
  ftx::Linear l(128, 128, 13);
  ft::MatrixF x(16, 128);
  ft::fill_normal(x, 14);
  ft::MatrixF ref(16, 128), y(16, 128);
  l.forward(x, ref);
  auto inj = ff::FaultInjector::single(ff::Site::kLinear, 1000, 30);
  l.forward(x, y, ftx::LinearProtect::kNone, &inj);
  EXPECT_GT(ft::max_abs_diff(ref, y), 1.0f);
}

TEST(Linear, WideLayerProtection) {
  // FFN-shaped layer (wide output, multi-tile checksums).
  ftx::Linear l(64, 256, 15);
  ft::MatrixF x(8, 64);
  ft::fill_normal(x, 16);
  ft::MatrixF ref(8, 256), y(8, 256);
  l.forward(x, ref);
  auto inj = ff::FaultInjector::single(ff::Site::kLinear, 1777, 27);
  const auto rep = l.forward(x, y, ftx::LinearProtect::kStridedAbft, &inj);
  EXPECT_EQ(rep.corrected, 1u);
  EXPECT_LT(ft::max_abs_diff(ref, y), 1e-2f);
}

TEST(LinearCosts, ScaleWithShape) {
  ftx::Linear small(64, 64, 17), big(256, 256, 18);
  EXPECT_LT(small.costs(8).total().tc_flops, big.costs(8).total().tc_flops);
  EXPECT_LT(small.protection_costs(8).total().tc_flops,
            big.protection_costs(8).total().tc_flops);
  // Protection is a small fraction of the payload.
  EXPECT_LT(big.protection_costs(128).total().tc_flops,
            big.costs(128).total().tc_flops);
}

// ---------------------------------------------------------------------------
// Sealed-operand parity: the sealed Linear against the per-call strided ABFT
// rebuilt from the library's per-call primitives (gemm_fp16_nt,
// encode_rows_strided, verify_correct) — outputs bitwise, Reports and
// per-site hook counts equal, clean and under every injector kind.
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kTile = 64;
constexpr int kS = 8;

/// Re-widen, re-encode and verify on every call, firing the hooks in the
/// per-call order: payload outputs, then per tile c1's and c2's encode
/// (jc-major over k), then the tile's checksum GEMM outputs.
fb::Report reference_forward(const ftx::Linear& l, const ft::MatrixF& x,
                             ft::MatrixF& y, bool protect,
                             ff::FaultInjector* inj) {
  const std::size_t in = l.in_features(), out = l.out_features();
  const std::size_t M = x.rows();
  ft::MatrixH w(out, in);  // W (out x in) from the sealed W^T image
  for (std::size_t k = 0; k < in; ++k) {
    for (std::size_t n = 0; n < out; ++n) w(n, k) = l.weight()(k, n);
  }
  ft::MatrixH xh(M, in);
  for (std::size_t i = 0; i < x.size(); ++i) xh.data()[i] = Half(x.data()[i]);
  y = ft::MatrixF(M, out);
  fs::gemm_fp16_nt(xh, w, y);
  for (std::size_t i = 0; i < y.size(); ++i) {
    y.data()[i] = ff::corrupt(inj, ff::Site::kLinear, y.data()[i]);
  }
  fb::Report rep;
  for (std::size_t t = 0; protect && t < out / kTile; ++t) {
    ft::MatrixH bt(kTile, in);
    std::copy_n(w.data() + t * kTile * in, kTile * in, bt.data());
    const ft::MatrixH c1 =
        fb::StridedAbft::encode_rows_strided(bt, kS, false, inj);
    const ft::MatrixH c2 =
        fb::StridedAbft::encode_rows_strided(bt, kS, true, inj);
    ft::MatrixF chk1(M, kS), chk2(M, kS);
    fs::gemm_fp16_nt(xh, c1, chk1);
    fs::gemm_fp16_nt(xh, c2, chk2);
    for (std::size_t i = 0; i < M; ++i) {
      for (std::size_t j = 0; j < static_cast<std::size_t>(kS); ++j) {
        chk1(i, j) = ff::corrupt(inj, ff::Site::kChecksum, chk1(i, j));
        chk2(i, j) = ff::corrupt(inj, ff::Site::kChecksum, chk2(i, j));
      }
    }
    rep += fb::StridedAbft::verify_correct(y, chk1, chk2, kS, 0.02f,
                                           t * kTile, kTile);
  }
  const auto bias = l.bias();
  for (std::size_t r = 0; r < M && !bias.empty(); ++r) {
    for (std::size_t c = 0; c < out; ++c) y(r, c) += bias[c];
  }
  return rep;
}

bool bitwise_equal(const ft::MatrixF& a, const ft::MatrixF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

void expect_same_report(const fb::Report& a, const fb::Report& b,
                        const char* what) {
  EXPECT_EQ(a.checks, b.checks) << what;
  EXPECT_EQ(a.flagged, b.flagged) << what;
  EXPECT_EQ(a.corrected, b.corrected) << what;
  EXPECT_EQ(a.checksum_repairs, b.checksum_repairs) << what;
  EXPECT_EQ(a.uncorrectable, b.uncorrectable) << what;
}

void expect_same_calls(const ff::FaultInjector& a, const ff::FaultInjector& b,
                       const char* what) {
  for (std::size_t s = 0; s < ff::kSiteCount; ++s) {
    const auto site = static_cast<ff::Site>(s);
    EXPECT_EQ(a.calls(site), b.calls(site)) << what << " site " << s;
  }
  EXPECT_EQ(a.injected(), b.injected()) << what;
}

/// One forward through the sealed layer and one through the reference,
/// each under its own copy of `inj` (nullptr = clean), compared exactly.
void expect_parity(const ftx::Linear& l, const ft::MatrixF& x, bool protect,
                   const ff::FaultInjector* inj, const std::string& what) {
  ff::FaultInjector a = inj ? *inj : ff::FaultInjector();
  ff::FaultInjector b = a;
  ft::MatrixF ys, yr;
  const auto mode = protect ? ftx::LinearProtect::kStridedAbft
                            : ftx::LinearProtect::kNone;
  const fb::Report rs = l.forward(x, ys, mode, inj ? &a : nullptr);
  const fb::Report rr = reference_forward(l, x, yr, protect, inj ? &b : nullptr);
  EXPECT_TRUE(bitwise_equal(ys, yr)) << what;
  expect_same_report(rs, rr, what.c_str());
  expect_same_calls(a, b, what.c_str());
}

}  // namespace

TEST(SealedLinear, MatchesPerCallStridedAbftAcrossInjectors) {
  const std::size_t shapes[][2] = {{128, 128}, {128, 256}, {256, 128},
                                   {64, 192}};
  for (const auto& sh : shapes) {
    const ftx::Linear l(sh[0], sh[1], 100 + sh[0] + sh[1]);
    for (const std::size_t M : {0u, 1u, 5u, 64u, 130u}) {
      ft::MatrixF x(M, sh[0]);
      ft::fill_normal(x, 7 + M);
      for (const bool protect : {false, true}) {
        const std::string base = std::to_string(sh[0]) + "x" +
                                 std::to_string(sh[1]) + " M" +
                                 std::to_string(M) +
                                 (protect ? " protected" : " plain");
        expect_parity(l, x, protect, nullptr, base + " clean");
        ff::FaultInjector probe;
        expect_parity(l, x, protect, &probe, base + " probe");
        // Size the single-flip campaign from the probe's hook counts.
        ft::MatrixF y;
        l.forward(x, y,
                  protect ? ftx::LinearProtect::kStridedAbft
                          : ftx::LinearProtect::kNone,
                  &probe);
        for (const ff::Site site : {ff::Site::kLinear, ff::Site::kChecksum}) {
          const std::uint64_t n = probe.calls(site);
          for (std::uint64_t j = 0; n > 0 && j < 11; ++j) {
            const std::uint64_t idx = (n * j / 11 + j) % n;
            for (const unsigned bit : {30u, 27u, 3u, 31u}) {
              const auto inj = ff::FaultInjector::single(site, idx, bit);
              expect_parity(l, x, protect, &inj,
                            base + " single site " +
                                std::to_string(static_cast<int>(site)) +
                                " idx " + std::to_string(idx) + " bit " +
                                std::to_string(bit));
            }
          }
        }
        for (const double p : {1e-3, 1e-2}) {
          const auto inj = ff::FaultInjector::bernoulli(p, 99 + M);
          expect_parity(l, x, protect, &inj,
                        base + " bernoulli " + std::to_string(p));
        }
      }
    }
  }
}

TEST(SealedLinear, FeedForwardMatchesPerCallUnderBernoulli) {
  const ftx::FeedForward ffn(128, 512, 77);
  for (const std::size_t M : {0u, 1u, 5u, 64u, 130u}) {
    ft::MatrixF x(M, 128);
    ft::fill_normal(x, 300 + M);
    for (const bool protect : {false, true}) {
      auto a = ff::FaultInjector::bernoulli(1e-2, 11 + M);
      auto b = a;
      ft::MatrixF ys(M, 128);
      const auto res = ffn.forward(x, ys, protect, &a);
      // Reference: the same Linear -> GELU(+restriction) -> Linear chain
      // over the per-call strided ABFT.
      ft::MatrixF h, yr;
      fb::Report rr = reference_forward(ffn.w1(), x, h, protect, &b);
      ftx::RangeRestrictedGelu act = ffn.act();
      act.restrict_range = protect;
      const std::size_t clipped = act.forward(h, &b);
      rr += reference_forward(ffn.w2(), h, yr, protect, &b);
      const std::string what = "ffn M" + std::to_string(M);
      EXPECT_TRUE(bitwise_equal(ys, yr)) << what;
      EXPECT_EQ(res.activations_clipped, clipped) << what;
      expect_same_report(res.abft, rr, what.c_str());
      expect_same_calls(a, b, what.c_str());
    }
  }
}

TEST(SealedLinear, ProbeCallCountsPinned) {
  // An unarmed probe sees every hook the per-call encode fired: 5 x 256
  // payload outputs, and per 64-column tile 2 x 8 x 128 encode values plus
  // 2 x 5 x 8 checksum-GEMM outputs.  Campaign indices keep their meaning.
  const ftx::Linear l(128, 256, 31);
  ft::MatrixF x(5, 128);
  ft::fill_normal(x, 32);
  ft::MatrixF y;
  ff::FaultInjector probe;
  l.forward(x, y, ftx::LinearProtect::kStridedAbft, &probe);
  EXPECT_EQ(probe.calls(ff::Site::kLinear), 1280u);
  EXPECT_EQ(probe.calls(ff::Site::kChecksum), 8512u);
  ff::FaultInjector plain;
  l.forward(x, y, ftx::LinearProtect::kNone, &plain);
  EXPECT_EQ(plain.calls(ff::Site::kLinear), 1280u);
  EXPECT_EQ(plain.calls(ff::Site::kChecksum), 0u);
}
