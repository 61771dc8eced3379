// Memoized sealed-tile images (TilePool / EngineOptions::images): bit-parity
// between the two core::ImagePolicy settings and exact bytes accounting.
//
// An image is a pure cache — the K-side operands of a sealed tile, pre-
// transposed Half bits in decode order — so every observable output must be
// bit-identical under kNone and kF16T: per-slice decode, engine runs under
// prefix sharing, tight-pool eviction and preemption, and speculative decode
// with its KV rollbacks.  These tests run each of those workloads once per
// policy, differing only in the knob, and compare bitwise.  They also pin
// the memory story: every fp16 tile carries exactly one image block per
// head, and a kF16T sealed tile stays within 1.7x of the bare fp16 slab.

#include <gtest/gtest.h>

#include <cstddef>
#include <random>
#include <stdexcept>
#include <vector>

#include "abft/strided_abft.hpp"
#include "core/decode.hpp"
#include "paged_kv_fixture.hpp"
#include "serve/engine.hpp"
#include "serve/tile_pool.hpp"
#include "tensor/random.hpp"
#include "tensor/tensor.hpp"
#include "transformer/model.hpp"

namespace fc = ftt::core;
namespace fs = ftt::serve;
namespace ft = ftt::tensor;
namespace fx = ftt::transformer;
using ftt::numeric::Half;
using ftt::testing::fill_random;
using ftt::testing::PagedKv;

namespace {

constexpr std::size_t kHeads = 4, kDim = 64;
constexpr int kStride = ftt::abft::StridedAbft::kDefaultStride;

constexpr fc::ImagePolicy kPolicies[] = {fc::ImagePolicy::kNone,
                                         fc::ImagePolicy::kF16T};

std::vector<Half> random_halves(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<Half> v(n);
  for (auto& x : v) x = Half(dist(rng));
  return v;
}

/// One fp16 request's KV under image policy `images`.
PagedKv make_kv(fc::ImagePolicy images) {
  return PagedKv(kHeads, kDim, fc::TileFmt::kF16, images, kStride);
}

/// Decode one token over every head of `cache` and return the heads*dim
/// output block.
std::vector<float> decode_all_heads(const PagedKv& cache,
                                    const std::vector<Half>& query) {
  std::vector<float> out(kHeads * kDim, 0.0f);
  for (std::size_t h = 0; h < kHeads; ++h) {
    fc::efta_decode_block(fc::DecodeWorkItem{
        cache.slice(h), query.data() + h * kDim, out.data() + h * kDim});
  }
  return out;
}

fx::ModelConfig serving_config() {
  fx::ModelConfig cfg = fx::ModelConfig::tiny();
  cfg.causal = true;
  return cfg;
}

ft::MatrixF random_prompt(std::size_t seq, std::size_t hidden,
                          std::uint64_t seed) {
  ft::MatrixF m(seq, hidden);
  ft::fill_normal(m, seed);
  return m;
}

/// Near-100%-acceptance model for the speculative workload: constant
/// final-LN output makes the prompt-lookup drafter right almost always
/// (same construction as test_spec).
fx::Model constant_stream_model(std::uint64_t seed) {
  fx::Model model(serving_config(), seed);
  auto& gamma = model.final_ln().gamma();
  auto& beta = model.final_ln().beta();
  for (std::size_t c = 0; c < gamma.size(); ++c) {
    gamma[c] = 0.0f;
    beta[c] = 0.25f + 0.001f * static_cast<float>(c);
  }
  return model;
}

void expect_bitwise(const std::vector<float>& a, const std::vector<float>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " diverged at " << i;
  }
}

}  // namespace

TEST(ImagePolicy, DecodeBitParityAndSlicePointers) {
  PagedKv f16t = make_kv(fc::ImagePolicy::kF16T);
  PagedKv none = make_kv(fc::ImagePolicy::kNone);
  EXPECT_EQ(f16t.pool().images(), fc::ImagePolicy::kF16T);
  EXPECT_EQ(none.pool().images(), fc::ImagePolicy::kNone);

  // 150 tokens: two sealed tiles plus a 22-row ragged tail per head.
  fill_random(f16t, 150, 0x111);
  fill_random(none, 150, 0x111);

  for (std::size_t h = 0; h < kHeads; ++h) {
    const fc::KvSlice sh = f16t.slice(h), so = none.slice(h);
    ASSERT_NE(sh.f16t, nullptr);
    EXPECT_NE(sh.f16t[0], nullptr);  // sealed tiles carry images...
    EXPECT_NE(sh.f16t[1], nullptr);
    EXPECT_EQ(sh.f16t[2], nullptr);  // ...the open ragged tail does not
    for (std::size_t t = 0; t < so.tiles(); ++t) {
      EXPECT_EQ(so.f16t[t], nullptr) << t;  // no image under kNone
    }
  }

  const auto q = random_halves(kHeads * kDim, 0x222);
  expect_bitwise(decode_all_heads(f16t, q), decode_all_heads(none, q),
                 "kF16T vs kNone decode");
}

TEST(ImagePolicy, BytesAccountingCarriesOneImagePerTileAndHead) {
  PagedKv f16t = make_kv(fc::ImagePolicy::kF16T);
  PagedKv none = make_kv(fc::ImagePolicy::kNone);
  const std::size_t himg_bytes =
      fs::detail::f16t_image_halves(kDim, kStride) * sizeof(Half);
  // A kF16T image carries only the K-side operands, in Half.
  EXPECT_EQ(himg_bytes,
            (64 * kDim + 2 * static_cast<std::size_t>(kStride) * kDim) *
                sizeof(Half));

  // Every fp16 tile in the block table holds its image block (written when
  // the tile seals): 150 tokens span 3 tiles.
  fill_random(f16t, 150, 0x333);
  fill_random(none, 150, 0x333);
  EXPECT_EQ(f16t.pool().bytes_in_use(),
            none.pool().bytes_in_use() + 3 * kHeads * himg_bytes);

  // Extending across the next boundary seals tile 2 and opens tile 3:
  // accounting and decode parity move in step.
  fill_random(f16t, 60, 0x444);
  fill_random(none, 60, 0x444);
  EXPECT_EQ(f16t.pool().bytes_in_use(),
            none.pool().bytes_in_use() + 4 * kHeads * himg_bytes);
  const auto q = random_halves(kHeads * kDim, 0x555);
  expect_bitwise(decode_all_heads(f16t, q), decode_all_heads(none, q),
                 "decode after extension, kF16T");
}

TEST(ImagePolicy, TilePoolBytesAndDisableWithoutEncStride) {
  fs::TilePoolOptions opt;
  opt.layers = 2;
  opt.heads = 2;
  opt.dim = 64;
  opt.capacity_tiles = 4;
  opt.images = fc::ImagePolicy::kF16T;
  fs::TilePool f16t(opt);
  opt.images = fc::ImagePolicy::kNone;
  fs::TilePool none(opt);

  EXPECT_EQ(f16t.images(), fc::ImagePolicy::kF16T);
  const auto th = f16t.acquire();
  const auto to = none.acquire();
  ASSERT_NE(th, fs::TilePool::kNoTile);
  EXPECT_EQ(none.f16t_image(to, 0, 0), nullptr);
  // The f16t image adds only the K-side halves: the acceptance ceiling is
  // 1.7x the bare fp16 slab, and the exact ratio (1.5x) is fixed by the
  // layout.
  EXPECT_NE(f16t.f16t_image(th, 0, 0), nullptr);
  EXPECT_LE(f16t.bytes_in_use() * 10, none.bytes_in_use() * 17);
  EXPECT_EQ(f16t.tile_bytes(fc::TileFmt::kF16) * 2,
            none.tile_bytes(fc::TileFmt::kF16) * 3);

  // The image embeds the sealed checksum blocks, so it cannot exist without
  // the encoding memo: enc_stride <= 0 forces kNone.
  opt.images = fc::ImagePolicy::kF16T;
  opt.enc_stride = 0;
  fs::TilePool no_enc(opt);
  EXPECT_EQ(no_enc.images(), fc::ImagePolicy::kNone);
  EXPECT_EQ(no_enc.f16t_image(no_enc.acquire(), 0, 0), nullptr);
}

TEST(ImagePolicy, FlipF16tBitRejectsIndexPastTheImage) {
  // The scrubber's corruption hook must bounds-check like its slab and i8
  // siblings instead of writing past the image block.
  PagedKv kv = make_kv(fc::ImagePolicy::kF16T);
  fill_random(kv, 64, 0x666);  // one sealed tile
  fs::TilePool& pool = kv.pool();
  const auto id = kv.cache().block_table()[0];
  const std::size_t halves = fs::detail::f16t_image_halves(kDim, kStride);
  const Half before = pool.f16t_image(id, 0, 0)[halves - 1];
  fs::testing::flip_f16t_bit(pool, id, 0, 0, halves - 1, 3);  // last half
  EXPECT_NE(pool.f16t_image(id, 0, 0)[halves - 1].bits(), before.bits());
  EXPECT_THROW(fs::testing::flip_f16t_bit(pool, id, 0, 0, halves, 3),
               std::out_of_range);
}

TEST(ImagePolicy, EngineParityUnderSharingEvictionPreemption) {
  // The tile-pool stress workload — shared prompts over a pool tight
  // enough to force eviction and preemption — run once per image policy.
  // Every request's committed hidden state must match bitwise across both:
  // images die with the tiles they cache and are rebuilt on recompute,
  // never resurrected stale.
  const fx::Model model(serving_config(), 0x70013);
  const std::size_t hidden = model.config().hidden;
  const ft::MatrixF prompt_shared = random_prompt(130, hidden, 0xa);

  auto run = [&](fc::ImagePolicy images) {
    fs::EngineOptions opt;
    opt.images = images;
    opt.scheduler.max_batch_size = 3;
    opt.scheduler.max_kv_tiles = 7;  // tight: forces eviction + preemption
    fs::DecodeEngine engine(model, opt);
    std::vector<fs::DecodeEngine::RequestId> ids;
    for (std::size_t i = 0; i < 6; ++i) {
      const ft::MatrixF prompt = (i % 2 == 0)
                                     ? prompt_shared
                                     : random_prompt(40 + 23 * i, hidden,
                                                     0x900 + i);
      ids.push_back(engine.submit(prompt, /*max_new_tokens=*/3 + i % 3,
                                  static_cast<fs::Priority>(i % 2)));
    }
    engine.run_until_idle(nullptr, 4000);
    std::vector<std::vector<float>> h;
    for (const auto id : ids) {
      EXPECT_EQ(engine.state(id), fs::RequestState::kRetired);
      const auto s = engine.hidden(id);
      h.emplace_back(s.begin(), s.end());
    }
    return h;
  };

  const auto base = run(fc::ImagePolicy::kNone);
  const auto got = run(fc::ImagePolicy::kF16T);
  ASSERT_EQ(base.size(), got.size());
  for (std::size_t r = 0; r < base.size(); ++r) {
    expect_bitwise(base[r], got[r], "engine hidden state");
  }
}

TEST(ImagePolicy, SpeculativeRollbackParity) {
  // Speculative decode truncates open tiles on every rejected draft and
  // seals across tile boundaries on multi-token commits — both paths must
  // leave the image set exactly as a serial run would, for every policy.
  // Near-100% acceptance maximizes boundary-crossing commits.
  const fx::Model model = constant_stream_model(0xabc1);
  const std::size_t hidden = model.config().hidden;
  const ft::MatrixF prompt = random_prompt(52, hidden, 0xfeed1);

  auto run = [&](fc::ImagePolicy images, std::size_t spec_tokens) {
    fs::EngineOptions opt;
    opt.images = images;
    opt.spec_tokens = spec_tokens;
    fs::DecodeEngine engine(model, opt);
    const auto id = engine.submit(prompt, /*max_new_tokens=*/30);
    engine.run_until_idle(nullptr, 500);
    EXPECT_EQ(engine.state(id), fs::RequestState::kRetired);
    const auto s = engine.hidden(id);
    return std::vector<float>(s.begin(), s.end());
  };

  const auto serial = run(fc::ImagePolicy::kNone, 0);
  for (const fc::ImagePolicy p : kPolicies) {
    const auto spec = run(p, 4);
    expect_bitwise(spec, serial, "speculative vs serial hidden state");
  }
}
