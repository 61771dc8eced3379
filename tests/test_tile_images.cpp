// Sealed-tile images (TilePool, the kF16T layout): slice pointers, exact
// bytes accounting and the scrubber's image corruption hook.
//
// Every sealed fp16 tile carries one K^T image per head — its K rows in
// score-GEMM order, a pure bit transpose — so these tests pin where images
// exist (sealed tiles, never the open tail), what they cost (one 64 x dim
// image per tile and head, exactly 1.4x the bare fp16 slab at dim 64,
// stride 8), and that the corruption hook stays inside the image.  Decode
// over the image equals transposing and encoding the tile per call bit for
// bit: test_serve's Serve.MemoizedEncodingsBitIdenticalToFreshEncode and
// Serve.InjectedStepKeepsSealedTiers pin that.

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>

#include "abft/strided_abft.hpp"
#include "core/decode.hpp"
#include "paged_kv_fixture.hpp"
#include "serve/tile_pool.hpp"

namespace fc = ftt::core;
namespace fs = ftt::serve;
using ftt::numeric::Half;
using ftt::testing::fill_random;
using ftt::testing::PagedKv;

namespace {

constexpr std::size_t kHeads = 4, kDim = 64;
constexpr int kStride = ftt::abft::StridedAbft::kDefaultStride;

/// One fp16 request's KV.
PagedKv make_kv() {
  return PagedKv(kHeads, kDim, fc::TileFmt::kF16, kStride);
}

}  // namespace

TEST(ImagePolicy, BytesAccountingCarriesOneImagePerTileAndHead) {
  PagedKv kv = make_kv();
  const fs::TilePool& pool = kv.pool();
  const std::size_t himg_bytes = 64 * kDim * sizeof(Half);
  const std::size_t slab_bytes = pool.slab_halves() * sizeof(Half);
  // A kF16T image carries K^T alone, in Half — the checksum block is
  // already k-major in the slab — so it adds exactly 0.4x the fp16 slab,
  // under the 1.45x acceptance ceiling.
  EXPECT_EQ(pool.tile_bytes(fc::TileFmt::kF16),
            slab_bytes + kHeads * himg_bytes);
  EXPECT_EQ(pool.tile_bytes(fc::TileFmt::kF16) * 5, slab_bytes * 7);

  // 150 tokens: two sealed tiles plus a 22-row ragged tail per head.  Every
  // fp16 tile in the block table holds its image block (written when the
  // tile seals), but only sealed tiles expose it to decode.
  fill_random(kv, 150, 0x333);
  EXPECT_EQ(pool.bytes_in_use(), 3 * pool.tile_bytes(fc::TileFmt::kF16));
  for (std::size_t h = 0; h < kHeads; ++h) {
    const fc::KvSlice sl = kv.slice(h);
    ASSERT_NE(sl.f16t, nullptr);
    EXPECT_NE(sl.f16t[0], nullptr);
    EXPECT_NE(sl.f16t[1], nullptr);
    EXPECT_EQ(sl.f16t[2], nullptr);  // the open ragged tail has none yet
  }

  // Extending across the next boundary seals tile 2 and opens tile 3.
  fill_random(kv, 60, 0x444);
  EXPECT_EQ(pool.bytes_in_use(), 4 * pool.tile_bytes(fc::TileFmt::kF16));
  EXPECT_NE(kv.slice(0).f16t[2], nullptr);
  EXPECT_EQ(kv.slice(0).f16t[3], nullptr);
}

TEST(ImagePolicy, FlipF16tBitRejectsIndexPastTheImage) {
  // The scrubber's corruption hook must bounds-check like its slab and i8
  // siblings instead of writing past the image block.
  PagedKv kv = make_kv();
  fill_random(kv, 64, 0x666);  // one sealed tile
  fs::TilePool& pool = kv.pool();
  const auto id = kv.cache().block_table()[0];
  const std::size_t halves = 64 * kDim;  // K^T
  const Half before = pool.f16t_image(id, 0, 0)[halves - 1];
  fs::testing::flip_f16t_bit(pool, id, 0, 0, halves - 1, 3);  // last half
  EXPECT_NE(pool.f16t_image(id, 0, 0)[halves - 1].bits(), before.bits());
  EXPECT_THROW(fs::testing::flip_f16t_bit(pool, id, 0, 0, halves, 3),
               std::out_of_range);
}
