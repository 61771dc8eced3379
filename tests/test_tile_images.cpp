// The kF16T layout (TilePool): an fp16 tile stores K once, as its K^T
// plane, so these tests pin what that costs (nothing beyond the bare slab:
// 20,480 B per (layer, head) block at dim 64, stride 8) and where it is
// exposed (every fp16 tile of a slice, the open ragged tail included, with
// no row-major K beside it).  Decode over the plane equals transposing and
// encoding the tile per call bit for bit: test_serve's
// Serve.MemoizedEncodingsBitIdenticalToFreshEncode and
// Serve.InjectedStepKeepsSealedTiers pin that, and test_spec's
// PagedKvTruncate.DeferredSealCommitAndRollback pins the open tail's plane
// through chunks, single rows and rollbacks.

#include <gtest/gtest.h>

#include <cstddef>

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

TEST(ImagePolicy, KtPlaneAddsNoBytesAndServesEveryTile) {
  PagedKv kv = make_kv();
  const fs::TilePool& pool = kv.pool();
  // A sealed fp16 tile is its bare slab — K^T, V and the checksum block,
  // 20,480 B per (layer, head) at dim 64, stride 8 — with no second copy
  // of K.
  const std::size_t slab_bytes = pool.slab_halves() * sizeof(Half);
  EXPECT_EQ(slab_bytes, kHeads * 20480u);
  EXPECT_EQ(pool.tile_bytes(fc::TileFmt::kF16), slab_bytes);

  // 150 tokens: two sealed tiles plus a 22-row ragged tail per head.  Every
  // tile, the open tail included, exposes its K^T plane, and none a
  // row-major K.
  fill_random(kv, 150, 0x333);
  EXPECT_EQ(pool.bytes_in_use(), 3 * pool.tile_bytes(fc::TileFmt::kF16));
  for (std::size_t h = 0; h < kHeads; ++h) {
    const fc::KvSlice sl = kv.slice(h);
    EXPECT_EQ(sl.k_tiles, nullptr);
    ASSERT_NE(sl.f16t, nullptr);
    for (std::size_t t = 0; t < 3; ++t) EXPECT_NE(sl.f16t[t], nullptr) << t;
  }

  // Extending across the next boundary seals tile 2 and opens tile 3, whose
  // plane is exposed from its first row on.
  fill_random(kv, 60, 0x444);
  EXPECT_EQ(pool.bytes_in_use(), 4 * pool.tile_bytes(fc::TileFmt::kF16));
  EXPECT_NE(kv.slice(0).f16t[2], nullptr);
  EXPECT_NE(kv.slice(0).f16t[3], nullptr);
}
