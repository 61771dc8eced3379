#pragma once
// One request's K/V for kernel-level tests: a single-layer serve::TilePool
// plus the PagedKvCache that maps it — the same storage the serving engine
// decodes from, one layer deep, every fp16 tile's K^T plane included.
// The fixture owns both (pool first, so the cache releases its tiles
// before the pool dies) and is movable, so suites can keep a vector of
// them.
//
// The tile format is a required argument: PagedKvCache's own default
// follows the FTT_KV_QUANT environment toggle, and a suite that pins fp16
// bits must say so rather than inherit the int8 leg's default.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "abft/strided_abft.hpp"
#include "attention/ft_report.hpp"
#include "core/decode.hpp"
#include "numeric/fp16.hpp"
#include "serve/tile_pool.hpp"
#include "tensor/tensor.hpp"

namespace ftt::testing {

class PagedKv {
 public:
  PagedKv(std::size_t heads, std::size_t dim, core::TileFmt fmt,
          int enc_stride = abft::StridedAbft::kDefaultStride)
      : pool_(std::make_unique<serve::TilePool>(
            serve::TilePoolOptions{1, heads, dim, 0, enc_stride})),
        cache_(std::make_unique<serve::PagedKvCache>(*pool_, fmt)) {}

  /// Append `rows` tokens: stacked head-major rows of heads*dim halves each
  /// (the split-heads layout of a projected rows x hidden block).
  void append(std::span<const numeric::Half> k,
              std::span<const numeric::Half> v, std::size_t rows = 1) {
    if (!cache_->ensure_capacity(length() + rows)) {
      throw std::logic_error("PagedKv: unbounded pool refused a tile");
    }
    cache_->append_chunk(0, k, v, rows);
  }

  /// Tiled read view of one head.  Like any PagedKvCache slice, re-take it
  /// after an append: opening a tile can move the pointer arrays.
  [[nodiscard]] core::KvSlice slice(std::size_t head) const {
    return cache_->slice(0, head);
  }

  [[nodiscard]] std::size_t heads() const noexcept { return pool_->heads(); }
  [[nodiscard]] std::size_t dim() const noexcept { return pool_->dim(); }
  [[nodiscard]] std::size_t length() const noexcept {
    return cache_->length();
  }
  /// Tiles in the block table (the ragged open tail included).
  [[nodiscard]] std::size_t tiles() const noexcept {
    return cache_->block_table().size();
  }
  [[nodiscard]] serve::TilePool& pool() noexcept { return *pool_; }
  [[nodiscard]] serve::PagedKvCache& cache() noexcept { return *cache_; }

 private:
  std::unique_ptr<serve::TilePool> pool_;
  std::unique_ptr<serve::PagedKvCache> cache_;
};

/// Append `tokens` seeded-random N(0, 1) tokens one at a time, drawing each
/// token's k and v elements interleaved.
inline void fill_random(PagedKv& kv, std::size_t tokens, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  const std::size_t w = kv.heads() * kv.dim();
  std::vector<numeric::Half> k(w), v(w);
  for (std::size_t t = 0; t < tokens; ++t) {
    for (std::size_t i = 0; i < w; ++i) {
      k[i] = numeric::Half(dist(rng));
      v[i] = numeric::Half(dist(rng));
    }
    kv.append(k, v);
  }
}

/// The raw fp16 twin of a pool slice: its n logical rows as contiguous
/// n x d matrices, an fp16 tile's rows copied and a kI8 tile's dequantized
/// (q * scale has <= 7 significant bits, so narrowing to Half is exact).
/// Both formats store K k-major (K^T, d x 64), so K reads transposed.  The
/// contiguous efta_decode_step overload over the twin transposes and
/// encodes every tile per call.
inline std::pair<tensor::MatrixH, tensor::MatrixH> raw_twin(
    const core::KvSlice& s) {
  constexpr std::size_t kRows = core::KvSlice::kTileRows;
  tensor::MatrixH k(s.n, s.d), v(s.n, s.d);
  for (std::size_t r = 0; r < s.n; ++r) {
    const std::size_t t = r / kRows, row = r % kRows;
    const bool i8 = s.fmt != nullptr && s.fmt[t] == core::TileFmt::kI8;
    for (std::size_t c = 0; c < s.d; ++c) {
      // K is stored k-major (K^T, d x 64); V stays row-major.
      k(r, c) = i8 ? numeric::Half(static_cast<float>(
                                       s.k_i8[t][c * kRows + row]) *
                                   s.k_scale[t])
                   : s.f16t[t][c * kRows + row];
      v(r, c) = i8 ? numeric::Half(static_cast<float>(
                                       s.v_i8[t][row * s.d + c]) *
                                   s.v_scale[t])
                   : s.v_tiles[t][row * s.d + c];
    }
  }
  return {std::move(k), std::move(v)};
}

/// Two reports agree in every counter.
inline void expect_same_report(const attention::FtReport& a,
                               const attention::FtReport& b,
                               const char* what) {
  const auto same = [what](const abft::Report& x, const abft::Report& y,
                           const char* site) {
    EXPECT_EQ(x.checks, y.checks) << what << ": " << site;
    EXPECT_EQ(x.flagged, y.flagged) << what << ": " << site;
    EXPECT_EQ(x.corrected, y.corrected) << what << ": " << site;
    EXPECT_EQ(x.recomputed, y.recomputed) << what << ": " << site;
    EXPECT_EQ(x.checksum_repairs, y.checksum_repairs) << what << ": " << site;
    EXPECT_EQ(x.uncorrectable, y.uncorrectable) << what << ": " << site;
    EXPECT_EQ(x.range_violations, y.range_violations) << what << ": " << site;
  };
  same(a.gemm1, b.gemm1, "gemm1");
  same(a.exp_check, b.exp_check, "exp_check");
  same(a.gemm2, b.gemm2, "gemm2");
  EXPECT_EQ(a.dmr_recomputes, b.dmr_recomputes) << what;
  EXPECT_EQ(a.range_corrections, b.range_corrections) << what;
  EXPECT_EQ(a.faults_injected, b.faults_injected) << what;
}

}  // namespace ftt::testing
