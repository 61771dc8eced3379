#include "serve/kv_cache.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <stdexcept>

#include "abft/int8_checksums.hpp"
#include "numeric/gemm_simd.hpp"
#include "numeric/int8_simd.hpp"
#include "tensor/tensor.hpp"

namespace ftt::serve {

using numeric::Half;
using tensor::MatrixH;
using tensor::MatrixHView;

namespace detail {

void encode_sealed_tile(const Half* k_tile, const Half* v_tile,
                        std::size_t dim, int s, Half* out) {
  constexpr std::size_t kRows = KvCache::kTileRows;
  const auto su = static_cast<std::size_t>(s);
  const std::size_t kcn = su * dim;     // one K row-checksum block
  const std::size_t vcn = kRows * su;   // one V column-checksum block
  // Single-pass seal: the fp16-operand encoders widen 8 lanes at a time in
  // register, so the 2x fp32 staging copies the old path materialised are
  // gone.  Bit-identical: fp16 -> fp32 widening is exact and the per-class
  // accumulation order (ascending l) is unchanged.
  const MatrixH kc1 = abft::StridedAbft::encode_rows_strided_h(
      k_tile, kRows, dim, s, false, nullptr);
  const MatrixH kc2 = abft::StridedAbft::encode_rows_strided_h(
      k_tile, kRows, dim, s, true, nullptr);
  const MatrixH vc1 = abft::StridedAbft::encode_cols_strided_h(
      v_tile, kRows, dim, s, false, nullptr);
  const MatrixH vc2 = abft::StridedAbft::encode_cols_strided_h(
      v_tile, kRows, dim, s, true, nullptr);
  std::memcpy(out, kc1.data(), kcn * sizeof(Half));
  std::memcpy(out + kcn, kc2.data(), kcn * sizeof(Half));
  std::memcpy(out + 2 * kcn, vc1.data(), vcn * sizeof(Half));
  std::memcpy(out + 2 * kcn + vcn, vc2.data(), vcn * sizeof(Half));
}

std::size_t f32_image_floats(std::size_t dim, int s) noexcept {
  constexpr std::size_t kRows = KvCache::kTileRows;
  const auto su = static_cast<std::size_t>(s);
  return 2 * kRows * dim + 2 * su * dim + 2 * kRows * su;
}

void widen_sealed_tile(const Half* k_tile, const Half* v_tile,
                       const Half* enc_block, std::size_t dim, int s,
                       float* out) {
  constexpr std::size_t kRows = KvCache::kTileRows;
  const auto su = static_cast<std::size_t>(s);
  const std::size_t kcn = su * dim;
  const std::size_t vcn = kRows * su;
  // Scratch for the blocks that need a transpose after widening (K-side
  // operands go k-major so the decode GEMMs read them with zero packing).
  std::vector<float> tmp(kRows * dim);
  float* kt = out;                       // K^T, dim x kRows
  float* v = out + dim * kRows;          // V,   kRows x dim
  float* kc1t = v + kRows * dim;         // Kc1^T, dim x su
  float* kc2t = kc1t + dim * su;         // Kc2^T, dim x su
  float* vc1 = kc2t + dim * su;          // Vc1, kRows x su
  float* vc2 = vc1 + kRows * su;         // Vc2, kRows x su
  numeric::halves_to_floats(k_tile, tmp.data(), kRows * dim);
  numeric::transpose_f32(tmp.data(), kRows, dim, kt);
  numeric::halves_to_floats(v_tile, v, kRows * dim);
  numeric::halves_to_floats(enc_block, tmp.data(), kcn);
  numeric::transpose_f32(tmp.data(), su, dim, kc1t);
  numeric::halves_to_floats(enc_block + kcn, tmp.data(), kcn);
  numeric::transpose_f32(tmp.data(), su, dim, kc2t);
  numeric::halves_to_floats(enc_block + 2 * kcn, vc1, vcn);
  numeric::halves_to_floats(enc_block + 2 * kcn + vcn, vc2, vcn);
}

I8TileLayout i8_tile_layout(std::size_t dim, int s) noexcept {
  constexpr std::size_t kRows = KvCache::kTileRows;
  const auto su = static_cast<std::size_t>(s);
  I8TileLayout L;
  L.dim = dim;
  L.s = su;
  L.payload = kRows * dim;
  L.kcn = su * dim;        // henc K block: s x dim logical, stored dim x s
  L.kcni = su * kRows;     // ienc K block: row encode of the stored K^T
  L.vcn = kRows * su;
  const std::size_t ienc_n = 2 * L.kcni + 2 * L.vcn;
  const std::size_t henc_n = 2 * L.kcn + 2 * L.vcn;
  L.scale_off = 0;
  L.ienc_off = L.scale_off + 6 * sizeof(float);
  L.k_off = L.ienc_off + ienc_n * sizeof(std::int32_t);
  L.v_off = L.k_off + L.payload;
  L.henc_off = L.v_off + L.payload;  // even: payload offsets differ by 2*64*dim
  L.bytes = (L.henc_off + henc_n * sizeof(numeric::Half) + 3) & ~std::size_t{3};
  return L;
}

std::size_t f16t_image_halves(std::size_t dim, int s) noexcept {
  constexpr std::size_t kRows = KvCache::kTileRows;
  const auto su = static_cast<std::size_t>(s);
  return kRows * dim + 2 * su * dim;
}

void build_f16t_image(const Half* k_tile, const Half* enc_block,
                      std::size_t dim, int s, Half* out) {
  constexpr std::size_t kRows = KvCache::kTileRows;
  const auto su = static_cast<std::size_t>(s);
  const std::size_t kcn = su * dim;
  // Pure Half-bit transposes: the stored K rows land k-major for the fused
  // score GEMM, the sealed K checksum blocks land k-major for the checksum
  // GEMMs.  No arithmetic, so the image carries exactly the slab's bits.
  Half* kt = out;                 // K^T, dim x kRows
  Half* kc1t = out + dim * kRows; // Kc1^T, dim x su
  Half* kc2t = kc1t + dim * su;   // Kc2^T, dim x su
  numeric::transpose_h(k_tile, kRows, dim, kt);
  numeric::transpose_h(enc_block, su, dim, kc1t);
  numeric::transpose_h(enc_block + kcn, su, dim, kc2t);
}

void quantize_sealed_tile(const Half* k_tile, const Half* v_tile,
                          std::size_t dim, int s, std::uint8_t* block) {
  constexpr std::size_t kRows = KvCache::kTileRows;
  const I8TileLayout L = i8_tile_layout(dim, s);
  const std::size_t n = kRows * dim;
  std::vector<float> kf(n), vf(n), ktf(n);
  tensor::widen(MatrixHView{k_tile, kRows, dim, dim}, kf.data());
  tensor::widen(MatrixHView{v_tile, kRows, dim, dim}, vf.data());
  const numeric::I8Scale ks = numeric::choose_i8_scale(
      numeric::amax_f32(kf.data(), n));
  const numeric::I8Scale vs = numeric::choose_i8_scale(
      numeric::amax_f32(vf.data(), n));
  // K quantizes through its k-major (transposed) image: the stored payload
  // is K^T, the layout the fused score GEMM streams directly.  V stays
  // row-major for GEMM II's axpy.
  std::int8_t* kq = i8_k(block, L);
  std::int8_t* vq = i8_v(block, L);
  numeric::transpose_f32(kf.data(), kRows, dim, ktf.data());
  numeric::quantize_f32_to_i8(ktf.data(), kq, n, ks.inv_scale);
  numeric::quantize_f32_to_i8(vf.data(), vq, n, vs.inv_scale);
  // The exactly-dequantized image — the fp32 operands every decode call
  // over this tile will reconstruct (scale is a power of two: exponent
  // shift only, no rounding).  kf is rebuilt row-major (logical K) for the
  // encoders below.
  numeric::dequantize_i8_to_f32(kq, ktf.data(), n, ks.scale);
  numeric::transpose_f32(ktf.data(), dim, kRows, kf.data());
  numeric::dequantize_i8_to_f32(vq, vf.data(), n, vs.scale);
  // Half encodings of that image: bit-equal to the fresh per-call encode,
  // so the decode kernel's memo path and injector-forced fresh path agree
  // bit for bit, exactly as they do for fp16 tiles.  The K-side blocks are
  // stored transposed (dim x s) like the fp32 image's Kc^T blocks.
  const MatrixH kc1 = abft::StridedAbft::encode_rows_strided_widened(
      kf.data(), kRows, dim, s, false, nullptr);
  const MatrixH kc2 = abft::StridedAbft::encode_rows_strided_widened(
      kf.data(), kRows, dim, s, true, nullptr);
  const MatrixH vc1 = abft::StridedAbft::encode_cols_strided_widened(
      vf.data(), kRows, dim, s, false, nullptr);
  const MatrixH vc2 = abft::StridedAbft::encode_cols_strided_widened(
      vf.data(), kRows, dim, s, true, nullptr);
  Half* he = i8_henc(block, L);
  const auto su = static_cast<std::size_t>(s);
  numeric::transpose_h(kc1.data(), su, dim, he);
  numeric::transpose_h(kc2.data(), su, dim, he + L.kcn);
  std::memcpy(he + 2 * L.kcn, vc1.data(), L.vcn * sizeof(Half));
  std::memcpy(he + 2 * L.kcn + L.vcn, vc2.data(), L.vcn * sizeof(Half));
  // Exact int32 checksums of the payload *as stored* (K's run over the
  // k-major array) — the at-rest redundancy the scrubber verifies by
  // equality.
  std::int32_t* ie = i8_ienc(block, L);
  abft::encode_rows_i8(kq, dim, kRows, s, false, ie);
  abft::encode_rows_i8(kq, dim, kRows, s, true, ie + L.kcni);
  abft::encode_cols_i8(vq, kRows, dim, s, false, ie + 2 * L.kcni);
  abft::encode_cols_i8(vq, kRows, dim, s, true, ie + 2 * L.kcni + L.vcn);
  float* sc = i8_scales(block, L);
  sc[0] = sc[1] = sc[2] = ks.scale;
  sc[3] = sc[4] = sc[5] = vs.scale;
}

namespace {

// Bitwise 2-of-3 majority vote over one operand's TMR scale copies.
// Returns false on a three-way disagreement (>= 2 scale faults).
bool vote_scale(float* sc, bool& repaired) noexcept {
  std::uint32_t b[3];
  std::memcpy(&b[0], &sc[0], sizeof(float));
  std::memcpy(&b[1], &sc[1], sizeof(float));
  std::memcpy(&b[2], &sc[2], sizeof(float));
  std::uint32_t win;
  if (b[0] == b[1] || b[0] == b[2]) {
    win = b[0];
  } else if (b[1] == b[2]) {
    win = b[1];
  } else {
    return false;
  }
  for (int i = 0; i < 3; ++i) {
    if (b[i] != win) {
      std::memcpy(&sc[i], &win, sizeof(float));
      repaired = true;
    }
  }
  return true;
}

}  // namespace

I8ScrubResult scrub_i8_tile(std::uint8_t* block, std::size_t dim, int s) {
  constexpr std::size_t kRows = KvCache::kTileRows;
  const I8TileLayout L = i8_tile_layout(dim, s);
  bool repaired = false;
  // 1. Scales first: everything downstream (the Half-encoding recompute)
  //    reads them, and they sit outside both checksum families.
  float* sc = i8_scales(block, L);
  if (!vote_scale(sc, repaired) || !vote_scale(sc + 3, repaired)) {
    return I8ScrubResult::kUnrepairable;
  }
  // 2. Exact integer verify/correct of both payloads against the int32
  //    encodings — equality, zero threshold, exact single-fault repair.
  std::int8_t* kq = i8_k(block, L);
  std::int8_t* vq = i8_v(block, L);
  std::int32_t* ie = i8_ienc(block, L);
  const abft::I8VerifyReport kr = abft::verify_correct_rows_i8(
      kq, dim, kRows, s, ie, ie + L.kcni);
  const abft::I8VerifyReport vr = abft::verify_correct_cols_i8(
      vq, kRows, dim, s, ie + 2 * L.kcni, ie + 2 * L.kcni + L.vcn);
  if (kr.unrepairable || vr.unrepairable) return I8ScrubResult::kUnrepairable;
  repaired = repaired || !kr.clean() || !vr.clean();
  // 3. The Half encodings are derived state: recompute them from the (now
  //    verified) payload and scales, and rewrite on any mismatch — this
  //    catches flips in the henc region itself and completes payload/scale
  //    repairs in one pass.  The stored K payload is k-major, so it
  //    transposes back to logical rows for the encoders, and the fresh
  //    K-side blocks transpose into the stored (dim x s) orientation.
  const std::size_t n = kRows * dim;
  const auto su = static_cast<std::size_t>(s);
  std::vector<float> kf(n), vf(n), ktf(n);
  numeric::dequantize_i8_to_f32(kq, ktf.data(), n, sc[0]);
  numeric::transpose_f32(ktf.data(), dim, kRows, kf.data());
  numeric::dequantize_i8_to_f32(vq, vf.data(), n, sc[3]);
  const MatrixH kc1 = abft::StridedAbft::encode_rows_strided_widened(
      kf.data(), kRows, dim, s, false, nullptr);
  const MatrixH kc2 = abft::StridedAbft::encode_rows_strided_widened(
      kf.data(), kRows, dim, s, true, nullptr);
  const MatrixH vc1 = abft::StridedAbft::encode_cols_strided_widened(
      vf.data(), kRows, dim, s, false, nullptr);
  const MatrixH vc2 = abft::StridedAbft::encode_cols_strided_widened(
      vf.data(), kRows, dim, s, true, nullptr);
  std::vector<Half> fresh(2 * L.kcn + 2 * L.vcn);
  numeric::transpose_h(kc1.data(), su, dim, fresh.data());
  numeric::transpose_h(kc2.data(), su, dim, fresh.data() + L.kcn);
  std::memcpy(fresh.data() + 2 * L.kcn, vc1.data(), L.vcn * sizeof(Half));
  std::memcpy(fresh.data() + 2 * L.kcn + L.vcn, vc2.data(),
              L.vcn * sizeof(Half));
  Half* he = i8_henc(block, L);
  if (std::memcmp(fresh.data(), he, fresh.size() * sizeof(Half)) != 0) {
    std::memcpy(he, fresh.data(), fresh.size() * sizeof(Half));
    repaired = true;
  }
  return repaired ? I8ScrubResult::kRepaired : I8ScrubResult::kClean;
}

}  // namespace detail

namespace testing {

std::size_t& seal_alloc_failures() noexcept {
  thread_local std::size_t count = 0;
  return count;
}

}  // namespace testing

KvCache::KvCache(std::size_t heads, std::size_t dim, int enc_stride,
                 core::ImagePolicy images, bool kv_quant)
    : heads_(heads), dim_(dim), enc_stride_(enc_stride),
      images_(images), kv_quant_(kv_quant), store_(heads) {
  if (heads == 0 || dim == 0) {
    throw std::invalid_argument("KvCache: heads and dim must be positive");
  }
  if (images != core::ImagePolicy::kNone && kv_quant) {
    // An image is the fp16 fast path (it memoizes the fp16 tile in decode
    // operand order); a quantized tile decodes from its own payload + Half
    // encodings, so the combination would be silently meaningless — reject.
    throw std::invalid_argument(
        "KvCache: kv_quant and a sealed-tile image policy are mutually "
        "exclusive");
  }
  // A stride that cannot tile the checksum footprint (or an explicit <= 0)
  // disables memoization rather than rejecting the cache: the kernel then
  // encodes fresh per call, exactly the pre-memo behavior.
  if (enc_stride <= 0 ||
      kTileRows % static_cast<std::size_t>(enc_stride) != 0 ||
      dim % static_cast<std::size_t>(enc_stride) != 0) {
    enc_stride_ = 0;
    // Both image layouts embed the sealed checksum blocks, so they require
    // the encoding memo.
    images_ = core::ImagePolicy::kNone;
    // So does the int8 tile format (its checksum shapes are the stride's).
    kv_quant_ = false;
  }
}

std::size_t KvCache::tiles() const noexcept {
  return (len_ + kTileRows - 1) / kTileRows;
}

std::size_t KvCache::bytes() const noexcept {
  const auto su = static_cast<std::size_t>(enc_stride_);
  const std::size_t tile_pair = kTileRows * dim_ * 2;
  const std::size_t enc_block = 2 * su * dim_ + 2 * kTileRows * su;
  std::size_t b = (tiles() * tile_pair * heads_ +
                   enc_blocks_sealed_ * enc_block) *
                  sizeof(Half);
  if (images_ == core::ImagePolicy::kF32) {
    b += f32_blocks_sealed_ * detail::f32_image_floats(dim_, enc_stride_) *
         sizeof(float);
  } else if (images_ == core::ImagePolicy::kF16T) {
    b += f16t_blocks_sealed_ * detail::f16t_image_halves(dim_, enc_stride_) *
         sizeof(Half);
  }
  if (kv_quant_) {
    b += i8_blocks_sealed_ * detail::i8_tile_layout(dim_, enc_stride_).bytes;
  }
  return b;
}

void KvCache::open_tiles(std::size_t count) {
  if (count == 0) return;
  // Two-phase tile open so a mid-loop allocation failure cannot leave
  // heads with mismatched tile counts: allocate and reserve first (which
  // may throw but mutates nothing logical), then commit with noexcept
  // moves only.
  std::vector<std::unique_ptr<Half[]>> fresh_k(heads_ * count),
      fresh_v(heads_ * count);
  for (std::size_t i = 0; i < heads_ * count; ++i) {
    // make_unique value-initializes: fresh tiles are all-zero halves, the
    // padding the decode kernel's ragged-tail checksums assume.
    fresh_k[i] = std::make_unique<Half[]>(kTileRows * dim_);
    fresh_v[i] = std::make_unique<Half[]>(kTileRows * dim_);
  }
  // Geometric reservation (reserve(n+count) would pin capacity to exact fit
  // and reallocate on every tile open); push_back below cannot throw once
  // capacity is in place.
  const auto grow = [count](auto& vec) {
    if (vec.size() + count > vec.capacity()) {
      vec.reserve(std::max<std::size_t>({4, vec.capacity() * 2,
                                         vec.size() + count}));
    }
  };
  for (HeadStore& hs : store_) {
    grow(hs.k_tiles);
    grow(hs.v_tiles);
    grow(hs.k_ptrs);
    grow(hs.v_ptrs);
    grow(hs.enc_blocks);
    grow(hs.kc1_ptrs);
    grow(hs.kc2_ptrs);
    grow(hs.vc1_ptrs);
    grow(hs.vc2_ptrs);
    if (images_ == core::ImagePolicy::kF32) {
      grow(hs.img_blocks);
      grow(hs.img_ptrs);
    } else if (images_ == core::ImagePolicy::kF16T) {
      grow(hs.himg_blocks);
      grow(hs.himg_ptrs);
    }
    if (kv_quant_) {
      grow(hs.q_blocks);
      grow(hs.kq_ptrs);
      grow(hs.vq_ptrs);
      grow(hs.k_scales);
      grow(hs.v_scales);
    }
  }
  if (kv_quant_ && fmt_.size() + count > fmt_.capacity()) {
    fmt_.reserve(std::max<std::size_t>({4, fmt_.capacity() * 2,
                                        fmt_.size() + count}));
  }
  for (std::size_t t = 0; t < count; ++t) {
    for (std::size_t h = 0; h < heads_; ++h) {
      HeadStore& hs = store_[h];
      hs.k_tiles.push_back(std::move(fresh_k[t * heads_ + h]));
      hs.v_tiles.push_back(std::move(fresh_v[t * heads_ + h]));
      hs.k_ptrs.push_back(hs.k_tiles.back().get());
      hs.v_ptrs.push_back(hs.v_tiles.back().get());
      hs.enc_blocks.push_back(nullptr);  // sealed later, when the tile fills
      hs.kc1_ptrs.push_back(nullptr);
      hs.kc2_ptrs.push_back(nullptr);
      hs.vc1_ptrs.push_back(nullptr);
      hs.vc2_ptrs.push_back(nullptr);
      if (images_ == core::ImagePolicy::kF32) {
        hs.img_blocks.push_back(nullptr);
        hs.img_ptrs.push_back(nullptr);
      } else if (images_ == core::ImagePolicy::kF16T) {
        hs.himg_blocks.push_back(nullptr);
        hs.himg_ptrs.push_back(nullptr);
      }
      if (kv_quant_) {
        hs.q_blocks.push_back(nullptr);
        hs.kq_ptrs.push_back(nullptr);
        hs.vq_ptrs.push_back(nullptr);
        hs.k_scales.push_back(0.0f);
        hs.v_scales.push_back(0.0f);
      }
    }
    if (kv_quant_) fmt_.push_back(core::TileFmt::kF16);
  }
}

void KvCache::seal_tiles(std::size_t first, std::size_t count) {
  if (enc_stride_ == 0) return;  // memoization disabled
  const auto su = static_cast<std::size_t>(enc_stride_);
  const std::size_t kcn = su * dim_;        // one K row-checksum block
  const std::size_t vcn = kTileRows * su;   // one V column-checksum block
  if (kv_quant_) {
    const detail::I8TileLayout L = detail::i8_tile_layout(dim_, enc_stride_);
    for (std::size_t t = first; t < first + count; ++t) {
      // Quantize every head first, commit after: a mid-tile bad_alloc must
      // leave the whole tile fp16 (a tile half-flipped to kI8 would pair
      // dequantized-payload encodings with the fp16 payload and trip the
      // decode-time ABFT on clean data).
      std::vector<std::unique_ptr<std::uint8_t[]>> blocks(heads_);
      for (std::size_t h = 0; h < heads_; ++h) {
        if (testing::seal_alloc_failures() > 0) {
          --testing::seal_alloc_failures();
          throw std::bad_alloc();
        }
        blocks[h] = std::make_unique<std::uint8_t[]>(L.bytes);
        detail::quantize_sealed_tile(store_[h].k_tiles[t].get(),
                                     store_[h].v_tiles[t].get(), dim_,
                                     enc_stride_, blocks[h].get());
      }
      for (std::size_t h = 0; h < heads_; ++h) {
        HeadStore& hs = store_[h];
        const std::uint8_t* b = blocks[h].get();
        const Half* he = detail::i8_henc(b, L);
        hs.kc1_ptrs[t] = he;
        hs.kc2_ptrs[t] = he + kcn;
        hs.vc1_ptrs[t] = he + 2 * kcn;
        hs.vc2_ptrs[t] = he + 2 * kcn + vcn;
        hs.kq_ptrs[t] = detail::i8_k(b, L);
        hs.vq_ptrs[t] = detail::i8_v(b, L);
        hs.k_scales[t] = detail::i8_scales(b, L)[0];
        hs.v_scales[t] = detail::i8_scales(b, L)[3];
        hs.q_blocks[t] = std::move(blocks[h]);
        ++i8_blocks_sealed_;
      }
      fmt_[t] = core::TileFmt::kI8;
    }
    return;
  }
  for (std::size_t t = first; t < first + count; ++t) {
    for (std::size_t h = 0; h < heads_; ++h) {
      HeadStore& hs = store_[h];
      if (testing::seal_alloc_failures() > 0) {
        // Injected allocation failure: behave exactly like a real
        // exhausted-heap make_unique below.
        --testing::seal_alloc_failures();
        throw std::bad_alloc();
      }
      auto block = std::make_unique<Half[]>(2 * kcn + 2 * vcn);
      Half* p = block.get();
      detail::encode_sealed_tile(hs.k_tiles[t].get(), hs.v_tiles[t].get(),
                                 dim_, enc_stride_, p);
      hs.kc1_ptrs[t] = p;
      hs.kc2_ptrs[t] = p + kcn;
      hs.vc1_ptrs[t] = p + 2 * kcn;
      hs.vc2_ptrs[t] = p + 2 * kcn + vcn;
      hs.enc_blocks[t] = std::move(block);
      ++enc_blocks_sealed_;
      if (images_ == core::ImagePolicy::kF32) {
        // Image allocation failure degrades the same way a failed encode
        // memo does: the entry stays null and decode widens per call.
        auto img = std::make_unique<float[]>(
            detail::f32_image_floats(dim_, enc_stride_));
        detail::widen_sealed_tile(hs.k_tiles[t].get(), hs.v_tiles[t].get(), p,
                                  dim_, enc_stride_, img.get());
        hs.img_ptrs[t] = img.get();
        hs.img_blocks[t] = std::move(img);
        ++f32_blocks_sealed_;
      } else if (images_ == core::ImagePolicy::kF16T) {
        auto himg = std::make_unique<Half[]>(
            detail::f16t_image_halves(dim_, enc_stride_));
        detail::build_f16t_image(hs.k_tiles[t].get(), p, dim_, enc_stride_,
                                 himg.get());
        hs.himg_ptrs[t] = himg.get();
        hs.himg_blocks[t] = std::move(himg);
        ++f16t_blocks_sealed_;
      }
    }
  }
}

void KvCache::append(std::span<const Half> k, std::span<const Half> v) {
  append_chunk(k, v, 1);
}

void KvCache::append_chunk(std::span<const Half> k, std::span<const Half> v,
                           std::size_t rows) {
  if (rows == 0) {
    throw std::invalid_argument("KvCache::append_chunk: rows must be >= 1");
  }
  if (k.size() != rows * heads_ * dim_ || v.size() != rows * heads_ * dim_) {
    throw std::invalid_argument(
        "KvCache::append_chunk: expected rows*heads*dim values");
  }
  // Batch all tile opens up front: one allocation round per chunk, and the
  // copy loop below cannot throw.
  const std::size_t have = tiles() * kTileRows - len_;
  if (rows > have) {
    open_tiles((rows - have + kTileRows - 1) / kTileRows);
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t tile = (len_ + r) / kTileRows;
    const std::size_t row = (len_ + r) % kTileRows;
    for (std::size_t h = 0; h < heads_; ++h) {
      HeadStore& hs = store_[h];
      std::memcpy(hs.k_tiles[tile].get() + row * dim_,
                  k.data() + (r * heads_ + h) * dim_, dim_ * sizeof(Half));
      std::memcpy(hs.v_tiles[tile].get() + row * dim_,
                  v.data() + (r * heads_ + h) * dim_, dim_ * sizeof(Half));
    }
  }
  // Memoize the checksum encodings of every tile this chunk sealed — once,
  // ever: full tiles are immutable from here on.  The append itself is
  // committed at this point; if the memo's allocations fail, the affected
  // entries simply stay null and the kernel falls back to fresh per-call
  // encodes — an append must never appear to fail after its rows landed.
  const std::size_t sealed_before = len_ / kTileRows;
  len_ += rows;
  const std::size_t sealed_after = len_ / kTileRows;
  if (sealed_after > sealed_before) {
    try {
      seal_tiles(sealed_before, sealed_after - sealed_before);
    } catch (const std::bad_alloc&) {
      // partial memo: remaining entries null, decode stays correct
    }
  }
}

void KvCache::truncate(std::size_t tokens) {
  if (tokens > len_) {
    throw std::invalid_argument(
        "KvCache::truncate: cannot truncate beyond the current length");
  }
  if (tokens == len_) return;
  const std::size_t had_tiles = tiles();
  // Zero every rolled-back row: later appends rely on rows past the valid
  // count being zero (the ragged-tail padding the checksums assume).
  for (std::size_t r = tokens; r < len_; ++r) {
    const std::size_t tile = r / kTileRows;
    const std::size_t row = r % kTileRows;
    for (HeadStore& hs : store_) {
      std::fill_n(hs.k_tiles[tile].get() + row * dim_, dim_, Half{});
      std::fill_n(hs.v_tiles[tile].get() + row * dim_, dim_, Half{});
    }
  }
  // Tiles the truncation re-opens lose their sealed encodings: the memo
  // described the full tile, and a partially-valid tile must fall back to
  // fresh per-call encodes until an append re-fills (and re-seals) it.
  const std::size_t keep_full = tokens / kTileRows;
  for (std::size_t t = keep_full; t < had_tiles; ++t) {
    for (HeadStore& hs : store_) {
      if (hs.enc_blocks[t] != nullptr) {
        hs.enc_blocks[t].reset();
        hs.kc1_ptrs[t] = nullptr;
        hs.kc2_ptrs[t] = nullptr;
        hs.vc1_ptrs[t] = nullptr;
        hs.vc2_ptrs[t] = nullptr;
        --enc_blocks_sealed_;
      }
      if (images_ == core::ImagePolicy::kF32 && hs.img_blocks[t] != nullptr) {
        hs.img_blocks[t].reset();
        hs.img_ptrs[t] = nullptr;
        --f32_blocks_sealed_;
      }
      if (images_ == core::ImagePolicy::kF16T &&
          hs.himg_blocks[t] != nullptr) {
        hs.himg_blocks[t].reset();
        hs.himg_ptrs[t] = nullptr;
        --f16t_blocks_sealed_;
      }
      if (kv_quant_ && hs.q_blocks[t] != nullptr) {
        // A re-opened quantized tile reverts to fp16: the fp16 rows were
        // kept, so the rollback is lossless, and the dropped i8 block is
        // rebuilt if an append re-fills (re-seals) the tile.
        hs.q_blocks[t].reset();
        hs.kq_ptrs[t] = nullptr;
        hs.vq_ptrs[t] = nullptr;
        hs.k_scales[t] = 0.0f;
        hs.v_scales[t] = 0.0f;
        hs.kc1_ptrs[t] = nullptr;
        hs.kc2_ptrs[t] = nullptr;
        hs.vc1_ptrs[t] = nullptr;
        hs.vc2_ptrs[t] = nullptr;
        --i8_blocks_sealed_;
      }
    }
    if (kv_quant_) fmt_[t] = core::TileFmt::kF16;
  }
  len_ = tokens;
}

core::KvSlice KvCache::slice(std::size_t head) const {
  if (head >= heads_) {
    throw std::out_of_range("KvCache::slice: head out of range");
  }
  const HeadStore& hs = store_[head];
  core::KvSlice s{hs.k_ptrs.data(),   hs.v_ptrs.data(),
                  len_,               dim_,
                  hs.kc1_ptrs.data(), hs.kc2_ptrs.data(),
                  hs.vc1_ptrs.data(), hs.vc2_ptrs.data(),
                  enc_stride_,
                  images_ == core::ImagePolicy::kF32 ? hs.img_ptrs.data()
                                                     : nullptr};
  if (images_ == core::ImagePolicy::kF16T) {
    s.f16t = hs.himg_ptrs.data();
  }
  if (kv_quant_) {
    s.fmt = fmt_.data();
    s.k_i8 = hs.kq_ptrs.data();
    s.v_i8 = hs.vq_ptrs.data();
    s.k_scale = hs.k_scales.data();
    s.v_scale = hs.v_scales.data();
  }
  return s;
}

}  // namespace ftt::serve
