#include "serve/tile_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "abft/int8_checksums.hpp"
#include "numeric/gemm_simd.hpp"
#include "numeric/int8_simd.hpp"
#include "tensor/tensor.hpp"

namespace ftt::serve {

using numeric::Half;
using tensor::MatrixHView;

namespace detail {

I8TileLayout i8_tile_layout(std::size_t dim, int s) noexcept {
  constexpr std::size_t kRows = TilePool::kTileRows;
  const auto su = static_cast<std::size_t>(s);
  I8TileLayout L;
  L.dim = dim;
  L.s = su;
  L.payload = kRows * dim;
  L.kcn = su * dim;        // henc K block: s x dim logical, stored dim x s
  L.kcni = su * kRows;     // ienc K block: row encode of the stored K^T
  L.vcn = kRows * su;
  const std::size_t ienc_n = 2 * L.kcni + 2 * L.vcn;
  const std::size_t henc_n = core::tile_checksum_halves(kRows, dim, s);
  L.scale_off = 0;
  L.ienc_off = L.scale_off + 6 * sizeof(float);
  L.k_off = L.ienc_off + ienc_n * sizeof(std::int32_t);
  L.v_off = L.k_off + L.payload;
  L.henc_off = L.v_off + L.payload;  // even: payload offsets differ by 2*64*dim
  L.bytes = (L.henc_off + henc_n * sizeof(numeric::Half) + 3) & ~std::size_t{3};
  return L;
}

void quantize_sealed_tile(const Half* k_tile, const Half* v_tile,
                          std::size_t dim, int s, std::uint8_t* block) {
  constexpr std::size_t kRows = TilePool::kTileRows;
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
  // row-major: that is already GEMM II's k-major B operand.
  std::int8_t* kq = i8_k(block, L);
  std::int8_t* vq = i8_v(block, L);
  numeric::transpose_f32(kf.data(), kRows, dim, ktf.data());
  numeric::quantize_f32_to_i8(ktf.data(), kq, n, ks.inv_scale);
  numeric::quantize_f32_to_i8(vf.data(), vq, n, vs.inv_scale);
  // The checksum block of the exactly-dequantized payload as stored (the
  // scale is a power of two), bit-equal to the fresh encode a decode call
  // runs over it, exactly as for fp16 tiles.
  numeric::dequantize_i8_to_f32(kq, ktf.data(), n, ks.scale);
  numeric::dequantize_i8_to_f32(vq, vf.data(), n, vs.scale);
  core::encode_tile_checksums(ktf.data(), vf.data(), kRows, dim, s, nullptr,
                              i8_henc(block, L));
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
  constexpr std::size_t kRows = TilePool::kTileRows;
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
  // 3. The checksum block is derived state: recompute it from the (now
  //    verified) payload and scales, and rewrite it on any mismatch — this
  //    catches flips in the henc region itself and completes payload/scale
  //    repairs in one pass.  The encoder reads the k-major K payload as
  //    stored.
  const std::size_t n = kRows * dim;
  std::vector<float> ktf(n), vf(n);
  numeric::dequantize_i8_to_f32(kq, ktf.data(), n, sc[0]);
  numeric::dequantize_i8_to_f32(vq, vf.data(), n, sc[3]);
  std::vector<Half> fresh(core::tile_checksum_halves(kRows, dim, s));
  core::encode_tile_checksums(ktf.data(), vf.data(), kRows, dim, s, nullptr,
                              fresh.data());
  Half* he = i8_henc(block, L);
  if (std::memcmp(fresh.data(), he, fresh.size() * sizeof(Half)) != 0) {
    std::memcpy(he, fresh.data(), fresh.size() * sizeof(Half));
    repaired = true;
  }
  return repaired ? I8ScrubResult::kRepaired : I8ScrubResult::kClean;
}

}  // namespace detail

ChainKey chain_extend(const ChainKey& parent, const void* data,
                      std::size_t bytes) noexcept {
  // Two independent FNV-1a streams (distinct offset bases; the second also
  // finalizes with a strong 64-bit mix) give a 128-bit effective key; the
  // registry compares full keys, so a collision needs both to collide.
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t a = parent.a ^ 0xcbf29ce484222325ull;
  std::uint64_t b = parent.b ^ 0x84222325cbf29ce4ull;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    a = (a ^ p[i]) * kPrime;
    b = (b ^ p[bytes - 1 - i]) * kPrime;
  }
  // splitmix64 finalizer decorrelates the two lanes.
  b ^= b >> 30;
  b *= 0xbf58476d1ce4e5b9ull;
  b ^= b >> 27;
  return ChainKey{a, b};
}

TilePool::TilePool(TilePoolOptions opt)
    : layers_(opt.layers),
      heads_(opt.heads),
      dim_(opt.dim),
      enc_stride_(opt.enc_stride),
      capacity_tiles_(opt.capacity_tiles) {
  if (layers_ == 0 || heads_ == 0 || dim_ == 0) {
    throw std::invalid_argument(
        "TilePool: layers, heads and dim must be positive");
  }
  // The sealed encodings tile both axes of every 64 x dim block.
  if (enc_stride_ <= 0 ||
      kTileRows % static_cast<std::size_t>(enc_stride_) != 0 ||
      dim_ % static_cast<std::size_t>(enc_stride_) != 0) {
    throw std::invalid_argument(
        "TilePool: enc_stride must divide both the 64-row tile and dim");
  }
  per_lh_halves_ = 2 * kTileRows * dim_ +
                   core::tile_checksum_halves(kTileRows, dim_, enc_stride_);
  slab_halves_ = layers_ * heads_ * per_lh_halves_;
  i8_block_bytes_ = detail::i8_tile_layout(dim_, enc_stride_).bytes;
}

std::size_t TilePool::offset(std::size_t layer,
                             std::size_t head) const noexcept {
  return (layer * heads_ + head) * per_lh_halves_;
}

// The fp16 accessors null out once a kI8 tile seals (its staging slab is
// freed); callers branch on format() / nullptr.
Half* TilePool::k_tile(TileId id, std::size_t layer,
                       std::size_t head) noexcept {
  Half* slab = tiles_[id].slab.get();
  return slab == nullptr ? nullptr : slab + offset(layer, head);
}
Half* TilePool::v_tile(TileId id, std::size_t layer,
                       std::size_t head) noexcept {
  Half* k = k_tile(id, layer, head);
  return k == nullptr ? nullptr : k + kTileRows * dim_;
}
Half* TilePool::enc_block(TileId id, std::size_t layer,
                          std::size_t head) noexcept {
  Half* v = v_tile(id, layer, head);
  return v == nullptr ? nullptr : v + kTileRows * dim_;
}
Half* TilePool::f16t_image(TileId id, std::size_t layer,
                           std::size_t head) noexcept {
  // Null for kI8 tiles (no hslab).
  Half* hslab = tiles_[id].hslab.get();
  if (hslab == nullptr) return nullptr;
  return hslab + (layer * heads_ + head) * kTileRows * dim_;
}
core::TileFmt TilePool::format(TileId id) const { return checked(id).format; }
std::uint8_t* TilePool::i8_block(TileId id, std::size_t layer,
                                 std::size_t head) noexcept {
  std::uint8_t* q = tiles_[id].qslab.get();
  return q == nullptr ? nullptr
                      : q + (layer * heads_ + head) * i8_block_bytes_;
}

TilePool::Tile& TilePool::checked(TileId id) {
  if (id >= tiles_.size()) {
    throw std::out_of_range("TilePool: unknown tile id");
  }
  return tiles_[id];
}
const TilePool::Tile& TilePool::checked(TileId id) const {
  if (id >= tiles_.size()) {
    throw std::out_of_range("TilePool: unknown tile id");
  }
  return tiles_[id];
}

void TilePool::recycle(TileId id, core::TileFmt fmt) {
  Tile& t = tiles_[id];
  // Zero the whole fp16 slab: fresh K/V rows are the decode kernel's
  // ragged-tail padding, and stale sealed encodings must never leak into a
  // new tile.  A sealed kI8 tile freed its staging slab; reallocate
  // (value-init: zeroed).
  if (t.slab == nullptr) {
    t.slab = std::make_unique<Half[]>(slab_halves_);
  } else {
    std::fill_n(t.slab.get(), slab_halves_, Half{});
  }
  // Format conversion: each format carries exactly its own slabs.  The
  // image and i8 slabs are never zeroed — both are fully written at seal
  // time and never read before.
  if (fmt == core::TileFmt::kI8) {
    t.hslab.reset();
    if (t.qslab == nullptr) {
      t.qslab = std::unique_ptr<std::uint8_t[]>(
          new std::uint8_t[layers_ * heads_ * i8_block_bytes_]);
    }
  } else {
    t.qslab.reset();
    if (t.hslab == nullptr) {
      t.hslab = std::unique_ptr<Half[]>(new Half[image_halves()]);
    }
  }
  t.format = fmt;
  t.sealed = false;
  if (t.is_published) {
    registry_.erase(t.key);
    t.is_published = false;
  }
  t.key = ChainKey{};
  t.stamp = 0;
}

namespace {

enum class ScrubOutcome { kClean, kRepaired, kUnrepairable };

// Re-verify one (layer, head) block of a sealed tile and repair in place
// where the single-fault classification allows it (see TilePool::scrub docs).
// `enc_fresh` / `img_fresh` are caller-provided scratch.
ScrubOutcome scrub_block(TilePool& pool, TilePool::TileId id,
                         std::size_t layer, std::size_t head,
                         std::vector<Half>& enc_fresh,
                         std::vector<Half>& img_fresh) {
  constexpr std::size_t kRows = TilePool::kTileRows;
  const std::size_t dim = pool.dim();
  const int s = pool.enc_stride();
  // The int8 arm: TMR scale vote, exact integer verify/correct (equality,
  // zero threshold), checksum-block rebuild — see detail::scrub_i8_tile.
  if (pool.format(id) == core::TileFmt::kI8) {
    switch (detail::scrub_i8_tile(pool.i8_block(id, layer, head), dim, s)) {
      case detail::I8ScrubResult::kClean:
        return ScrubOutcome::kClean;
      case detail::I8ScrubResult::kRepaired:
        return ScrubOutcome::kRepaired;
      case detail::I8ScrubResult::kUnrepairable:
        return ScrubOutcome::kUnrepairable;
    }
    return ScrubOutcome::kUnrepairable;  // unreachable
  }
  Half* k = pool.k_tile(id, layer, head);
  Half* v = pool.v_tile(id, layer, head);
  Half* enc = pool.enc_block(id, layer, head);
  Half* img = pool.f16t_image(id, layer, head);
  // Encodes from the slab's K^T, left in img_fresh.
  const auto mismatches = [&] {
    numeric::transpose_h(k, kRows, dim, img_fresh.data());
    core::encode_tile_checksums(img_fresh.data(), v, kRows, dim, s, nullptr,
                                enc_fresh.data());
    std::size_t count = 0;
    for (std::size_t i = 0; i < enc_fresh.size(); ++i) {
      if (enc_fresh[i].bits() != enc[i].bits()) ++count;
    }
    return count;
  };

  const std::size_t bad = mismatches();
  if (bad == 0) {
    // Payload and checksums agree bit for bit.  Cross-check the image; the
    // fp16 slab is authoritative, so a disagreeing image is rebuilt from it
    // (a pure bit transpose, deterministic).
    if (std::memcmp(img_fresh.data(), img,
                    img_fresh.size() * sizeof(Half)) != 0) {
      std::memcpy(img, img_fresh.data(), img_fresh.size() * sizeof(Half));
      return ScrubOutcome::kRepaired;
    }
    return ScrubOutcome::kClean;
  }
  if (bad == 1) {
    // A payload flip perturbs several checksum elements (each K/V element
    // feeds at least a plain and a weighted sum); a single disagreement is
    // checksum-class corruption, and the fresh encode is the repair.
    std::memcpy(enc, enc_fresh.data(), enc_fresh.size() * sizeof(Half));
    std::memcpy(img, img_fresh.data(), img_fresh.size() * sizeof(Half));
    return ScrubOutcome::kRepaired;
  }
  // Payload-class corruption: the K^T image is the only second copy, and it
  // covers K alone — the de-transpose restores K's Half bits verbatim, but
  // a corrupt V payload re-verifies dirty below and the tile drops (the
  // durability trade for carrying no V image).
  numeric::transpose_h(img, dim, kRows, k);
  // Re-verify: the restored payload must reproduce the stored checksums
  // (clean under the single-fault assumption).  A residual mismatch means
  // the corruption was in V or the image was corrupt too — either way
  // beyond repair.
  if (mismatches() != 0) return ScrubOutcome::kUnrepairable;
  return ScrubOutcome::kRepaired;
}

}  // namespace

ScrubReport TilePool::scrub(std::size_t max_tiles) {
  ScrubReport rep;
  if (max_tiles == 0 || tiles_.empty()) return rep;
  std::vector<Half> enc_fresh(
      core::tile_checksum_halves(kTileRows, dim_, enc_stride_));
  std::vector<Half> img_fresh(kTileRows * dim_);
  const std::size_t n = tiles_.size();
  std::size_t visited = 0;
  while (visited < n && rep.scanned < max_tiles) {
    const TileId id = scrub_cursor_ % n;
    scrub_cursor_ = (scrub_cursor_ + 1) % n;
    ++visited;
    if (!tiles_[id].sealed) continue;
    ++rep.scanned;
    bool unrepairable = false;
    for (std::size_t l = 0; l < layers_ && !unrepairable; ++l) {
      for (std::size_t h = 0; h < heads_ && !unrepairable; ++h) {
        switch (scrub_block(*this, id, l, h, enc_fresh, img_fresh)) {
          case ScrubOutcome::kClean:
            break;
          case ScrubOutcome::kRepaired:
            ++rep.repaired;
            break;
          case ScrubOutcome::kUnrepairable:
            unrepairable = true;
            break;
        }
      }
    }
    if (unrepairable) {
      // Drop the tile: unseal + unpublish so it can never be attached or
      // verified again.  Current holders keep their references — the engine
      // preempts them onto recompute before any further compute — and a
      // holder's eventual release routes the (now unpublished) tile to the
      // dead list.  An unreferenced published tile sits on the cached list;
      // bump its stamp (stale-entry skip) and dead-list it directly.
      Tile& t = tiles_[id];
      t.sealed = false;
      const bool was_published = t.is_published;
      if (t.is_published) {
        registry_.erase(t.key);
        t.is_published = false;
        t.key = ChainKey{};
      }
      if (t.refs == 0 && was_published) {
        t.stamp = ++clock_;
        dead_.push_back(id);
      }
      // (unpublished + refs == 0 tiles are already dead-listed)
      rep.dropped.push_back(id);
    }
  }
  return rep;
}

namespace testing {
void flip_slab_bit(TilePool& pool, TilePool::TileId id, std::size_t layer,
                   std::size_t head, std::size_t half_index, unsigned bit) {
  const std::size_t per_lh =
      pool.slab_halves() / (pool.layers() * pool.heads());
  if (half_index >= per_lh) {
    throw std::out_of_range("flip_slab_bit: half_index out of block");
  }
  Half* block = pool.k_tile(id, layer, head);  // [K | V | enc] contiguous
  if (block == nullptr) {
    throw std::logic_error(
        "flip_slab_bit: tile holds no fp16 slab (a sealed kI8 tile freed it)");
  }
  Half& h = block[half_index];
  h = Half::from_bits(
      static_cast<std::uint16_t>(h.bits() ^ (1u << (bit & 15u))));
}

void flip_f16t_bit(TilePool& pool, TilePool::TileId id, std::size_t layer,
                   std::size_t head, std::size_t half_index, unsigned bit) {
  Half* img = pool.f16t_image(id, layer, head);
  if (img == nullptr) {
    throw std::logic_error("flip_f16t_bit: tile holds no f16t image");
  }
  if (half_index >= TilePool::kTileRows * pool.dim()) {
    throw std::out_of_range("flip_f16t_bit: half_index out of block");
  }
  Half& h = img[half_index];
  h = Half::from_bits(
      static_cast<std::uint16_t>(h.bits() ^ (1u << (bit & 15u))));
}

void flip_i8_bit(TilePool& pool, TilePool::TileId id, std::size_t layer,
                 std::size_t head, std::size_t byte_index, unsigned bit) {
  if (byte_index >= pool.i8_block_bytes()) {
    throw std::out_of_range("flip_i8_bit: byte_index out of block");
  }
  std::uint8_t* block = pool.i8_block(id, layer, head);
  if (block == nullptr) {
    throw std::logic_error("flip_i8_bit: tile holds no i8 slab");
  }
  block[byte_index] ^= static_cast<std::uint8_t>(1u << (bit & 7u));
}
}  // namespace testing

TilePool::TileId TilePool::acquire(core::TileFmt fmt) {
  // 1. Dead tiles first: reclaiming one loses nothing.
  while (!dead_.empty()) {
    const TileId id = dead_.front();
    dead_.pop_front();
    Tile& t = tiles_[id];
    if (t.refs != 0) continue;  // stale entry (re-retained since listed)
    recycle(id, fmt);
    t.refs = 1;
    ++in_use_;
    return id;
  }
  // 2. Fresh capacity.
  if (capacity_tiles_ == 0 || tiles_.size() < capacity_tiles_) {
    Tile t;
    t.slab = std::make_unique<Half[]>(slab_halves_);  // value-init: zeroed
    t.format = fmt;
    if (fmt == core::TileFmt::kI8) {
      // No value-init: fully written at seal time, never read before (the
      // i8 pointers are published only on seal).  Same for hslab below.
      t.qslab = std::unique_ptr<std::uint8_t[]>(
          new std::uint8_t[layers_ * heads_ * i8_block_bytes_]);
    } else {
      t.hslab = std::unique_ptr<Half[]>(new Half[image_halves()]);
    }
    t.refs = 1;
    tiles_.push_back(std::move(t));
    ++in_use_;
    return tiles_.size() - 1;
  }
  // 3. Evict the least-recently-released cached (prefix-registered) tile.
  while (!cached_.empty()) {
    const auto [id, stamp] = cached_.front();
    cached_.pop_front();
    Tile& t = tiles_[id];
    if (t.refs != 0 || t.stamp != stamp) continue;  // stale: re-shared since
    ++evictions_;
    recycle(id, fmt);
    t.refs = 1;
    ++in_use_;
    return id;
  }
  return kNoTile;  // every tile is referenced
}

void TilePool::retain(TileId id) {
  Tile& t = checked(id);
  if (t.refs == 0) {
    ++in_use_;
    t.stamp = 0;  // invalidate any free-list entry (lazy removal)
  }
  ++t.refs;
}

void TilePool::release(TileId id) {
  Tile& t = checked(id);
  if (t.refs == 0) {
    throw std::logic_error("TilePool: refcount underflow on release");
  }
  if (--t.refs == 0) {
    --in_use_;
    if (t.is_published) {
      t.stamp = ++clock_;
      cached_.emplace_back(id, t.stamp);
    } else {
      t.stamp = ++clock_;
      dead_.push_back(id);
    }
  }
}

TilePool::TileId TilePool::lookup_shared(const ChainKey& key) {
  const auto it = registry_.find(key);
  if (it == registry_.end()) return kNoTile;
  const TileId id = it->second;
  retain(id);  // also pulls it off the cached list via the stamp
  ++shared_hits_;
  return id;
}

void TilePool::seal(TileId id) {
  Tile& t = checked(id);
  t.sealed = true;
  // A sealed kI8 tile lives entirely in its i8 slab (every layer's block
  // was quantized before the pool-wide seal); dropping the fp16 staging
  // slab here is the capacity win.
  if (t.format == core::TileFmt::kI8) t.slab.reset();
}

bool TilePool::sealed(TileId id) const { return checked(id).sealed; }

bool TilePool::publish(TileId id, const ChainKey& key) {
  Tile& t = checked(id);
  if (!t.sealed) {
    throw std::logic_error("TilePool: publish of an unsealed tile");
  }
  if (t.is_published) return false;
  if (!registry_.emplace(key, id).second) {
    return false;  // first writer wins; the caller keeps its private copy
  }
  t.is_published = true;
  t.key = key;
  return true;
}

std::size_t TilePool::allocatable() const noexcept {
  if (capacity_tiles_ == 0) return static_cast<std::size_t>(-1);
  return capacity_tiles_ - in_use_;
}

std::size_t TilePool::refcount(TileId id) const { return checked(id).refs; }

namespace {

// One tile's actual current footprint: formats differ per tile, and a kI8
// tile's staging slab exists only until it seals.
template <typename TileT>
std::size_t tile_footprint(const TileT& t, std::size_t slab_halves,
                           std::size_t qslab_bytes,
                           std::size_t hslab_halves) noexcept {
  std::size_t b = 0;
  if (t.slab != nullptr) b += slab_halves * sizeof(Half);
  if (t.hslab != nullptr) b += hslab_halves * sizeof(Half);
  if (t.qslab != nullptr) b += qslab_bytes;
  return b;
}

}  // namespace

std::size_t TilePool::bytes_in_use() const noexcept {
  const std::size_t qslab_bytes = layers_ * heads_ * i8_block_bytes_;
  std::size_t b = 0;
  for (const Tile& t : tiles_) {
    if (t.refs != 0) {
      b += tile_footprint(t, slab_halves_, qslab_bytes, image_halves());
    }
  }
  return b;
}

std::size_t TilePool::tile_bytes(core::TileFmt fmt) const noexcept {
  if (fmt == core::TileFmt::kI8) {
    return layers_ * heads_ * i8_block_bytes_;
  }
  return (slab_halves_ + image_halves()) * sizeof(Half);
}

core::TileFmt default_tile_format() noexcept {
  // Read once: a mid-process flip would let requests of "the default"
  // format disagree with each other, which no caller could reason about.
  static const core::TileFmt fmt = [] {
    const char* v = std::getenv("FTT_KV_QUANT");
    const bool on = v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
    return on ? core::TileFmt::kI8 : core::TileFmt::kF16;
  }();
  return fmt;
}

// ---------------------------------------------------------------------------
// PagedKvCache
// ---------------------------------------------------------------------------

PagedKvCache::PagedKvCache(TilePool& pool, core::TileFmt fmt)
    : pool_(&pool),
      fmt_(fmt),
      layer_len_(pool.layers(), 0),
      sealed_tiles_(pool.layers(), 0),
      ptrs_(pool.layers() * pool.heads()),
      layer_fmt_(pool.layers()) {}

PagedKvCache::~PagedKvCache() { release_all(); }

void PagedKvCache::push_tile_ptrs(TilePool::TileId id, bool with_enc) {
  const std::size_t layers = pool_->layers(), heads = pool_->heads();
  const std::size_t dim = pool_->dim();
  // Only a sealed shared tile can arrive already in i8 form; fresh tiles —
  // whatever format they were acquired as — stage in fp16 and flip per
  // layer in seal_layer_tile.
  const bool i8 = with_enc && pool_->format(id) == core::TileFmt::kI8;
  const detail::I8TileLayout L =
      i8 ? detail::i8_tile_layout(dim, pool_->enc_stride())
         : detail::I8TileLayout{};
  for (std::size_t l = 0; l < layers; ++l) {
    layer_fmt_[l].push_back(i8 ? core::TileFmt::kI8 : core::TileFmt::kF16);
    for (std::size_t h = 0; h < heads; ++h) {
      HeadPtrs& hp = ptrs_[l * heads + h];
      // For a sealed kI8 tile these are null (its staging slab is freed) —
      // the decode kernel never dereferences them when fmt says kI8.
      hp.k.push_back(pool_->k_tile(id, l, h));
      hp.v.push_back(pool_->v_tile(id, l, h));
      if (i8) {
        const std::uint8_t* block = pool_->i8_block(id, l, h);
        const float* scales = detail::i8_scales(block, L);
        hp.enc.push_back(detail::i8_henc(block, L));
        hp.kq.push_back(detail::i8_k(block, L));
        hp.vq.push_back(detail::i8_v(block, L));
        hp.ks.push_back(scales[0]);
        hp.vs.push_back(scales[3]);
      } else {
        hp.enc.push_back(with_enc ? pool_->enc_block(id, l, h) : nullptr);
        hp.kq.push_back(nullptr);
        hp.vq.push_back(nullptr);
        hp.ks.push_back(0.0f);
        hp.vs.push_back(0.0f);
      }
      // Sealed shared tiles arrive with their image already built (the
      // sealing request wrote it); fresh tiles get theirs at seal time.
      // Null for kI8 tiles — the image is the fp16-only fast path.
      hp.f16t.push_back(with_enc
                            ? static_cast<const Half*>(
                                  pool_->f16t_image(id, l, h))
                            : nullptr);
    }
  }
}

void PagedKvCache::attach_shared(TilePool::TileId id) {
  if (!pool_->sealed(id)) {
    throw std::logic_error("PagedKvCache: attach of an unsealed tile");
  }
  // The engine keys prefix chains per format, so a cross-format hit should
  // be impossible; this is the hard backstop.
  if (pool_->format(id) != fmt_) {
    throw std::logic_error(
        "PagedKvCache: shared-tile format mismatch — prefix chains never "
        "cross tile formats");
  }
  for (const std::size_t len : layer_len_) {
    if (len != table_.size() * TilePool::kTileRows) {
      throw std::logic_error(
          "PagedKvCache: shared tiles attach only on tile boundaries");
    }
  }
  table_.push_back(id);
  push_tile_ptrs(id, /*with_enc=*/true);
  for (std::size_t& len : layer_len_) len += TilePool::kTileRows;
  // The attached tile arrives already sealed: advance every layer's sealed
  // region over it so seal_layer_through never re-encodes a shared tile.
  for (std::size_t& sealed : sealed_tiles_) ++sealed;
  ++shared_tiles_;
}

bool PagedKvCache::ensure_capacity(std::size_t tokens) {
  const std::size_t need =
      (tokens + TilePool::kTileRows - 1) / TilePool::kTileRows;
  while (table_.size() < need) {
    const TilePool::TileId id = pool_->acquire(fmt_);
    if (id == TilePool::kNoTile) return false;
    table_.push_back(id);
    push_tile_ptrs(id, /*with_enc=*/false);  // enc ptrs null until sealed
  }
  return true;
}

void PagedKvCache::seal_layer_tile(std::size_t layer, std::size_t tile_index) {
  const int s = pool_->enc_stride();
  const std::size_t heads = pool_->heads(), dim = pool_->dim();
  const TilePool::TileId id = table_[tile_index];
  if (fmt_ == core::TileFmt::kI8) {
    // Quantize this layer's staged fp16 rows into the tile's i8 slab.  The
    // layer's slice streams i8 from this moment on; the fp16 staging rows
    // die at the pool-wide seal below, so null the payload pointers now.
    const detail::I8TileLayout L = detail::i8_tile_layout(dim, s);
    for (std::size_t h = 0; h < heads; ++h) {
      std::uint8_t* block = pool_->i8_block(id, layer, h);
      detail::quantize_sealed_tile(pool_->k_tile(id, layer, h),
                                   pool_->v_tile(id, layer, h), dim, s,
                                   block);
      const float* scales = detail::i8_scales(block, L);
      HeadPtrs& hp = ptrs_[layer * heads + h];
      hp.enc[tile_index] = detail::i8_henc(block, L);
      hp.kq[tile_index] = detail::i8_k(block, L);
      hp.vq[tile_index] = detail::i8_v(block, L);
      hp.ks[tile_index] = scales[0];
      hp.vs[tile_index] = scales[3];
      hp.k[tile_index] = nullptr;
      hp.v[tile_index] = nullptr;
    }
    layer_fmt_[layer][tile_index] = core::TileFmt::kI8;
    if (layer == pool_->layers() - 1) {
      pool_->seal(id);  // frees the staging slab — the capacity win
      newly_sealed_.push_back(tile_index);
    }
    return;
  }
  for (std::size_t h = 0; h < heads; ++h) {
    Half* enc = pool_->enc_block(id, layer, h);
    Half* img = pool_->f16t_image(id, layer, h);
    numeric::transpose_h(pool_->k_tile(id, layer, h), TilePool::kTileRows,
                         dim, img);
    core::encode_tile_checksums(img, pool_->v_tile(id, layer, h),
                                TilePool::kTileRows, dim, s, nullptr, enc);
    HeadPtrs& hp = ptrs_[layer * heads + h];
    hp.enc[tile_index] = enc;
    hp.f16t[tile_index] = img;
  }
  // The last layer fills last within a tick: its seal completes the tile.
  if (layer == pool_->layers() - 1) {
    pool_->seal(id);
    newly_sealed_.push_back(tile_index);
  }
}

void PagedKvCache::seal_layer_through(std::size_t layer, std::size_t upto) {
  for (std::size_t t = sealed_tiles_[layer]; t < upto; ++t) {
    seal_layer_tile(layer, t);
  }
  if (upto > sealed_tiles_[layer]) sealed_tiles_[layer] = upto;
}

void PagedKvCache::append_chunk(std::size_t layer,
                                std::span<const Half> k,
                                std::span<const Half> v, std::size_t rows,
                                bool defer_seal) {
  const std::size_t heads = pool_->heads(), dim = pool_->dim();
  if (layer >= pool_->layers()) {
    throw std::out_of_range("PagedKvCache: layer out of range");
  }
  if (rows == 0 || k.size() != rows * heads * dim ||
      v.size() != rows * heads * dim) {
    throw std::invalid_argument(
        "PagedKvCache: expected rows*heads*dim values");
  }
  const std::size_t len = layer_len_[layer];
  if (len + rows > table_.size() * TilePool::kTileRows) {
    throw std::logic_error(
        "PagedKvCache: append beyond ensured capacity — the engine's memory "
        "phase must run first");
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t tile = (len + r) / TilePool::kTileRows;
    const std::size_t row = (len + r) % TilePool::kTileRows;
    const TilePool::TileId id = table_[tile];
    for (std::size_t h = 0; h < heads; ++h) {
      std::memcpy(pool_->k_tile(id, layer, h) + row * dim,
                  k.data() + (r * heads + h) * dim, dim * sizeof(Half));
      std::memcpy(pool_->v_tile(id, layer, h) + row * dim,
                  v.data() + (r * heads + h) * dim, dim * sizeof(Half));
    }
  }
  layer_len_[layer] = len + rows;
  // Seal every tile this chunk filled for this layer.  Slab encoding space
  // is preallocated, so sealing cannot fail mid-append.
  // Speculative appends defer: a tile filled by rows that may be rejected
  // must stay open until truncate() commits the accepted prefix.
  if (!defer_seal) {
    seal_layer_through(layer, layer_len_[layer] / TilePool::kTileRows);
  }
}

void PagedKvCache::truncate(std::size_t tokens) {
  const std::size_t heads = pool_->heads(), dim = pool_->dim();
  const std::size_t len = layer_len_.empty() ? 0 : layer_len_[0];
  for (const std::size_t l : layer_len_) {
    if (l != len) {
      throw std::logic_error(
          "PagedKvCache::truncate: layers out of step — truncation commits "
          "a whole tick, after every layer appended");
    }
  }
  if (tokens > len) {
    throw std::logic_error(
        "PagedKvCache::truncate: cannot truncate beyond the context");
  }
  for (const std::size_t sealed : sealed_tiles_) {
    if (tokens < sealed * TilePool::kTileRows) {
      throw std::logic_error(
          "PagedKvCache::truncate: rollback into a sealed tile — sealed "
          "tiles are never speculative");
    }
  }
  const std::size_t need =
      (tokens + TilePool::kTileRows - 1) / TilePool::kTileRows;
  // Zero the rolled-back rows of the tiles we keep: later appends (and the
  // kernel's ragged-tail checksums) rely on rows past the valid count being
  // zero.  Dropped tail tiles skip this — the pool zeroes them on reuse.
  const std::size_t kept_rows = std::min(len, need * TilePool::kTileRows);
  for (std::size_t layer = 0; layer < pool_->layers(); ++layer) {
    for (std::size_t r = tokens; r < kept_rows; ++r) {
      const std::size_t tile = r / TilePool::kTileRows;
      const std::size_t row = r % TilePool::kTileRows;
      const TilePool::TileId id = table_[tile];
      for (std::size_t h = 0; h < heads; ++h) {
        std::fill_n(pool_->k_tile(id, layer, h) + row * dim, dim, Half{});
        std::fill_n(pool_->v_tile(id, layer, h) + row * dim, dim, Half{});
      }
    }
  }
  // Release tail tiles the commit left entirely empty (acquired for the
  // speculative block this tick; unpublished, so they go on the dead list).
  while (table_.size() > need) {
    pool_->release(table_.back());
    table_.pop_back();
    for (HeadPtrs& hp : ptrs_) {
      hp.k.pop_back();
      hp.v.pop_back();
      hp.enc.pop_back();
      hp.f16t.pop_back();
      hp.kq.pop_back();
      hp.vq.pop_back();
      hp.ks.pop_back();
      hp.vs.pop_back();
    }
    for (std::vector<core::TileFmt>& lf : layer_fmt_) lf.pop_back();
  }
  for (std::size_t& l : layer_len_) l = tokens;
  // Seal whatever the commit fully covers (deferred by the speculative
  // appends).  Layers seal in order, so the pool-wide seal — and the
  // publication candidacy it gates — still fires on the last layer.
  for (std::size_t layer = 0; layer < pool_->layers(); ++layer) {
    seal_layer_through(layer, tokens / TilePool::kTileRows);
  }
}

core::KvSlice PagedKvCache::slice(std::size_t layer, std::size_t head) const {
  if (layer >= pool_->layers() || head >= pool_->heads()) {
    throw std::out_of_range("PagedKvCache: layer/head out of range");
  }
  const HeadPtrs& hp = ptrs_[layer * pool_->heads() + head];
  // f16t entries are null until the tile seals (and for kI8 tiles), so the
  // array is exposed unconditionally.
  core::KvSlice s{hp.k.data(),   hp.v.data(),        layer_len_[layer],
                  pool_->dim(),  hp.enc.data(),      pool_->enc_stride(),
                  hp.f16t.data()};
  // The i8 views are exposed only for kI8 requests: an fp16 request's
  // slices are bit-for-bit what a pure-fp16 pool would hand out, even when
  // the pool also holds i8 tiles.
  if (fmt_ == core::TileFmt::kI8) {
    s.fmt = layer_fmt_[layer].data();
    s.k_i8 = hp.kq.data();
    s.v_i8 = hp.vq.data();
    s.k_scale = hp.ks.data();
    s.v_scale = hp.vs.data();
  }
  return s;
}

std::size_t PagedKvCache::length() const noexcept {
  // Rows every layer has committed; mid-tick, later layers lag earlier
  // ones, and the minimum is the fully-appended context.
  std::size_t len = layer_len_.empty() ? 0 : layer_len_[0];
  for (const std::size_t l : layer_len_) len = l < len ? l : len;
  return len;
}

std::vector<std::size_t> PagedKvCache::take_newly_sealed() {
  std::vector<std::size_t> out;
  out.swap(newly_sealed_);
  return out;
}

void PagedKvCache::release_all() {
  for (const TilePool::TileId id : table_) pool_->release(id);
  table_.clear();
  for (std::size_t& len : layer_len_) len = 0;
  for (std::size_t& sealed : sealed_tiles_) sealed = 0;
  for (HeadPtrs& hp : ptrs_) {
    hp.k.clear();
    hp.v.clear();
    hp.enc.clear();
    hp.f16t.clear();
    hp.kq.clear();
    hp.vq.clear();
    hp.ks.clear();
    hp.vs.clear();
  }
  for (std::vector<core::TileFmt>& lf : layer_fmt_) lf.clear();
  shared_tiles_ = 0;
  newly_sealed_.clear();
}

}  // namespace ftt::serve
