#pragma once
// Paged KV storage: one shared pool of 64-row context tiles behind every
// request's block table (vLLM-style PagedAttention, specialized to the
// fault-tolerant decode kernel's checksum footprint).
//
// A *context tile* holds 64 tokens of K/V for every layer and head of the
// model, plus the sealed strided-ABFT checksum block of each (layer, head)
// 64 x dim tile pair, all in one contiguous slab.  Because the checksums
// live inside the tile, sharing a tile shares its ABFT memo too: a prefix
// computed (and encoded) once is verified from the same sealed checksums by
// every request that maps it.
//
// Tiles are refcounted.  A request's PagedKvCache maps context positions to
// pool tiles through a block table; sealed tiles are immutable, so sharing
// needs no copy-on-write machinery beyond the rule that only the *open tail
// tile* of each request is ever written, and the tail is always private
// (shared tiles are attached only in the sealed state).  When a tile's
// refcount drops to zero it is not destroyed:
//
//   * unpublished tiles (generated rows, aborted prefills) go on a dead
//     list and are the first choice for reuse — reclaiming them loses
//     nothing;
//   * published tiles (sealed prompt tiles registered under a prefix hash
//     chain) go on an LRU cached list and remain discoverable through
//     lookup_shared() until capacity pressure evicts them, oldest first.
//
// acquire() prefers dead tiles, then fresh capacity, then LRU eviction of
// cached tiles; only when every tile is referenced does it fail (kNoTile),
// which is the signal the engine turns into preemption.
//
// Prefix sharing is keyed by a hash chain: tile t's key extends tile t-1's
// key with the bytes that *determine* the tile's sealed contents (the
// engine hashes the prompt's hidden rows — the model is deterministic and
// the batched path bit-identical per row, so equal prompt prefixes produce
// bit-identical sealed tiles in every layer).  Keys are 128 bits (two
// independent 64-bit FNV-1a chains) so an accidental collision — which
// would silently splice the wrong KV into a context — is out of reach for
// any realistic pool lifetime; lookups compare the full key.
//
// Each key is stored once, k-major: an fp16 tile's K plane is K^T (dim x
// 64) from the first append, the layout the score GEMM and the strided K
// checksums both stream, so no tile — sealed or open — is ever transposed
// again.  Full tiles are immutable once written, so sealing derives each
// (layer, head) block's checksum block once, ever (core::encode_tile_checksums:
// [Kc1^T | Kc2^T | Vc1 | Vc2], the k-major operands of the checksum GEMMs,
// in both tile formats), straight from that K^T plane or an int8 tile's K^T
// payload: clean decode steps stream the sealed block instead of
// re-deriving it per token, dropping the per-token encode cost from
// O(context) to O(tail).

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "abft/strided_abft.hpp"
#include "core/decode.hpp"
#include "numeric/fp16.hpp"

namespace ftt::serve {

namespace detail {
/// Byte layout of one (layer, head) block of an int8-format KV tile — the
/// second, coexisting tile format (core::TileFmt::kI8).  One block packs
/// everything the decode kernel and the scrubber need:
///
///   [ scales: 6 floats (K, then V, 3 TMR copies each)
///   | ienc:  int32 [kc1 (s x 64, over K^T) | kc2 | vc1 (64 x s) | vc2]
///   | K^T payload: dim x 64 int8 | V payload: 64 x dim int8
///   | henc:  Half  [Kc1^T (dim x s) | Kc2^T | Vc1 (64 x s) | Vc2] ]
///
/// K-side operands are stored *k-major* (pre-transposed): the score GEMMs
/// consume them in exactly this layout, so the fused dequantizing kernels
/// (numeric::gemm_f32_nn_i8) stream the int8 payload directly with zero
/// per-tile pack or dequantize-to-scratch pass — the int8 analogue of the
/// fp16 format's K^T plane.  V stays row-major because that is already
/// GEMM II's k-major B operand.
///
/// The int32 encodings are the at-rest redundancy: integer sums of the int8
/// payload as stored (abft/int8_checksums.hpp; K's run over the k-major
/// array), verified by EQUALITY — exact fault location and repair with zero
/// threshold.  henc is the decode-time checksum block, in the layout every
/// tile shares (core::encode_tile_checksums) and encoded from the
/// exactly-dequantized payload, so it is bit-equal to the fresh encode the
/// kernel would compute and a clean tick streams payload + henc without
/// touching the int32 block.  The per-operand scale is a power of two
/// (numeric::choose_i8_scale), so dequantization is exact and both encoding
/// families describe the same tile; the scales themselves are outside both
/// checksum families, hence the 3-copy TMR.  Alignment: the float/int32
/// regions lead and `bytes` is rounded to a multiple of 4, so an array of
/// blocks keeps every region naturally aligned.
struct I8TileLayout {
  std::size_t dim = 0;
  std::size_t s = 0;        ///< checksum stride the encodings use
  std::size_t payload = 0;  ///< int8 elements per operand (64 * dim)
  std::size_t kcn = 0;      ///< Halfs in one K henc block (s * dim)
  std::size_t kcni = 0;     ///< int32s in one K ienc block (s * 64, over K^T)
  std::size_t vcn = 0;      ///< elements in one V checksum block (64 * s)
  std::size_t scale_off = 0, ienc_off = 0, k_off = 0, v_off = 0, henc_off = 0;
  std::size_t bytes = 0;  ///< total block bytes (multiple of 4)
};
[[nodiscard]] I8TileLayout i8_tile_layout(std::size_t dim, int s) noexcept;

// Typed region accessors over one block (const and mutable).
[[nodiscard]] inline float* i8_scales(std::uint8_t* b,
                                      const I8TileLayout& L) noexcept {
  return reinterpret_cast<float*>(b + L.scale_off);
}
[[nodiscard]] inline const float* i8_scales(const std::uint8_t* b,
                                            const I8TileLayout& L) noexcept {
  return reinterpret_cast<const float*>(b + L.scale_off);
}
[[nodiscard]] inline std::int32_t* i8_ienc(std::uint8_t* b,
                                           const I8TileLayout& L) noexcept {
  return reinterpret_cast<std::int32_t*>(b + L.ienc_off);
}
[[nodiscard]] inline const std::int32_t* i8_ienc(
    const std::uint8_t* b, const I8TileLayout& L) noexcept {
  return reinterpret_cast<const std::int32_t*>(b + L.ienc_off);
}
[[nodiscard]] inline std::int8_t* i8_k(std::uint8_t* b,
                                       const I8TileLayout& L) noexcept {
  return reinterpret_cast<std::int8_t*>(b + L.k_off);
}
[[nodiscard]] inline const std::int8_t* i8_k(const std::uint8_t* b,
                                             const I8TileLayout& L) noexcept {
  return reinterpret_cast<const std::int8_t*>(b + L.k_off);
}
[[nodiscard]] inline std::int8_t* i8_v(std::uint8_t* b,
                                       const I8TileLayout& L) noexcept {
  return reinterpret_cast<std::int8_t*>(b + L.v_off);
}
[[nodiscard]] inline const std::int8_t* i8_v(const std::uint8_t* b,
                                             const I8TileLayout& L) noexcept {
  return reinterpret_cast<const std::int8_t*>(b + L.v_off);
}
[[nodiscard]] inline numeric::Half* i8_henc(std::uint8_t* b,
                                            const I8TileLayout& L) noexcept {
  return reinterpret_cast<numeric::Half*>(b + L.henc_off);
}
[[nodiscard]] inline const numeric::Half* i8_henc(
    const std::uint8_t* b, const I8TileLayout& L) noexcept {
  return reinterpret_cast<const numeric::Half*>(b + L.henc_off);
}

/// Quantize one sealed fp16 tile pair — K^T (dim x 64) and V (64 x dim),
/// the slab's planes — into an i8 block: choose the per-operand
/// power-of-two scales, quantize the payload, then derive BOTH encoding
/// families from the result — the checksum block from the
/// exactly-dequantized k-major payload (bit-equal to the fresh encode a
/// decode call would run over it) and the int32 encodings from the int8
/// payload — and write the TMR scale copies.  The block is fully
/// overwritten; no zeroing is required beforehand.
void quantize_sealed_tile(const numeric::Half* kt_tile,
                          const numeric::Half* v_tile, std::size_t dim, int s,
                          std::uint8_t* block);

/// Outcome of verifying one i8 block against its own redundancy.
enum class I8ScrubResult { kClean, kRepaired, kUnrepairable };

/// The i8 arm of the KV scrubber: majority-vote the TMR scale copies, run
/// the exact integer verify/correct over both payloads (equality, zero
/// threshold — abft::verify_correct_*_i8), then recompute the checksum
/// block from the repaired, dequantized payload and rewrite it on
/// mismatch.  Repairs happen in place; kUnrepairable means >= 2 faults in
/// one residue class (or a three-way scale disagreement) and the caller
/// must drop the tile.
[[nodiscard]] I8ScrubResult scrub_i8_tile(std::uint8_t* block,
                                          std::size_t dim, int s);
}  // namespace detail

/// 128-bit prefix-chain key.  Value-initialized = the empty-chain root.
struct ChainKey {
  std::uint64_t a = 0, b = 0;

  friend bool operator==(const ChainKey& x, const ChainKey& y) noexcept {
    return x.a == y.a && x.b == y.b;
  }
};

/// Extend `parent` with `bytes` more input (two independent FNV-1a chains).
[[nodiscard]] ChainKey chain_extend(const ChainKey& parent, const void* data,
                                    std::size_t bytes) noexcept;

struct TilePoolOptions {
  std::size_t layers = 0;
  std::size_t heads = 0;
  std::size_t dim = 0;
  /// Pool capacity in context tiles.  0 = unbounded: acquire() never fails,
  /// the pool grows on demand and eviction only recycles dead/cached tiles
  /// that already exist.
  std::size_t capacity_tiles = 0;
  /// Checksum stride for the sealed-tile encodings.  Must be positive and
  /// divide both the 64-row tile and `dim`; the constructor throws
  /// std::invalid_argument otherwise.
  int enc_stride = abft::StridedAbft::kDefaultStride;
  /// The fp16 tile's K layout; kF16T (K^T, dim x 64 halves in the slab
  /// itself, no extra memory) is the only one.
  core::ImagePolicy images = core::ImagePolicy::kF16T;
};

/// Outcome of one incremental scrub pass (TilePool::scrub).
struct ScrubReport {
  std::size_t scanned = 0;   ///< sealed tiles verified this pass
  std::size_t repaired = 0;  ///< (layer, head) blocks repaired in place
  /// Unrepairable tiles: unpublished and unsealed by the pool; the caller
  /// (engine) must force their owning requests down the
  /// recompute-on-readmission path before any further compute.
  std::vector<std::size_t> dropped;
};

class TilePool {
 public:
  using TileId = std::size_t;
  static constexpr TileId kNoTile = static_cast<TileId>(-1);
  static constexpr std::size_t kTileRows = core::KvSlice::kTileRows;

  explicit TilePool(TilePoolOptions opt);

  /// Incremental KV scrubber: walk up to `max_tiles` sealed tiles (a
  /// round-robin cursor persists across calls) and re-verify each (layer,
  /// head) block's in-slab checksum block against a fresh encode of its
  /// stored K^T and V, bit for bit (kI8 tiles: detail::scrub_i8_tile).
  ///
  ///   * exactly one checksum element disagrees -> checksum-class
  ///     corruption, the sealed block is rewritten in place (`repaired`);
  ///   * two or more disagree -> payload-class corruption.  The slab holds
  ///     each key and value once, so nothing can restore the payload: the
  ///     tile is unpublished, unsealed and reported in `dropped`
  ///     (refcount-0 tiles go straight to the dead list), and its owners
  ///     replay to the clean bits.
  ///
  /// Classification is exact under a single-fault assumption per tile;
  /// sub-threshold low-order payload flips that cancel in every checksum
  /// are indistinguishable from a checksum flip and repaired as such —
  /// the same precision floor the decode-time ABFT thresholds accept.
  ///
  /// NOTE: memory faults are outside the paper's fault model (KV storage
  /// is assumed ECC-protected); the scrubber is the belt-and-braces rung
  /// for deployments without that guarantee, exercised through the
  /// serve::testing corruption hooks below.
  ScrubReport scrub(std::size_t max_tiles);

  /// A fresh zero-initialized tile with refcount 1, reclaiming dead tiles,
  /// then fresh capacity, then evicting the LRU cached tile.  kNoTile only
  /// when the pool is bounded and every tile is referenced.
  ///
  /// `fmt` picks the tile's sealed storage format; both formats coexist in
  /// one pool, and a reclaimed tile converts to the requested format on
  /// reuse.  A kI8 tile stages its appends in the ordinary fp16 slab (the
  /// ragged tail is always fp16); at seal time each (layer, head) block is
  /// quantized into the tile's i8 slab (detail::quantize_sealed_tile — the
  /// owning PagedKvCache drives this per layer) and the pool-wide seal()
  /// frees the staging slab, which is the capacity win.
  [[nodiscard]] TileId acquire(core::TileFmt fmt = core::TileFmt::kF16);

  void retain(TileId id);
  /// Drop one reference.  Throws std::logic_error on refcount underflow —
  /// an underflow means a block table double-released a tile, which the
  /// randomized stress test treats as corruption, never as noise.
  void release(TileId id);

  /// Probe the prefix registry.  On a hit the tile is retained for the
  /// caller (and pulled off the cached list if it was unreferenced).
  [[nodiscard]] TileId lookup_shared(const ChainKey& key);

  /// Mark a tile fully written (all layers appended and encoded).  Only
  /// sealed tiles may be attached by other requests.  Sealing a kI8 tile
  /// frees its fp16 staging slab — every (layer, head) block must already
  /// be quantized into the i8 slab; kt_tile()/v_tile()/enc_block() return
  /// nullptr for it from here on.
  void seal(TileId id);
  [[nodiscard]] bool sealed(TileId id) const;

  /// Register a sealed tile under a prefix key.  First writer wins: if the
  /// key is already mapped the call is a no-op returning false (the caller
  /// keeps its private tile; the earlier copy stays the shared one).
  bool publish(TileId id, const ChainKey& key);

  // --- storage access (slab layout: per (layer, head): [K^T dim*64 |
  //     V 64*dim | Kc1^T dim*s | Kc2^T dim*s | Vc1 64*s | Vc2 64*s])
  /// K^T of one (layer, head) tile: row c holds feature c of the tile's 64
  /// rows (KvSlice::f16t's layout), written column by column as rows
  /// append and zero past the valid rows.  nullptr once a kI8 tile seals
  /// (its staging slab is freed), like v_tile() and enc_block().
  [[nodiscard]] numeric::Half* kt_tile(TileId id, std::size_t layer,
                                       std::size_t head) noexcept;
  [[nodiscard]] numeric::Half* v_tile(TileId id, std::size_t layer,
                                      std::size_t head) noexcept;
  /// The checksum block of one (layer, head) tile
  /// (core::encode_tile_checksums layout).
  [[nodiscard]] numeric::Half* enc_block(TileId id, std::size_t layer,
                                         std::size_t head) noexcept;
  /// Storage format the tile was acquired with (kF16 tiles never hold an i8
  /// slab; kI8 tiles hold one from acquisition and drop their fp16 staging
  /// slab at seal).
  [[nodiscard]] core::TileFmt format(TileId id) const;
  /// One (layer, head) block of a kI8 tile's i8 slab
  /// (detail::I8TileLayout), or nullptr for kF16 tiles.
  [[nodiscard]] std::uint8_t* i8_block(TileId id, std::size_t layer,
                                       std::size_t head) noexcept;
  /// Bytes of one (layer, head) i8 block.
  [[nodiscard]] std::size_t i8_block_bytes() const noexcept {
    return i8_block_bytes_;
  }

  [[nodiscard]] std::size_t layers() const noexcept { return layers_; }
  [[nodiscard]] std::size_t heads() const noexcept { return heads_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] int enc_stride() const noexcept { return enc_stride_; }
  /// Capacity in tiles (0 = unbounded).
  [[nodiscard]] std::size_t capacity() const noexcept {
    return capacity_tiles_;
  }
  /// Tiles ever materialized (<= capacity when bounded).
  [[nodiscard]] std::size_t allocated() const noexcept {
    return tiles_.size();
  }
  /// Tiles with refcount > 0.
  [[nodiscard]] std::size_t in_use() const noexcept { return in_use_; }
  /// Tiles acquire() could hand out without failing: unreferenced tiles
  /// plus unmaterialized capacity (SIZE_MAX when unbounded).  The engine
  /// uses this as its admission hint.
  [[nodiscard]] std::size_t allocatable() const noexcept;
  [[nodiscard]] std::size_t refcount(TileId id) const;
  /// Published (prefix-registered) tiles currently discoverable.
  [[nodiscard]] std::size_t published() const noexcept {
    return registry_.size();
  }
  /// Lifetime counters.
  [[nodiscard]] std::size_t evictions() const noexcept { return evictions_; }
  [[nodiscard]] std::size_t shared_hits() const noexcept {
    return shared_hits_;
  }
  /// Halves per context-tile slab (K+V+checksums across all layers/heads).
  [[nodiscard]] std::size_t slab_halves() const noexcept {
    return slab_halves_;
  }
  /// Bytes held by *referenced* tiles (what live requests pin).  Format-
  /// aware: sums each tile's actual current slabs — fp16 (freed when a kI8
  /// tile seals), i8 — so a mixed-format pool reports the real mixed
  /// footprint.
  [[nodiscard]] std::size_t bytes_in_use() const noexcept;
  /// Steady-state bytes of one sealed tile of `fmt` in this pool's
  /// configuration (kF16: the fp16 slab; kI8: the i8 slab alone — its
  /// staging slab is freed at seal).  The byte-capacity planning hook for
  /// benches and the capacity gauges.
  [[nodiscard]] std::size_t tile_bytes(core::TileFmt fmt) const noexcept;

 private:
  struct ChainKeyHash {
    std::size_t operator()(const ChainKey& k) const noexcept {
      return static_cast<std::size_t>(k.a ^ (k.b * 0x9e3779b97f4a7c15ull));
    }
  };

  struct Tile {
    /// fp16 slab: the tile's storage for kF16 tiles, the append staging
    /// area for kI8 tiles (freed when a kI8 tile seals, reallocated on
    /// recycle).
    std::unique_ptr<numeric::Half[]> slab;
    /// i8 slab (kI8 tiles only): one detail::I8TileLayout block per
    /// (layer, head).  Not zeroed on recycle — it is fully overwritten at
    /// seal time and never read before.
    std::unique_ptr<std::uint8_t[]> qslab;
    core::TileFmt format = core::TileFmt::kF16;
    std::size_t refs = 0;
    bool sealed = false;
    bool is_published = false;
    ChainKey key;       // valid while is_published
    std::uint64_t stamp = 0;  // matches its cached-list entry; 0 = not listed
  };

  [[nodiscard]] Tile& checked(TileId id);
  [[nodiscard]] const Tile& checked(TileId id) const;
  /// Reset a reclaimed tile for reuse as `fmt`: zero (or reallocate) the
  /// fp16 slab (the decode kernel's ragged-tail padding convention), swap
  /// the format-specific slabs, clear seal/publication state.
  void recycle(TileId id, core::TileFmt fmt);
  [[nodiscard]] std::size_t offset(std::size_t layer,
                                   std::size_t head) const noexcept;

  std::size_t layers_, heads_, dim_;
  int enc_stride_;
  std::size_t capacity_tiles_;
  std::size_t per_lh_halves_ = 0;  // K+V+checksums of one (layer, head)
  std::size_t slab_halves_ = 0;
  std::size_t i8_block_bytes_ = 0;  // one (layer, head) i8 block
  std::size_t in_use_ = 0;
  std::size_t evictions_ = 0;
  std::size_t shared_hits_ = 0;
  std::size_t scrub_cursor_ = 0;  // round-robin scrub position
  std::uint64_t clock_ = 0;
  std::vector<Tile> tiles_;
  std::deque<TileId> dead_;                       // refcount 0, unpublished
  std::deque<std::pair<TileId, std::uint64_t>> cached_;  // LRU, lazy-stale
  std::unordered_map<ChainKey, TileId, ChainKeyHash> registry_;
};

namespace testing {
/// Test-only memory-corruption hooks for the scrubber: flip one bit of a
/// sealed tile's storage.  Memory faults are outside the paper's fault model
/// (KV storage is assumed ECC-protected), so these exist purely to exercise
/// TilePool::scrub()'s classification/repair paths — never a serving API.
/// `half_index` addresses the (layer, head) block's contiguous
/// [K^T | V | encodings] halves.  Every hook validates its target: an index
/// past the block throws std::out_of_range, a tile without the addressed
/// slab throws std::logic_error.
void flip_slab_bit(TilePool& pool, TilePool::TileId id, std::size_t layer,
                   std::size_t head, std::size_t half_index, unsigned bit);
/// i8-tile counterpart: flip one bit of one byte of a kI8 tile's
/// (layer, head) block — `byte_index` addresses the whole
/// detail::I8TileLayout block (scales, int32 encodings, payload and Half
/// encodings are all reachable), so every scrubber classification arm is
/// exercisable.  Throws std::logic_error on a kF16 tile.
void flip_i8_bit(TilePool& pool, TilePool::TileId id, std::size_t layer,
                 std::size_t head, std::size_t byte_index, unsigned bit);
}  // namespace testing

/// Process-default sealed-tile format: core::TileFmt::kI8 when the
/// FTT_KV_QUANT environment variable is set to anything but "" or "0",
/// else kF16.  This is the int8-default-on switch the CI matrix leg flips
/// (scripts/run_tier1.sh): every PagedKvCache and DecodeEngine that does
/// not pick a format explicitly inherits it, so the whole serve stack —
/// engine ticks, prefix sharing, recovery ladder — runs quantized without
/// touching a line of test code.  Read once and cached; explicit
/// constructor/option arguments always win.
[[nodiscard]] core::TileFmt default_tile_format() noexcept;

/// One request's paged view of the pool: a block table of context tiles plus
/// the per-(layer, head) tile-pointer arrays core::KvSlice consumes.
///
/// The write protocol matches the engine's tick: ensure_capacity() runs in
/// the tick's memory phase (the only place tiles are acquired — it can fail,
/// and failure is the preemption signal), then append_chunk() lands the same
/// rows layer by layer and never allocates.  Per-layer lengths track the
/// mid-tick state where layer L has appended this tick's rows but layer L+1
/// has not; slice(layer, head) reads the per-layer length.
///
/// Appends write each row's K as one column of the tile's K^T plane and its
/// V as one row.  When a (layer, head) tile fills, its checksum block is
/// encoded from those planes (core::encode_tile_checksums, the bits of a
/// fresh per-call encode; a kI8 request quantizes the block instead);
/// when the *last* layer fills, the tile is sealed pool-wide and reported
/// through take_newly_sealed() so the engine can publish fully-prompt tiles
/// for prefix sharing.
class PagedKvCache {
 public:
  /// `fmt` is the request's sealed-tile format: kI8 quantizes every tile
  /// the request fills as it seals (per layer — a layer's block converts
  /// the moment that layer's rows complete the tile) and attaches only kI8
  /// shared tiles; the open ragged tail always stays fp16.  Both formats
  /// coexist in one pool; the engine keys prefix chains per format, and
  /// attach_shared() enforces the no-cross-format rule besides.
  explicit PagedKvCache(TilePool& pool,
                        core::TileFmt fmt = default_tile_format());
  ~PagedKvCache();
  PagedKvCache(const PagedKvCache&) = delete;
  PagedKvCache& operator=(const PagedKvCache&) = delete;

  /// Attach an already-sealed shared tile at the end of the block table
  /// (admission-time prefix reuse; the pool retained it in lookup_shared).
  /// All per-layer lengths advance by the full 64 rows.
  void attach_shared(TilePool::TileId id);

  /// Grow the block table until it can hold `tokens` context rows.  Returns
  /// false — with the table unchanged beyond already-acquired tiles — when
  /// the pool cannot supply a tile; the caller preempts and retries, or
  /// backs off.
  [[nodiscard]] bool ensure_capacity(std::size_t tokens);

  /// Append `rows` tokens' K/V for one layer (stacked head-major rows of
  /// heads*dim halves each — the split-heads layout of a projected
  /// rows x hidden block).  Capacity must already be
  /// ensured; throws std::logic_error otherwise — the engine's memory phase
  /// is the only allocation site by design.
  ///
  /// `defer_seal` is the speculative-append mode: tiles this chunk fills
  /// are NOT sealed (no encodings, no pool-wide seal, no publication
  /// candidacy), because some of the chunk's rows may be rejected and
  /// rolled back — a sealed tile is immutable and shareable, so sealed
  /// tiles are never speculative.  truncate() seals whatever the commit
  /// leaves fully covered.
  void append_chunk(std::size_t layer, std::span<const numeric::Half> k,
                    std::span<const numeric::Half> v, std::size_t rows,
                    bool defer_seal = false);

  /// Commit a speculative tick: roll the context back to `tokens` rows
  /// (the accepted prefix), then seal every tile the committed context
  /// fully covers.  Rolled-back rows (V rows, K^T columns) are zeroed in
  /// the kept open tile (restoring the kernel's zero-padding convention);
  /// tail tiles left
  /// entirely empty are released back to the pool (they were acquired
  /// fresh this tick and recycle zeroed).  Requires every layer to have
  /// appended the same row count (the post-compute state of a tick) and
  /// `tokens` to lie at or beyond the sealed region — sealed tiles are
  /// never speculative, so rolling back into one is a logic error.
  void truncate(std::size_t tokens);

  [[nodiscard]] core::KvSlice slice(std::size_t layer,
                                    std::size_t head) const;

  /// Context rows fully appended (every layer).
  [[nodiscard]] std::size_t length() const noexcept;
  [[nodiscard]] std::size_t layer_length(std::size_t layer) const {
    return layer_len_.at(layer);
  }
  [[nodiscard]] const std::vector<TilePool::TileId>& block_table()
      const noexcept {
    return table_;
  }
  /// Tiles attached through prefix sharing (vs acquired fresh).
  [[nodiscard]] std::size_t shared_tiles() const noexcept {
    return shared_tiles_;
  }

  /// Block-table indices whose tiles sealed (all layers full) since the
  /// last call — the engine publishes the fully-prompt ones.
  [[nodiscard]] std::vector<std::size_t> take_newly_sealed();

  /// Release every tile and reset to empty (preemption / retirement).
  void release_all();

  /// The request's sealed-tile format.
  [[nodiscard]] core::TileFmt format() const noexcept { return fmt_; }

 private:
  struct HeadPtrs {
    // Per-tile fp16 payload pointers — the K^T plane and V — and checksum
    // blocks (enc: null until the layer tile seals; f16t and v: null once
    // a kI8 layer tile quantizes).
    std::vector<const numeric::Half*> f16t, v, enc;
    // Per-tile i8 payload pointers and power-of-two scales (kI8 caches
    // only; null/0 until the layer tile quantizes).
    std::vector<const std::int8_t*> kq, vq;
    std::vector<float> ks, vs;
  };

  void push_tile_ptrs(TilePool::TileId id, bool with_enc);
  void seal_layer_tile(std::size_t layer, std::size_t tile_index);
  /// Seal layer tiles [sealed_tiles_[layer], upto) in order.  Sealing is
  /// strictly left to right per layer, so the counter fully describes the
  /// sealed region — deferred (speculative) appends simply leave it behind
  /// until truncate() advances it over the committed tiles.
  void seal_layer_through(std::size_t layer, std::size_t upto);

  TilePool* pool_;
  core::TileFmt fmt_;
  std::vector<TilePool::TileId> table_;
  std::vector<std::size_t> layer_len_;
  std::vector<std::size_t> sealed_tiles_;  // per layer: tiles sealed so far
  std::vector<HeadPtrs> ptrs_;  // indexed layer * heads + head
  /// Per-layer, per-tile storage format (kI8 caches only): a tile's layer-L
  /// entry flips to kI8 when layer L quantizes, so a mid-tick slice of an
  /// already-quantized layer streams i8 while later layers still stage
  /// fp16.  Shared across the layer's heads (KvSlice::fmt).
  std::vector<std::vector<core::TileFmt>> layer_fmt_;
  std::size_t shared_tiles_ = 0;
  std::vector<std::size_t> newly_sealed_;
};

}  // namespace ftt::serve
