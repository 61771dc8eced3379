#pragma once
// Protected cache-backed decode: the autoregressive inference step the
// paper's introduction motivates ("generating a single token in GPT-4
// requires 560 GFLOPs and billions of tokens are produced each day").
//
// The unit of work is a *query block* of 1..64 rows attending over the
// cached K/V of one (request, head) slice, causally masked inside the
// block.  The same hybrid scheme applies per row: strided tensor checksums
// per 64-row KV tile protect q·K^T, the checksum is reused through
// subtract-max + EXP (log-domain product check), the rowsum is range
// restricted, and the output rows carry V column checksums through the
// final normalization — with the per-tile loads and checksum encodes
// amortized across the whole block.
//
// One kernel, three serving workloads, all the same DecodeWorkItem:
//
//   q_len = 1      single-token decode — the classic serving step;
//   q_len = k+1    speculative decode — one committed row plus k drafted
//                  candidates scored in one pass (the engine accepts the
//                  longest bit-matching prefix and rolls the rest back);
//   q_len = 64     chunked prefill — a prompt chunk absorbed per tick.
//
// It is also the kernel behind core::efta_attention, the paper's
// full-sequence attention: each 64-row Q block of a staged slice runs as
// one block, over all rows or causally over its prefix, and only that
// entry point reaches the paper's protection variants (EftaOptions' gemm,
// softmax, unified_verification and causal fields).  The entry points below
// always run causal, strided ABFT + SNVR with unified verification,
// whatever `opt` says; they read its stride and thresholds.
//
// Each output row is bit-identical to running efta_decode_step token by
// token over the same prefix (tests/test_serve.cpp pins this down), which
// is what makes engine-level speculation safe: an accepted draft's hidden
// state *is* the serial result, verified through the same checksummed
// arithmetic.  It is also the same row of causal efta_attention and causal
// flash_attention: GEMM II accumulates straight into the running output,
// flash's grouping (tests/test_decode.cpp).
//
// Context lengths are arbitrary: a ragged final tile (n % 64 != 0) is
// zero-padded to the full 64-row checksum footprint.  Padded K rows produce
// exactly-zero scores (fp16 MACs against zero operands), so the strided
// checksum relation and the EXP product check hold over the padded lanes,
// which are then excluded from the softmax reduction and carry zero weight
// into GEMM II.  Lanes beyond a block row's causal horizon are handled by
// the same convention.
//
// The batch entry point runs many independent (request, head) blocks
// through the kernel, OpenMP-parallel with per-item FtReport aggregation —
// the unit of work a batched serving engine schedules per tick.

#include <cstdint>
#include <span>

#include "attention/ft_report.hpp"
#include "core/efta.hpp"

namespace ftt::core {

/// Storage format of one sealed KV context tile.  kF16 is the native fp16
/// slab; kI8 is the quantized tile format (serve::TilePool seal-time
/// quantization): int8 payload with a per-tile power-of-two scale, exact
/// int32 integer checksums at rest, and the sealed checksum block of the
/// (exactly) dequantized payload for the decode-time ABFT GEMMs.
enum class TileFmt : std::uint8_t { kF16 = 0, kI8 = 1 };

/// The K layout of an fp16 (kF16) pool tile, kF16T: K^T, the d x 64
/// k-major layout the score GEMM streams through gemm_f32_nnh and the
/// checksum encoder reads (KvSlice::f16t).  A serve::TilePool stores every
/// fp16 tile's K this way from its first append, so it is the only layout;
/// the tag survives only as TilePoolOptions::images' one value.
enum class ImagePolicy : std::uint8_t { kF16T };

/// Read-only tiled view of one (request, head) KV slice.  Tile t holds rows
/// [64t, min(64(t+1), n)) of the logical n x d cache.  V is row-major, in
/// storage of 64 x d halves; rows past the valid count must not be read
/// (the kernel zero-pads its working tile instead).  K comes as K^T
/// (`f16t`) or as row-major rows (`k_tiles`), see below.  This is the
/// natural shape of a growable KV cache that appends in 64-row tiles
/// without relocating old rows — and, just as deliberately, of a *paged*
/// cache whose block table maps context tiles to pooled storage
/// (serve::TilePool): the per-tile pointer indirection means the kernel
/// never distinguishes private, pooled or prefix-shared tiles, so paging
/// and sharing are invisible to the verified decode path and cannot
/// perturb its bit-identity guarantees.
///
/// Every tile reaches the kernel as one operand set, whatever its format:
/// K^T for the score GEMM, V for GEMM II, both at storage width, and one
/// checksum block for the four checksum GEMMs.
struct KvSlice {
  static constexpr std::size_t kTileRows = 64;

  /// Optional row-major K per tile, 64 x d halves like V — a raw slice's
  /// layout.  The kernel pads (a ragged tail) and transposes such a tile
  /// per call; it reads k_tiles[j] only for a tile without an f16t entry.
  const numeric::Half* const* k_tiles = nullptr;
  const numeric::Half* const* v_tiles = nullptr;
  std::size_t n = 0;  ///< valid context rows
  std::size_t d = 0;  ///< head dimension

  /// Optional sealed per-tile checksum blocks (serve::TilePool encodes them
  /// once when a tile seals; full tiles are immutable so they are never
  /// invalidated, and a prefix-shared pool tile shares its block with every
  /// request that maps it).  Entry j, when non-null, points at the
  /// encode_tile_checksums block of tile j built with stride enc_stride:
  ///   [ Kc1^T d x s | Kc2^T d x s | Vc1 64 x s | Vc2 64 x s ]
  /// halves, for an fp16 tile and an int8 tile alike.  Entries for the
  /// unsealed ragged tail are null, and the kernel consumes only blocks
  /// built with its own stride option.  They are sealed memory, not
  /// compute: under a fault injector a tile's block stands in for its
  /// per-call encode hooks (FaultInjector::skip), and only a tile one of
  /// whose encode hooks would flip is re-encoded per call, so campaign hook
  /// counts stay stable.
  const numeric::Half* const* enc = nullptr;
  int enc_stride = 0;  ///< checksum stride the blocks were built with

  /// Optional K^T per fp16 tile (ImagePolicy::kF16T): entry j, when
  /// non-null, is K^T of tile j, d x 64 halves, whose columns past the
  /// valid count must be zero.  A serve::TilePool slice passes one for
  /// every fp16 tile, the open ragged tail included, and no k_tiles; the
  /// kernel streams it in place.
  const numeric::Half* const* f16t = nullptr;

  /// Optional per-tile storage formats (null == every tile is kF16, the
  /// layout every field above describes).  A kI8 tile streams its payload
  /// from k_i8/v_i8 instead of f16t/v_tiles (which are null for it) and
  /// widens by exact dequantization — k_scale/v_scale hold the per-tile
  /// power-of-two scales, so q * scale is exact and the decode GEMMs keep
  /// every bit-identity contract.  Layouts are GEMM-native: k_i8[j] is the
  /// *k-major* K^T (d x 64) the fused score GEMM consumes directly, v_i8[j]
  /// is row-major V (64 x d) for GEMM II, and enc[j] is the checksum block
  /// of the dequantized payload (bit-equal to a fresh encode of it).  Only
  /// sealed full tiles are ever kI8; the ragged open tail stays fp16.
  const TileFmt* fmt = nullptr;
  const std::int8_t* const* k_i8 = nullptr;
  const std::int8_t* const* v_i8 = nullptr;
  const float* k_scale = nullptr;  ///< per-tile K scales (power of two)
  const float* v_scale = nullptr;  ///< per-tile V scales (power of two)

  [[nodiscard]] std::size_t tiles() const noexcept {
    return (n + kTileRows - 1) / kTileRows;
  }
};

/// One (request, head) query block of a batched step: the last `q_len` rows
/// of the context attend over `kv`, causally masked inside the block.  The
/// cache must already hold the block's own K/V rows, so the block occupies
/// global positions [kv.n - q_len, kv.n): row r of the block sees exactly
/// rows [0, kv.n - q_len + r] of the cache — its causal prefix, itself
/// included — making each output row bit-identical to feeding the block
/// token by token through efta_decode_step.
///
/// q/out address q_len x d values laid out with a row stride (in elements)
/// of q_stride/out_stride; 0 means densely packed (stride == d).  Strided
/// rows let a serving engine hand head-segments of a stacked hidden matrix
/// to the kernel without gather/scatter copies.
struct DecodeWorkItem {
  KvSlice kv;
  const numeric::Half* q = nullptr;
  float* out = nullptr;
  std::size_t q_len = 1;  ///< 1..64 query rows (1 = plain decode)
  std::size_t q_stride = 0;
  std::size_t out_stride = 0;
};

/// One protected query block for a single head.  Scaling by 1/sqrt(d) is
/// applied internally.  The report covers the whole block — one FtReport
/// witnesses every row, exactly like the per-tile block verifies inside —
/// and `faults_injected` counts only the flips placed during this call
/// (delta, not the injector's lifetime total), matching the batch entry's
/// per-item accounting.  A malformed item — bad shapes or strides (d == 0
/// included), or a tile lacking the payload pointers its format reads (an
/// fp16 tile needs V and one of f16t[j] or k_tiles[j]) — throws
/// std::invalid_argument before any work or hook.
attention::FtReport efta_decode_block(const DecodeWorkItem& item,
                                      const EftaOptions& opt = {},
                                      fault::FaultInjector* inj = nullptr);

/// One protected decode step (q_len = 1 convenience) for a single head over
/// a tiled KV view: the new token at position n-1 attends the whole cache.
attention::FtReport efta_decode_step(const KvSlice& kv,
                                     std::span<const numeric::Half> q,
                                     std::span<float> out,
                                     const EftaOptions& opt = {},
                                     fault::FaultInjector* inj = nullptr);

/// Convenience overload over contiguous n x d caches (any n >= 1).
attention::FtReport efta_decode_step(const tensor::MatrixH& k_cache,
                                     const tensor::MatrixH& v_cache,
                                     std::span<const numeric::Half> q,
                                     std::span<float> out,
                                     const EftaOptions& opt = {},
                                     fault::FaultInjector* inj = nullptr);

/// Protected decode for a whole batch of independent (request, head) query
/// blocks with heterogeneous context lengths and block sizes — single-token
/// decode rows, speculative k-row blocks and 64-row prefill chunks mix
/// freely in one call.  Items are OpenMP-parallel, with or without an
/// injector.  Under one, each item first runs under its own unarmed probe;
/// the items are then replayed in batch order, keeping an item's result
/// when FaultInjector::skip vouches that none of its hook calls would flip
/// and re-running it serially with `inj` otherwise.  Outputs, reports,
/// per-site calls() and events are therefore those of a serial loop of
/// `efta_decode_block` over the items in order, bit for bit.
/// Per-item reports are written to `per_item` when provided (size must
/// match) and merged into the returned aggregate; each item's
/// `faults_injected` counts only the flips placed while that item ran.
/// Every item is validated before any runs.  An empty batch returns a
/// zeroed report without entering an OpenMP region.
attention::FtReport efta_decode_batch(
    std::span<const DecodeWorkItem> items, const EftaOptions& opt = {},
    fault::FaultInjector* inj = nullptr,
    std::span<attention::FtReport> per_item = {});

namespace testing {
/// Thread-local count of KV tiles the kernel has pad-and-copied into scratch
/// since thread start.  Full tiles are consumed zero-copy, so only a ragged
/// tail tile may ever bump this (its V rows, and its K rows when it has no
/// K^T entry) — the property the zero-copy unit test pins down.  Test-only
/// observability; not part of the serving API.
std::size_t& tiles_materialized() noexcept;
/// Thread-local count of KV tiles the kernel has checksum-encoded fresh
/// since thread start: the ragged tail, plus any sealed tile whose block
/// cannot stand in for the encodes (another stride, or an encode hook that
/// would flip).  Test-only observability, like tiles_materialized().
std::size_t& tiles_encoded() noexcept;
}  // namespace testing

}  // namespace ftt::core
