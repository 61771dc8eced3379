#pragma once
// Shard-parallel tick execution: the compute body of a DecodeEngine tick
// (layer norms, QKV/output projections, cache-backed attention, FFN, final
// LN over the tick's stacked rows) extracted from the engine and split
// across N in-process shard workers driven by a barrier-stepped executor.
//
// Decomposition — chosen so the sharded tick is BIT-IDENTICAL to the solo
// engine for any shard count:
//
//   * row phases (LN1/LN2/final-LN, residual adds, fp16 narrowing): every
//     operation is strictly per-row or elementwise, so an even row-range
//     partition reproduces the solo values exactly;
//   * QKV: column-parallel by attention-head ranges (Linear::slice_out over
//     [begin_head, end_head) * head_dim).  head_dim is a multiple of the
//     64-column ABFT tile, so each shard's checksum tiles are a subset of
//     the full layer's — values and ABFT report totals match solo exactly;
//   * attention: per-(request, head) work items partitioned by the worker's
//     core::ShardSpec through the head-range efta_decode_batch overload —
//     items are independent, outputs land in disjoint head-column segments;
//   * output projection and FFN: column-parallel over even 64-tile column
//     ranges (same subset argument as QKV), GELU applied per shard on its
//     own slice (elementwise);
//   * the KV cache append, the per-item report rollup and the speculative
//     commit stay on the coordinator thread between phases — the paged
//     TilePool and the injector-ordering invariants are untouched.
//
// Fault injection: a FaultInjector is stateful and call-order-dependent, so
// the engine never routes an injected tick through the parallel path — it
// runs run_tick_solo (the extracted solo body, exact solo call order) and
// derives per-shard attribution from the per-item reports instead.  The
// attention kernel inside a shard runs serially on the worker's thread (no
// nested OpenMP team): the shard workers ARE the tick's thread-level
// parallelism, and raw std::thread workers keep the path ThreadSanitizer-
// clean.

#include <barrier>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "attention/ft_report.hpp"
#include "core/decode.hpp"
#include "serve/combiner.hpp"
#include "serve/tile_pool.hpp"
#include "transformer/model.hpp"

namespace ftt::serve {

/// One tick entry's compute view: where its rows sit in the stacked matrix
/// and which paged cache its K/V rows append to.  The engine keeps the
/// request bookkeeping (ids, drafts, commits); the shard layer sees only
/// the compute.
struct ShardTickEntry {
  PagedKvCache* cache = nullptr;
  std::size_t row0 = 0;  ///< first row in the stacked X
  std::size_t rows = 0;  ///< query-block rows (prefill chunk / 1 + drafts)
  /// Speculative blocks must not seal tiles until the commit decides what
  /// stays (decode blocks with rows > 1).
  bool defer_seal = false;
};

/// Merged fault-tolerance outcome of one tick's compute.
struct TickResult {
  abft::Report linear;            ///< projections + FFN ABFT
  attention::FtReport attention;  ///< merged over all attention items
  std::size_t activations_clipped = 0;
};

/// The solo tick body, extracted verbatim from the pre-shard engine: full
/// linears, one OpenMP-parallel efta_decode_batch per layer (under an
/// injector the batch replays its items in serial order, see
/// core/decode.hpp).  `per_item` must hold entries * heads
/// zeroed reports; each (entry, head) slot accumulates across layers.
/// X is the residual stream (updated in place); y receives the final-LN
/// output.  This is the reference the sharded path is bit-compared against,
/// and the only tick path that accepts a FaultInjector.
TickResult run_tick_solo(const transformer::Model& model,
                         std::span<const ShardTickEntry> entries,
                         tensor::MatrixF& X, tensor::MatrixF& y,
                         std::span<attention::FtReport> per_item,
                         const core::EftaOptions& efta, bool protect_linear,
                         fault::FaultInjector* inj);

/// One shard's slice of every layer: its head range, its pre-sliced
/// column-parallel linears (weights copied once at construction), its row
/// range of the current tick, and its per-tick report accumulators.
class ShardWorker {
 public:
  ShardWorker(const transformer::Model& model, std::size_t shard,
              std::size_t nshards);

  [[nodiscard]] const core::ShardSpec& head_range() const noexcept {
    return spec_;
  }

  /// Reset per-tick accumulators and compute this tick's row range.
  void begin_tick(std::size_t total_rows);

  // --- phase bodies (each runs between two barriers; see ShardedEngine) ---
  /// dst rows [r0, r1) = src rows, then ln over those rows.
  void copy_ln_rows(const tensor::MatrixF& src, tensor::MatrixF& dst,
                    const transformer::LayerNorm& ln) const;
  /// fp16-round this shard's rows of src into dst.
  void narrow_rows(const tensor::MatrixF& src, tensor::MatrixH& dst) const;
  /// Q/K/V head-column slices of layer `layer` into the full matrices.
  void project_qkv(std::size_t layer, const tensor::MatrixF& h,
                   tensor::MatrixF& qm, tensor::MatrixF& km,
                   tensor::MatrixF& vm, transformer::LinearProtect mode);
  /// This shard's attention items (head-range batch overload, serial).
  void attend(std::span<const core::DecodeWorkItem> items,
              std::span<const std::size_t> item_heads,
              const core::EftaOptions& efta,
              std::span<attention::FtReport> per_item);
  /// Output projection, column-parallel tile range.
  void project_wo_cols(std::size_t layer, const tensor::MatrixF& attn,
                       tensor::MatrixF& proj, transformer::LinearProtect mode);
  /// X rows += add rows; h2 rows = X rows; ln2 over the rows.
  void residual_ln_rows(tensor::MatrixF& X, const tensor::MatrixF& add,
                        tensor::MatrixF& h2,
                        const transformer::LayerNorm& ln2) const;
  /// FFN first linear (column slice) + per-slice range-restricted GELU.
  void ffn_w1_gelu(std::size_t layer, const tensor::MatrixF& h2,
                   tensor::MatrixF& mid, transformer::LinearProtect mode,
                   bool protect);
  /// FFN second linear (column slice over the full activation matrix).
  void ffn_w2(std::size_t layer, const tensor::MatrixF& mid,
              tensor::MatrixF& ffn_out, transformer::LinearProtect mode);
  /// X rows += add rows.
  void residual_rows(tensor::MatrixF& X, const tensor::MatrixF& add) const;

  // --- per-tick accumulators (merged by the executor in shard order) ---
  [[nodiscard]] const abft::Report& linear_report() const noexcept {
    return linear_;
  }
  [[nodiscard]] std::size_t activations_clipped() const noexcept {
    return clipped_;
  }

 private:
  struct LayerSlices {
    transformer::Linear wq, wk, wv;          ///< head-column slices
    transformer::Linear wo_cols;             ///< 64-tile column slice
    transformer::Linear w1, w2;              ///< FFN 64-tile column slices
    transformer::RangeRestrictedGelu act;    ///< block's GELU (per-slice)
  };

  /// forward the slice into scratch_, scatter into full columns
  /// [col0, col0 + slice.out_features()).
  void project_cols(const transformer::Linear& slice, std::size_t col0,
                    const tensor::MatrixF& x, tensor::MatrixF& full,
                    transformer::LinearProtect mode);

  std::size_t shard_ = 0, nshards_ = 1;
  core::ShardSpec spec_;       ///< attention-head range
  std::size_t qkv_col0_ = 0;   ///< begin_head * head_dim
  std::size_t qkv_cols_ = 0;   ///< heads() * head_dim
  std::size_t hid_col0_ = 0;   ///< 64-tile column range over hidden
  std::size_t inner_col0_ = 0; ///< 64-tile column range over ffn inner
  std::vector<LayerSlices> layers_;
  std::size_t row0_ = 0, row1_ = 0;  ///< this tick's row range
  tensor::MatrixF scratch_;    ///< dense column-slice output
  abft::Report linear_;
  std::size_t clipped_ = 0;
};

/// Barrier-stepped executor: owns N ShardWorkers and N-1 persistent worker
/// threads (the caller is shard 0), and steps them phase by phase through
/// run_tick.  Every phase is the same function applied to every shard;
/// consecutive phases are separated by a full barrier, and everything
/// order-sensitive (cache appends, report merges) runs on the coordinator
/// between phases, in fixed shard order.
class ShardedEngine {
 public:
  ShardedEngine(const transformer::Model& model, std::size_t shards);
  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  [[nodiscard]] std::size_t shards() const noexcept { return workers_.size(); }
  [[nodiscard]] const ShardWorker& worker(std::size_t s) const {
    return workers_.at(s);
  }

  /// The sharded tick body: same contract as run_tick_solo (per_item holds
  /// entries * heads zeroed reports, X is the residual stream, y gets the
  /// final-LN output), minus the injector — injected ticks must run solo.
  /// The outputs, per-item reports and merged TickResult are bit-identical
  /// to run_tick_solo for any shard count.
  TickResult run_tick(std::span<const ShardTickEntry> entries,
                      tensor::MatrixF& X, tensor::MatrixF& y,
                      std::span<attention::FtReport> per_item,
                      const core::EftaOptions& efta, bool protect_linear);

 private:
  /// Run fn(shard) on every shard — shard 0 on the calling thread — and
  /// return when all are done.  Exceptions are collected and the first
  /// (lowest shard index) is rethrown on the caller.
  void run_phase(const std::function<void(std::size_t)>& fn);
  void worker_loop(std::size_t shard);

  const transformer::Model* model_;
  std::vector<ShardWorker> workers_;
  std::vector<std::thread> threads_;
  std::unique_ptr<std::barrier<>> start_, done_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;
};

}  // namespace ftt::serve
