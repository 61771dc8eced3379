#pragma once
// The compute body of a DecodeEngine tick: layer norms, QKV/output
// projections, cache-backed attention, FFN and the final LN over the tick's
// stacked rows.  Every tick runs it, clean or injected.
//
// The tick's thread-level parallelism is the one OpenMP attention batch per
// layer (core::efta_decode_batch); the linears, layer norms and GELU run on
// the calling thread.

#include <cstddef>
#include <span>

#include "abft/report.hpp"
#include "attention/ft_report.hpp"
#include "core/decode.hpp"
#include "fault/fault.hpp"
#include "serve/tile_pool.hpp"
#include "tensor/tensor.hpp"
#include "transformer/model.hpp"

namespace ftt::serve {

/// One tick entry's compute view: where its rows sit in the stacked matrix
/// and which paged cache its K/V rows append to.  The engine keeps the
/// request bookkeeping (ids, drafts, commits); the tick body sees only
/// the compute.
struct TickRows {
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

/// The tick body: full linears and one OpenMP-parallel efta_decode_batch
/// per layer (under an injector the batch replays its items in serial
/// order, see core/decode.hpp).  `per_item` must hold entries * heads
/// zeroed reports; each (entry, head) slot accumulates across layers.
/// X is the residual stream (updated in place); y receives the final-LN
/// output.  Throws std::invalid_argument before any work when per_item has
/// the wrong size, or an entry has no cache, no rows, or rows
/// [row0, row0 + rows) that do not lie inside X.
TickResult run_tick_solo(const transformer::Model& model,
                         std::span<const TickRows> entries,
                         tensor::MatrixF& X, tensor::MatrixF& y,
                         std::span<attention::FtReport> per_item,
                         const core::EftaOptions& efta, bool protect_linear,
                         fault::FaultInjector* inj);

}  // namespace ftt::serve
