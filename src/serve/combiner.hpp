#pragma once
// Deterministic combine layer for shard-parallel serving.
//
// Shard workers write disjoint column ranges of every float tensor (the
// column-parallel split in serve/shard.hpp), so no float reduction exists
// anywhere in a sharded tick.  What they do produce per shard are
// fault-tolerance reports (attention::FtReport / abft::Report) and per-tick
// StepStats.  The combiner merges those in FIXED SHARD ORDER — never in
// thread-completion order — so a sharded tick is a deterministic function
// of its inputs and the shard count, regardless of how the OS schedules the
// workers.  The merges are integer-counter sums (order-insensitive by
// construction) but run in the same fixed shard order anyway: one
// discipline for every combine.

#include <span>

#include "abft/report.hpp"
#include "attention/ft_report.hpp"
#include "serve/step_stats.hpp"

namespace ftt::serve {

class DeterministicCombiner {
 public:
  /// Merge per-shard reports in fixed shard order (index 0 first).
  [[nodiscard]] static attention::FtReport merge(
      std::span<const attention::FtReport> per_shard) noexcept;
  [[nodiscard]] static abft::Report merge(
      std::span<const abft::Report> per_shard) noexcept;
  [[nodiscard]] static StepStats merge(
      std::span<const StepStats> per_shard) noexcept;
};

}  // namespace ftt::serve
