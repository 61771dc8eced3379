#include "serve/combiner.hpp"

namespace ftt::serve {

attention::FtReport DeterministicCombiner::merge(
    std::span<const attention::FtReport> per_shard) noexcept {
  attention::FtReport total;
  for (const auto& r : per_shard) total += r;
  return total;
}

abft::Report DeterministicCombiner::merge(
    std::span<const abft::Report> per_shard) noexcept {
  abft::Report total;
  for (const auto& r : per_shard) total += r;
  return total;
}

StepStats DeterministicCombiner::merge(
    std::span<const StepStats> per_shard) noexcept {
  StepStats total;
  for (const auto& s : per_shard) total.merge(s);
  return total;
}

}  // namespace ftt::serve
