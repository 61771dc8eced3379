#pragma once
// The four benchmark workloads.  Each builds its inputs from the seed, sets
// itself up several times (setup_s is the median), measures a fixed amount
// of work, checks its outputs and returns every metric it has.  With a
// trace path the measured pass is traced and the per-layer metrics are
// derived from it.

#include <cstdint>
#include <string>

#include "support.hpp"

namespace ftbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::string trace;  ///< Chrome trace output path; empty = untraced
  bool smoke = false;  ///< ~1-2 s run on the same code paths and checks
};

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 3;

Result run_chat(const Args& a);
Result run_long_doc(const Args& a);
Result run_chaos(const Args& a);
Result run_paper_attention(const Args& a);

}  // namespace ftbench
