#pragma once
// Per-tick serving counters: each DecodeEngine tick produces one StepStats,
// and the engine's lifetime() and its multi-tick loops fold them with
// merge(), so the fold is written once.
//
// Every field is an integer counter or an integer-counter report, so
// merging is associative and commutative — totals are independent of merge
// order.

#include <cstddef>

#include "abft/report.hpp"
#include "attention/ft_report.hpp"

namespace ftt::serve {

struct StepStats {
  /// Token rows *committed* this tick: prefill rows + decoded tokens.
  /// Summed over a request's lifetime this is its committed context
  /// length (prefix-shared rows are attached, not computed; preempted
  /// rows are recomputed and so counted again; rejected speculative rows
  /// are computed but never committed and so never counted here).
  std::size_t active = 0;
  std::size_t admitted = 0;        ///< requests admitted from the queue
  std::size_t prefill_chunks = 0;  ///< causal prefill chunks run
  std::size_t prefill_rows = 0;    ///< prompt rows absorbed (computed)
  /// Decode tokens *committed* this tick: the fed row of every decoding
  /// request plus its accepted drafts.  Rejected draft rows are computed
  /// but never committed, so they appear in spec_rejected, not here.
  std::size_t decoded = 0;
  std::size_t retired = 0;         ///< requests retired (budget/cap)
  std::size_t spec_proposed = 0;   ///< draft rows scored this tick
  std::size_t spec_accepted = 0;   ///< drafts committed (bit-matched)
  std::size_t spec_rejected = 0;   ///< drafts rolled back
  std::size_t preempted = 0;       ///< requests preempted (pool exhausted)
  std::size_t evicted = 0;         ///< cached prefix tiles evicted
  /// Prefix-tile attach events (tiles mapped from the pool instead of
  /// computed).  Counts *events*: a preempted request re-attaching its
  /// prefix on readmission counts again — each attach is prefill compute
  /// that did not run.
  std::size_t shared_tiles = 0;
  attention::FtReport attention;   ///< merged over all attention slices
  abft::Report linear;             ///< projections + FFN ABFT
  std::size_t activations_clipped = 0;

  // --- recovery ladder (serve/recovery.hpp; all zero with recovery off) ---
  std::size_t retried = 0;    ///< tick compute re-runs (retry attempts)
  std::size_t recovered = 0;  ///< ticks committed clean after >= 1 retry
  std::size_t degraded = 0;   ///< requests served flagged on retry exhaustion
  std::size_t failed = 0;     ///< requests failed/retired on retry exhaustion
  std::size_t scrubbed = 0;       ///< sealed tiles scanned by the scrubber
  std::size_t repaired = 0;       ///< scrubber in-place repairs
  std::size_t scrub_dropped = 0;  ///< unrepairable tiles dropped (owners
                                  ///<   preempted onto recompute)

  /// Accumulate another tick's stats into this one.
  StepStats& merge(const StepStats& o) noexcept {
    active += o.active;
    admitted += o.admitted;
    prefill_chunks += o.prefill_chunks;
    prefill_rows += o.prefill_rows;
    decoded += o.decoded;
    retired += o.retired;
    spec_proposed += o.spec_proposed;
    spec_accepted += o.spec_accepted;
    spec_rejected += o.spec_rejected;
    preempted += o.preempted;
    evicted += o.evicted;
    shared_tiles += o.shared_tiles;
    attention += o.attention;
    linear += o.linear;
    activations_clipped += o.activations_clipped;
    retried += o.retried;
    recovered += o.recovered;
    degraded += o.degraded;
    failed += o.failed;
    scrubbed += o.scrubbed;
    repaired += o.repaired;
    scrub_dropped += o.scrub_dropped;
    return *this;
  }

  StepStats& operator+=(const StepStats& o) noexcept { return merge(o); }
};

}  // namespace ftt::serve
