#pragma once
// Serving-layer fault recovery policy: the knobs that turn kernel-level
// detection (ABFT checksums, SNVR, per-site injection reports) into action.
//
// The recovery ladder, bottom to top:
//
//   detect/correct (kernels)  ->  tick retry (engine)  ->  shard quarantine
//   (engine)  ->  KV tile scrubbing (tile pool)  ->  replica drain
//   (router; see RouterOptions' drain_* knobs)
//
// Every rung preserves the repo's bit-identity contract: replay is
// deterministic (generation is a pure function of the prompt, and the
// batched/sharded/paged paths are bit-identical to solo serial decode), so
// re-running work after a transient fault lands on exactly the bits a clean
// run produces.  Under the paper's single-event-upset assumption — at most
// one transient flip per detection/correction cycle — a retried tick's
// second attempt is clean, a quarantined shard's heads keep computing the
// same bits under the healthy shards' attribution (shards are fault-domain
// labels; the tick body is the same for ANY shard count), and a drained
// replica's requests replay bitwise on a healthy replica.  Tick retry
// triggers on any detection, because ABFT *correction* is approximate
// (checksum reconstruction, not bit-exact replay): only a committed attempt
// with zero detections is provably the clean-run bits.
//
// All rungs default off: a default-constructed RecoveryPolicy reproduces
// the pre-recovery engine exactly, tick for tick and bit for bit.

#include <cstddef>

namespace ftt::serve {

/// What happens to the affected requests when a tick is still faulty after
/// max_tick_retries re-runs.
enum class EscalationPolicy {
  /// Commit the (possibly perturbed, ABFT-corrected) result and mark the
  /// request kFlagged; StepStats::degraded counts each such request-tick.
  kServeFlagged,
  /// Roll the affected requests' appends back and retire them with health
  /// kFailed; the rest of the batch commits normally.
  kFailRequest,
};

/// Per-request fault-recovery status, readable via DecodeEngine::health().
enum class RequestHealth {
  kClean,    ///< no committed tick exhausted its retries
  kFlagged,  ///< served through an exhausted retry (kServeFlagged)
  kFailed,   ///< retired by an exhausted retry (kFailRequest)
};

struct RecoveryPolicy {
  /// Tick retry: re-run a tick's compute (bounded attempts) when its
  /// reports hold any detection (attention or linear ABFT flag), before
  /// committing KV appends and proposer history.  A committed attempt is
  /// then flag-free, so a run whose every tick committed clean is
  /// bitwise-equal to a fault-free run.  0 = off (commit whatever the
  /// kernels produced, the pre-recovery behavior).  A single-transient
  /// fault is gone on the re-run, so one retry normally recovers the
  /// clean-run bits.
  std::size_t max_tick_retries = 0;
  EscalationPolicy on_exhaustion = EscalationPolicy::kServeFlagged;

  /// Shard quarantine: sliding-window attention-fault accounting per shard
  /// (attributed by head ownership, the shard_reports() map).  A shard
  /// whose detections over the last `shard_window_ticks` ticks exceed
  /// `shard_quarantine_threshold` is quarantined: its heads are
  /// re-attributed to the remaining healthy shards (the compute never
  /// reads the map, so degraded mode stays bit-identical to solo) until
  /// probation readmits it.  The last healthy shard is never quarantined.
  /// threshold 0 = quarantine off.
  std::size_t shard_window_ticks = 16;
  std::size_t shard_quarantine_threshold = 0;
  /// Ticks a quarantined shard sits out before readmission (its window
  /// restarts clean; repeat offenders re-quarantine as evidence rebuilds).
  std::size_t shard_probation_ticks = 8;

  /// KV tile scrubbing: sealed tiles re-verified against their in-slab
  /// strided-ABFT encodings, `scrub_tiles_per_tick` per tick (round-robin
  /// cursor over the pool).  Single-class corruption is repaired in place;
  /// unrepairable tiles are unpublished and their owning requests preempted
  /// onto the recompute-from-prompt path.  0 = off.  NOTE: this rung
  /// guards *memory* faults, which are outside the paper's fault model
  /// (KV storage is assumed ECC-protected) — it exists for deployments
  /// without that guarantee, and its test hooks live in serve::testing.
  std::size_t scrub_tiles_per_tick = 0;

  /// True when any rung of the ladder is active.
  [[nodiscard]] bool enabled() const noexcept {
    return max_tick_retries > 0 || shard_quarantine_threshold > 0 ||
           scrub_tiles_per_tick > 0;
  }
};

}  // namespace ftt::serve
