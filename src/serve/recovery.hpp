#pragma once
// Serving-layer fault recovery policy: the knobs that turn kernel-level
// detection (ABFT checksums, SNVR, per-site injection reports) into action.
//
// The recovery ladder, bottom to top:
//
//   detect/correct (kernels)  ->  tick retry (engine)  ->  KV tile
//   scrubbing (tile pool)
//
// Both rungs act on state and preserve the repo's bit-identity contract:
// replay is deterministic (generation is a pure function of the prompt,
// and the batched/paged paths are bit-identical to solo serial decode), so
// re-running work after a transient fault lands on exactly the bits a clean
// run produces.  Under the paper's single-event-upset assumption — at most
// one transient flip per detection/correction cycle — a retried tick's
// second attempt is clean.  Tick retry triggers on any detection, because
// ABFT *correction* is approximate (checksum reconstruction, not bit-exact
// replay): only a committed attempt with zero detections is provably the
// clean-run bits.
//
// Both rungs default off: a default-constructed RecoveryPolicy reproduces
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

  /// KV tile scrubbing: sealed tiles re-verified against their in-slab
  /// strided-ABFT encodings, `scrub_tiles_per_tick` per tick (round-robin
  /// cursor over the pool).  Single-class corruption is repaired in place;
  /// unrepairable tiles are unpublished and their owning requests preempted
  /// onto the recompute-from-prompt path.  0 = off.  NOTE: this rung
  /// guards *memory* faults, which are outside the paper's fault model
  /// (KV storage is assumed ECC-protected) — it exists for deployments
  /// without that guarantee, and its test hooks live in serve::testing.
  std::size_t scrub_tiles_per_tick = 0;
};

}  // namespace ftt::serve
