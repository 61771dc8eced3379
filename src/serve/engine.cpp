#include "serve/engine.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace ftt::serve {

using attention::FtReport;
using numeric::Half;
using tensor::MatrixF;
using tensor::MatrixH;
using transformer::Block;
using transformer::LinearProtect;

namespace {

/// Preemption rank: lower is better-protected.  Victims are drawn worst
/// first — lowest priority class, then youngest (largest id) — so the
/// oldest request of the most urgent class is never preempted by anyone.
[[nodiscard]] bool better_rank(Priority pa, std::size_t ida, Priority pb,
                               std::size_t idb) noexcept {
  if (pa != pb) return pa < pb;
  return ida < idb;
}

}  // namespace

DecodeEngine::DecodeEngine(const transformer::Model& model, EngineOptions opt)
    : model_(&model),
      opt_(opt),
      // The pool fails fast (std::invalid_argument) on a checksum stride
      // that does not divide both the 64-row tile and head_dim — the
      // stride every slice's kernel call would reject.
      pool_(TilePoolOptions{model.config().layers, model.config().heads,
                            model.config().head_dim(),
                            opt.scheduler.max_kv_tiles, opt.efta.stride}),
      scheduler_(opt.scheduler) {
  // The cache-backed kernels are fixed to strided ABFT + SNVR; reject knob
  // values they would silently ignore.
  if (opt_.efta.gemm != core::GemmProtect::kStrided ||
      opt_.efta.softmax != core::SoftmaxProtect::kSNVR) {
    throw std::invalid_argument(
        "DecodeEngine: serving supports only strided ABFT + SNVR");
  }
  if (opt_.prefill_chunk_rows == 0 ||
      opt_.prefill_chunk_rows > core::KvSlice::kTileRows) {
    throw std::invalid_argument(
        "DecodeEngine: prefill_chunk_rows must be in [1, 64]");
  }
  if (opt_.max_context == 0) {
    throw std::invalid_argument("DecodeEngine: max_context must be >= 1");
  }
  // A speculative block is 1 committed row + spec_tokens drafts and must
  // fit the kernel's 64-row query block.
  if (opt_.spec_tokens >= core::KvSlice::kTileRows) {
    throw std::invalid_argument(
        "DecodeEngine: spec_tokens must be in [0, 63]");
  }
  if (opt_.spec_tokens > 0) {
    proposer_ = opt_.proposer ? opt_.proposer
                              : std::make_shared<PromptLookupProposer>();
  } else if (opt_.proposer != nullptr) {
    // Same policy as the efta knobs above: reject a configuration the
    // engine would silently ignore — a custom drafter with speculation
    // off would never be called.
    throw std::invalid_argument(
        "DecodeEngine: a proposer was supplied but spec_tokens is 0 — "
        "speculation would be silently off");
  }
}

DecodeEngine::RequestId DecodeEngine::submit(const MatrixF& prompt_hidden,
                                             std::size_t max_new_tokens,
                                             Priority priority) {
  return submit_with_format(prompt_hidden,
                            opt_.kv_quant ? core::TileFmt::kI8
                                          : core::TileFmt::kF16,
                            max_new_tokens, priority);
}

DecodeEngine::RequestId DecodeEngine::submit_with_format(
    const MatrixF& prompt_hidden, core::TileFmt kv_fmt,
    std::size_t max_new_tokens, Priority priority) {
  const auto& cfg = model_->config();
  if (prompt_hidden.rows() == 0 || prompt_hidden.cols() != cfg.hidden) {
    throw std::invalid_argument(
        "DecodeEngine::submit: prompt must be seq x hidden with seq >= 1");
  }
  if (prompt_hidden.rows() > opt_.max_context) {
    throw std::invalid_argument("DecodeEngine::submit: prompt exceeds "
                                "max_context");
  }
  Request req;
  req.prompt = prompt_hidden;
  req.prompt_rows = prompt_hidden.rows();
  req.priority = priority;
  req.kv_fmt = kv_fmt;
  // Clamp overflow-safely: a huge budget (SIZE_MAX as an "unlimited"
  // sentinel) must saturate at max_context, not wrap below the prompt.
  const std::size_t headroom = opt_.max_context - req.prompt_rows;
  req.max_tokens = (max_new_tokens == 0 || max_new_tokens >= headroom)
                       ? opt_.max_context
                       : req.prompt_rows + max_new_tokens;
  if (opt_.share_prefix) {
    // Chain keys over the prompt's hidden rows, one per *shareable* tile.
    // The last prompt row is never shared — its forward pass seeds
    // generation — so at most (prompt_rows - 1) / 64 tiles are keyed.
    const std::size_t shareable = (req.prompt_rows - 1) / TilePool::kTileRows;
    ChainKey key;  // empty-chain root
    if (kv_fmt == core::TileFmt::kI8) {
      // Per-format chain root: fold a tag byte in so an i8 request's
      // prefix keys can never hit an fp16 request's tiles (or vice versa).
      // attach_shared() enforces the same rule as a hard backstop.
      const std::uint8_t tag = 1;
      key = chain_extend(key, &tag, sizeof(tag));
    }
    for (std::size_t t = 0; t < shareable; ++t) {
      key = chain_extend(
          key, &req.prompt(t * TilePool::kTileRows, 0),
          TilePool::kTileRows * cfg.hidden * sizeof(float));
      req.prompt_keys.push_back(key);
    }
  }

  const RequestId id = requests_.size();
  // Transactional admit to the queue: a typed rejection (or a throw) must
  // not keep a phantom entry on either side.
  requests_.push_back(std::move(req));
  EnqueueResult result;
  try {
    // job_rows = prompt rows: the SJF size key (prefill work dominates
    // queueing delay; ignored under the default FCFS policy).
    result = scheduler_.enqueue(id, requests_.back().max_tokens, priority,
                                requests_.back().prompt_rows);
  } catch (...) {
    requests_.pop_back();
    throw;
  }
  if (result == EnqueueResult::kRejectedTooLarge) {
    requests_.pop_back();
    throw std::invalid_argument(
        "DecodeEngine::submit: context ceiling exceeds the KV pool — the "
        "request could never run, even alone");
  }
  return id;
}

std::size_t DecodeEngine::next_rows(const Request& req, RequestId id) const {
  if (scheduler_.state(id) == RequestState::kPrefilling) {
    return std::min(opt_.prefill_chunk_rows, req.prompt_rows - req.prefilled);
  }
  // Decode: the committed row plus this tick's drafted block (0 outside a
  // speculative tick; the memory phase may shed drafts under pressure).
  return 1 + req.draft_rows;
}

DecodeEngine::StepStats DecodeEngine::step(fault::FaultInjector* inj) {
  const auto& cfg = model_->config();
  StepStats stats;
  const std::size_t evictions_at_start = pool_.evictions();

  // Scrub before anything reads the pool: a tile dropped here preempts its
  // owners in the same breath, so this tick's compute can never consume a
  // context the scrubber just declared untrustworthy.
  if (opt_.recovery.scrub_tiles_per_tick > 0) run_scrubber(stats);

  // (a) retire requests that reached their budget or the context cap.  Done
  // at tick start so the final token's hidden state was readable for one
  // tick, matching the pre-scheduler engine's behavior at max_context.
  for (std::size_t i = 0; i < live_.size();) {
    const RequestId id = live_[i];
    if (scheduler_.state(id) == RequestState::kDecoding &&
        requests_[id].tokens >= requests_[id].max_tokens) {
      retire(id);  // erases live_[i]; the next candidate slides into i
      ++stats.retired;
    } else {
      ++i;
    }
  }

  // (b) admit queued requests, high class first; the allocatable-tile hint
  // throttles admissions the pool could not feed.
  for (const RequestId id : scheduler_.admit(pool_.allocatable())) {
    Request& req = requests_[id];
    req.cache = std::make_unique<PagedKvCache>(pool_, req.kv_fmt);
    req.prefilled = 0;
    req.tokens = 0;
    live_.push_back(id);
    ++stats.admitted;
  }
  // Priority admission can admit ids out of order; the tick's row-stack is
  // in request-id order (the order the bit-identity tests pin).
  std::sort(live_.begin(), live_.end());

  // Draft phase: propose candidate rows for every decoding request before
  // the memory phase sizes its block.  Drafting is clamped to the
  // remaining budget so a retired stream is exactly the serial stream —
  // speculation must never overshoot max_tokens.
  if (proposer_ != nullptr) {
    for (const RequestId id : live_) {
      Request& req = requests_[id];
      req.draft_rows = 0;
      if (scheduler_.state(id) != RequestState::kDecoding) continue;
      const std::size_t room = req.max_tokens - req.tokens;  // >= 1 here
      if (room <= 1) continue;  // last budgeted token: nothing to draft
      const std::size_t want = std::min(opt_.spec_tokens, room - 1);
      req.draft.resize(want * cfg.hidden);
      req.draft_rows = std::min(
          want, proposer_->propose(id, want, cfg.hidden, req.draft.data()));
    }
  }

  // (c) memory phase: on-demand paged allocation, best-ranked request
  // first.  The only allocation site — the compute below cannot fail.
  std::vector<RequestId> granted;
  {
    std::vector<RequestId> order(live_);
    std::sort(order.begin(), order.end(), [&](RequestId a, RequestId b) {
      return better_rank(requests_[a].priority, a, requests_[b].priority, b);
    });
    for (const RequestId id : order) {
      if (scheduler_.state(id) == RequestState::kQueued) continue;  // victim
      Request& req = requests_[id];
      // Prefix attach before computing anything: whenever the rows this
      // request would prefill next are a tile already cached in the pool —
      // published at admission time, or by another request mid-run —
      // attach it instead of recomputing.  Checked at every tile boundary,
      // so a request admitted alongside the prefix's first computer still
      // picks up every tile sealed after its own admission.
      if (opt_.share_prefix &&
          scheduler_.state(id) == RequestState::kPrefilling) {
        while (req.prefilled % TilePool::kTileRows == 0 &&
               req.prefilled / TilePool::kTileRows < req.prompt_keys.size()) {
          const std::size_t t = req.prefilled / TilePool::kTileRows;
          const TilePool::TileId tid =
              pool_.lookup_shared(req.prompt_keys[t]);
          if (tid == TilePool::kNoTile) break;  // chain miss: compute on
          req.cache->attach_shared(tid);
          req.prefilled += TilePool::kTileRows;
          req.tokens += TilePool::kTileRows;
          ++stats.shared_tiles;
        }
      }
      std::size_t rows = next_rows(req, id);
      bool ok;
      while (!(ok = req.cache->ensure_capacity(req.tokens + rows))) {
        // Shed this request's own speculation before preempting anyone:
        // drafts are an optimistic extra, never worth evicting a peer for.
        if (req.draft_rows > 0) {
          req.draft_rows = 0;
          rows = next_rows(req, id);
          continue;
        }
        // Pool exhausted: preempt the worst-ranked admitted request that
        // actually holds tiles and ranks worse than the current one —
        // preempting a tile-less (freshly admitted) victim would free
        // nothing and churn, and preempting a better-ranked request would
        // invert priorities.  With no such victim the current request
        // backs off (self-preempts); the better-ranked requests it yields
        // to always fit, because a request's tile ceiling is
        // admission-checked against the pool.
        RequestId victim = id;
        for (const RequestId v : live_) {
          const RequestState s = scheduler_.state(v);
          if (s != RequestState::kPrefilling && s != RequestState::kDecoding) {
            continue;
          }
          if (requests_[v].cache->block_table().empty()) continue;
          if (better_rank(requests_[id].priority, id, requests_[v].priority,
                          v) &&
              (victim == id ||
               better_rank(requests_[victim].priority, victim,
                           requests_[v].priority, v))) {
            victim = v;  // worst tile-holding candidate worse than current
          }
        }
        preempt_request(victim);
        ++stats.preempted;
        if (victim == id) break;
      }
      if (ok) granted.push_back(id);
    }
    std::sort(granted.begin(), granted.end());
  }

  // (d)+(e) gather this tick's row-stack: one prefill chunk per prefilling
  // request, one 1 + drafts query block per decoding request, in
  // request-id order.
  std::vector<TickEntry> entries;
  std::size_t total_rows = 0;
  for (const RequestId id : granted) {
    Request& req = requests_[id];
    if (scheduler_.state(id) == RequestState::kPrefilling) {
      const std::size_t rows = next_rows(req, id);
      entries.push_back(TickEntry{id, total_rows, rows, true, req.prefilled});
      total_rows += rows;
    } else {
      const std::size_t rows = 1 + req.draft_rows;
      entries.push_back(TickEntry{id, total_rows, rows, false, 0});
      total_rows += rows;
    }
  }
  // An idle tick is free: no allocation, no OpenMP region.
  if (entries.empty()) {
    stats.evicted = pool_.evictions() - evictions_at_start;
    lifetime_ += stats;
    return stats;
  }

  MatrixF X(total_rows, cfg.hidden);
  for (const TickEntry& e : entries) {
    const Request& req = requests_[e.id];
    if (e.prefill) {
      for (std::size_t r = 0; r < e.rows; ++r) {
        for (std::size_t c = 0; c < cfg.hidden; ++c) {
          X(e.row0 + r, c) = req.prompt(e.base + r, c);
        }
      }
    } else {
      for (std::size_t c = 0; c < cfg.hidden; ++c) {
        X(e.row0, c) = req.next_in[c];
      }
      for (std::size_t r = 0; r + 1 < e.rows; ++r) {
        for (std::size_t c = 0; c < cfg.hidden; ++c) {
          X(e.row0 + 1 + r, c) = req.draft[r * cfg.hidden + c];
        }
      }
    }
  }

  advance(entries, X, inj, stats);

  // State transitions, speculative commits and prefix publication after
  // the compute.
  const bool retry_enabled = opt_.recovery.max_tick_retries > 0;
  for (const TickEntry& e : entries) {
    Request& req = requests_[e.id];
    // Escalated failures: advance already rolled their appends back;
    // they retire below instead of committing.
    if (e.failed) continue;
    if (e.prefill) {
      // Under retry every append deferred its seals (the whole tick must
      // stay rollback-able); commit-seal the tiles this chunk fully
      // covered now — bit-identical to the direct sealing path.
      if (retry_enabled) req.cache->truncate(req.tokens + e.rows);
      req.tokens += e.rows;
      req.prefilled += e.rows;
      if (req.prefilled == req.prompt_rows) {
        scheduler_.on_prefill_done(e.id);
        // Seed the drafter with the freshly committed history: the full
        // prompt plus the first generated input row (next_in — known but
        // not yet fed), so proposals can match prompt suffixes from the
        // very first decode tick.
        if (proposer_ != nullptr) {
          for (std::size_t r = 0; r < req.prompt_rows; ++r) {
            proposer_->observe(e.id, req.prompt.row(r));
          }
          proposer_->observe(e.id, req.next_in);
        }
        // The prompt stays resident while preemption is reachable: a
        // preempted request recomputes from it on readmission.  An
        // unbounded pool never exhausts, so there it is freed at
        // prefill-done exactly like the pre-paging engine — unless the
        // scrubber is on, which can preempt (tile drop) even when the
        // pool never runs out of capacity.
        if (opt_.scheduler.max_kv_tiles == 0 &&
            opt_.recovery.scrub_tiles_per_tick == 0) {
          req.prompt = MatrixF();
        }
      }
    } else {
      const std::size_t committed = 1 + e.accepted;
      if (e.rows > 1 || retry_enabled) {
        // Accept/reject commit: keep the fed row + the verified draft
        // prefix, roll the rejected rows out of every layer's cache
        // (open-tile truncation; tiles the commit fully covers seal now —
        // nothing sealed was ever speculative).  Under retry even a
        // 1-row block deferred its seal, so the commit runs regardless.
        req.cache->truncate(req.tokens + committed);
      }
      req.tokens += committed;
      if (proposer_ != nullptr) {
        // The drafter's history ends at the last known committed row: the
        // accepted drafts, then the model's fresh output (the next tick's
        // fed row).
        for (std::size_t r = 0; r < e.accepted; ++r) {
          proposer_->observe(
              e.id, std::span<const float>(
                        req.draft.data() + r * cfg.hidden, cfg.hidden));
        }
        proposer_->observe(e.id, req.next_in);
      }
      req.draft_rows = 0;
    }
    // Publish freshly sealed fully-prompt tiles so later requests (and this
    // one, after a preemption) can attach them.  Tiles holding any
    // generated row are never published — generated rows are per-request.
    // Neither is anything sealed while a fault injector was threaded
    // through the tick: ABFT correction is approximate, not bit-exact, so
    // a possibly-perturbed tile must stay private — one fault's blast
    // radius must never widen to every future sharer of the prompt.
    for (const std::size_t idx : req.cache->take_newly_sealed()) {
      if (inj == nullptr && idx < req.prompt_keys.size()) {
        pool_.publish(req.cache->block_table()[idx], req.prompt_keys[idx]);
      }
    }
  }

  // kFailRequest escalations retire now: tiles released, scheduler slot
  // freed; last hidden state, lifetime report and health stay readable.
  for (const TickEntry& e : entries) {
    if (e.failed) retire(e.id);
  }

  stats.evicted = pool_.evictions() - evictions_at_start;
  lifetime_ += stats;
  return stats;
}

DecodeEngine::StepStats DecodeEngine::drain(std::size_t steps,
                                            fault::FaultInjector* inj) {
  StepStats total;
  for (std::size_t i = 0; i < steps; ++i) total.merge(step(inj));
  return total;
}

DecodeEngine::StepStats DecodeEngine::run_until_idle(fault::FaultInjector* inj,
                                                     std::size_t max_ticks) {
  StepStats total;
  for (std::size_t i = 0; i < max_ticks; ++i) {
    if (scheduler_.queued() == 0 && active() == 0) break;
    total.merge(step(inj));
  }
  return total;
}

void DecodeEngine::advance(std::vector<TickEntry>& entries, MatrixF& X,
                           fault::FaultInjector* inj, StepStats& stats) {
  const auto& cfg = model_->config();
  const std::size_t hidden = cfg.hidden;
  const std::size_t heads = cfg.heads;
  const RecoveryPolicy& rp = opt_.recovery;
  const bool retry_enabled = rp.max_tick_retries > 0;

  // The tick's compute lives in serve/tick.hpp: run_tick_solo (full
  // linears, one efta_decode_batch per layer) is the one body, clean or
  // injected.
  std::vector<TickRows> tick_rows;
  tick_rows.reserve(entries.size());
  for (const TickEntry& e : entries) {
    // Speculative rows may be rejected — and under tick retry EVERY row
    // may be rolled back — so tiles such appends fill must not seal until
    // the commit (truncate) decides what stays.
    tick_rows.push_back(TickRows{
        requests_[e.id].cache.get(), e.row0, e.rows,
        /*defer_seal=*/retry_enabled || (!e.prefill && e.rows > 1)});
  }

  // Retry rung: re-run the tick's compute while any detection trips it,
  // bounded by max_tick_retries, before anything commits.  Rollback is
  // exact — appends truncate to the pre-tick context (every append this
  // tick deferred its seal, so nothing immutable is touched) and the
  // residual stream restores from a copy — so a re-run consumes inputs
  // bit-identical to the first attempt, and under the single-transient-
  // fault assumption its output is exactly the clean-run bits.
  MatrixF X0;
  if (retry_enabled) X0 = X;
  std::vector<FtReport> per_item(entries.size() * heads);
  MatrixF y;
  TickResult tick;
  bool attempt_bad = false;
  std::size_t attempt = 0;
  for (;; ++attempt) {
    if (attempt > 0) {
      for (const TickEntry& e : entries) {
        Request& req = requests_[e.id];
        req.cache->truncate(req.tokens);
        if (!req.cache->ensure_capacity(req.tokens + e.rows)) {
          // truncate released this tick's empty tail tiles to the dead
          // list, so re-acquiring the same count cannot fail.
          throw std::logic_error(
              "DecodeEngine: retry rollback lost KV capacity");
        }
      }
      X = X0;
      std::fill(per_item.begin(), per_item.end(), FtReport{});
      ++stats.retried;
    }
    tick = run_tick_solo(*model_, tick_rows, X, y, per_item, opt_.efta,
                         opt_.protect_linear, inj);
    stats.linear += tick.linear;
    stats.attention += tick.attention;
    stats.activations_clipped += tick.activations_clipped;
    // Roll the per-(entry, head) reports — accumulated across layers by the
    // tick body — into per-request lifetime reports.  Every attempt rolls
    // up: a faulty attempt's evidence must survive its successful retry —
    // the lifetime reports are how the fault remains visible at all.
    {
      std::size_t i = 0;
      for (const TickEntry& e : entries) {
        Request& req = requests_[e.id];
        for (std::size_t hd = 0; hd < heads; ++hd, ++i) {
          req.attention += per_item[i];
        }
      }
    }
    // The trigger reads THIS attempt's result, not the merged totals — a
    // recovered tick must stop retriggering on its own history.
    attempt_bad = retry_enabled &&
                  tick.attention.total_detected() + tick.linear.flagged > 0;
    if (!attempt_bad || attempt >= rp.max_tick_retries) break;
  }
  if (retry_enabled && attempt > 0 && !attempt_bad) ++stats.recovered;

  // Escalation: retries exhausted with the trigger still tripping.  Linear
  // detections run over the whole stacked X and are not attributable to a
  // single entry, so they mark every entry affected; attention detections
  // pin the exact (entry, head) slots of the final attempt.
  if (attempt_bad) {
    for (std::size_t ei = 0; ei < entries.size(); ++ei) {
      TickEntry& e = entries[ei];
      bool affected = tick.linear.flagged > 0;
      for (std::size_t hd = 0; hd < heads && !affected; ++hd) {
        affected = per_item[ei * heads + hd].total_detected() > 0;
      }
      if (!affected) continue;
      Request& req = requests_[e.id];
      if (rp.on_exhaustion == EscalationPolicy::kFailRequest) {
        // Roll this entry's appends back; step() retires it instead of
        // committing — a possibly-wrong token is never served.
        e.failed = true;
        req.health = RequestHealth::kFailed;
        req.cache->truncate(req.tokens);
        ++stats.failed;
      } else {
        // Serve the (ABFT-corrected, possibly perturbed) result, visibly:
        // the request's health is flagged for its lifetime.
        req.health = RequestHealth::kFlagged;
        ++stats.degraded;
      }
    }
  }

  // Committed-work accounting, now that escalation decided what commits.
  for (const TickEntry& e : entries) {
    if (e.failed || !e.prefill) continue;
    ++stats.prefill_chunks;
    stats.prefill_rows += e.rows;
    stats.active += e.rows;
    if (opt_.record_inputs) {
      // The tick updated the residual stream in place, so record from the
      // prompt — the exact bits the stacked rows were loaded from.
      Request& req = requests_[e.id];
      for (std::size_t r = 0; r < e.rows; ++r) {
        req.inputs.emplace_back(req.prompt.row(e.base + r).begin(),
                                req.prompt.row(e.base + r).end());
      }
    }
    // Decode entries account (and record) after draft verification below:
    // only committed rows count, and only committed rows enter the replay
    // history.
  }
  for (TickEntry& e : entries) {
    if (e.failed) continue;
    Request& req = requests_[e.id];
    std::size_t last = e.row0 + e.rows - 1;
    if (!e.prefill) {
      // Greedy draft verification: drafted row i commits iff it equals,
      // bit for bit, the model's own output at position i-1 — exactly the
      // row the q_len = 1 serial path would feed next — and every earlier
      // draft matched.  The block kernel is row-for-row bit-identical to
      // serial decode, so an accepted row's output *is* the serial output;
      // the first mismatch's model output becomes the next fed row (the
      // standard speculative-decoding bonus token), and everything after
      // it is rolled back by the caller.
      std::size_t accepted = 0;
      while (accepted + 1 < e.rows &&
             std::memcmp(req.draft.data() + accepted * hidden,
                         &y(e.row0 + accepted, 0),
                         hidden * sizeof(float)) == 0) {
        ++accepted;
      }
      e.accepted = accepted;
      const std::size_t committed = 1 + accepted;
      stats.decoded += committed;
      stats.active += committed;
      stats.spec_proposed += e.rows - 1;
      stats.spec_accepted += accepted;
      stats.spec_rejected += e.rows - 1 - accepted;
      last = e.row0 + accepted;  // last *committed* row of the block
      if (opt_.record_inputs) {
        // Committed rows only: the fed row (still intact in next_in) plus
        // the accepted drafts.  Rejected rows never enter the replay
        // history — they never happened.
        req.inputs.emplace_back(req.next_in.begin(), req.next_in.end());
        for (std::size_t r = 0; r < accepted; ++r) {
          req.inputs.emplace_back(req.draft.begin() + r * hidden,
                                  req.draft.begin() + (r + 1) * hidden);
        }
      }
    }
    req.last_hidden.assign(y.row(last).begin(), y.row(last).end());
    // For a prefill chunk that completes the prompt this seeds generation;
    // mid-prompt it is overwritten by the next chunk's last row.  For a
    // decode block it is the output of the last committed row — the serial
    // next input whether drafts were accepted or not.
    req.next_in = req.last_hidden;
  }
}

void DecodeEngine::retire(RequestId id) {
  Request& req = requests_[id];
  scheduler_.release(id);
  if (proposer_ != nullptr) proposer_->reset(id);
  req.draft = std::vector<float>();
  req.draft_rows = 0;
  const auto it = std::find(live_.begin(), live_.end(), id);
  if (it != live_.end()) live_.erase(it);
  if (req.cache) {
    // Published prompt tiles stay cached in the pool after release: a
    // retired request's prefix remains attachable until evicted.
    req.cache->release_all();
    req.cache.reset();
  }
  req.inputs.clear();
  req.inputs.shrink_to_fit();
  req.prompt = MatrixF();
}

void DecodeEngine::preempt_request(RequestId id) {
  Request& req = requests_[id];
  scheduler_.preempt(id);
  req.cache->release_all();
  req.cache.reset();
  // Progress resets; generation is deterministic in the prompt, so the
  // recompute replays the identical token trajectory on readmission.  The
  // drafter's history resets with it (and is re-observed during replay) —
  // even mid-speculation, a preempted request recomputes bit-identically
  // because only committed rows were ever observed or cached.
  if (proposer_ != nullptr) proposer_->reset(id);
  req.draft_rows = 0;
  req.prefilled = 0;
  req.tokens = 0;
  req.next_in.clear();
  req.inputs.clear();
  req.inputs.shrink_to_fit();
  ++req.preemptions;
  const auto it = std::find(live_.begin(), live_.end(), id);
  if (it != live_.end()) live_.erase(it);
}

void DecodeEngine::run_scrubber(StepStats& stats) {
  const ScrubReport rep = pool_.scrub(opt_.recovery.scrub_tiles_per_tick);
  stats.scrubbed += rep.scanned;
  stats.repaired += rep.repaired;
  stats.scrub_dropped += rep.dropped.size();
  if (rep.dropped.empty()) return;
  // Preempt every live request whose block table maps a dropped tile: its
  // context is no longer trustworthy, and generation is a deterministic
  // function of the prompt, so recompute-on-readmission restores the exact
  // clean token trajectory — degraded throughput, never a wrong answer.
  std::vector<RequestId> victims;
  for (const RequestId id : live_) {
    const RequestState s = scheduler_.state(id);
    if (s != RequestState::kPrefilling && s != RequestState::kDecoding) {
      continue;
    }
    const Request& req = requests_[id];
    if (!req.cache) continue;
    const auto& table = req.cache->block_table();
    for (const std::size_t tid : rep.dropped) {
      if (std::find(table.begin(), table.end(), tid) != table.end()) {
        victims.push_back(id);
        break;
      }
    }
  }
  for (const RequestId id : victims) {
    preempt_request(id);
    ++stats.preempted;
  }
}

namespace testing {
TilePool& engine_pool(DecodeEngine& e) noexcept { return e.pool_; }
}  // namespace testing

void DecodeEngine::finish(RequestId id) {
  if (id >= requests_.size()) {
    throw std::out_of_range("DecodeEngine: unknown request id");
  }
  retire(id);
}

std::size_t DecodeEngine::active() const noexcept {
  return scheduler_.admitted();
}

RequestState DecodeEngine::state(RequestId id) const {
  if (id >= requests_.size()) {
    throw std::out_of_range("DecodeEngine: unknown request id");
  }
  return scheduler_.state(id);
}

bool DecodeEngine::is_active(RequestId id) const {
  if (id >= requests_.size()) return false;
  const RequestState s = scheduler_.state(id);
  return s == RequestState::kPrefilling || s == RequestState::kDecoding;
}

const DecodeEngine::Request& DecodeEngine::checked(RequestId id) const {
  if (id >= requests_.size()) {
    throw std::out_of_range("DecodeEngine: unknown request id");
  }
  return requests_[id];
}

std::size_t DecodeEngine::context_length(RequestId id) const {
  return checked(id).tokens;
}

std::span<const float> DecodeEngine::hidden(RequestId id) const {
  return checked(id).last_hidden;
}

const FtReport& DecodeEngine::report(RequestId id) const {
  return checked(id).attention;
}

const FtReport* DecodeEngine::find_report(RequestId id) const noexcept {
  return id < requests_.size() ? &requests_[id].attention : nullptr;
}

RequestHealth DecodeEngine::health(RequestId id) const {
  return checked(id).health;
}

MatrixF DecodeEngine::fed_inputs(RequestId id) const {
  const Request& req = checked(id);
  const std::size_t hidden = model_->config().hidden;
  MatrixF m(req.inputs.size(), hidden);
  for (std::size_t r = 0; r < req.inputs.size(); ++r) {
    for (std::size_t c = 0; c < hidden; ++c) m(r, c) = req.inputs[r][c];
  }
  return m;
}

std::vector<TilePool::TileId> DecodeEngine::kv_block_table(
    RequestId id) const {
  const Request& req = checked(id);
  return req.cache ? req.cache->block_table()
                   : std::vector<TilePool::TileId>{};
}

std::size_t DecodeEngine::shared_tile_count(RequestId id) const {
  const Request& req = checked(id);
  return req.cache ? req.cache->shared_tiles() : 0;
}

std::size_t DecodeEngine::preemption_count(RequestId id) const {
  return checked(id).preemptions;
}

}  // namespace ftt::serve
