// Serving demo: paged KV pool with prefix sharing, priority classes and
// preemption under fault-tolerant continuous batching.
//
//   ./serving
//
// A fleet of "users" shares one DecodeEngine backed by a tiny causal
// transformer and a deliberately tight KV pool (9 context tiles).  The
// workload is the shape paging is built for:
//
//   1. an archetype request computes a 193-row common prompt once, sealing
//      and publishing its 3 prefix tiles in the pool;
//   2. four low-priority bulk requests over the *same* prompt attach those
//      tiles instead of recomputing them (one prompt, computed once, shared
//      five ways — the PagedAttention capacity win);
//   3. a high-priority request with a private prompt arrives into a full
//      pool: the youngest low-priority request is preempted (tiles
//      released, request re-queued at the front of its class) and the VIP
//      overtakes the bulk traffic;
//   4. the preempted request is readmitted, re-attaches the still-cached
//      prefix, recomputes its private tail, and finishes with *exactly* the
//      trajectory an uninterrupted run produces — generation is a
//      deterministic function of the prompt;
//   5. a speculative engine decodes a repetitive-suffix fleet with the
//      default prompt-lookup drafter: up to 4 drafted tokens per tick ride
//      one verified query block, the longest bit-matching prefix commits,
//      rejected rows roll back — same stream as the serial engine, a
//      fraction of the ticks.
//
// Along the way the demo prints pool occupancy, the shared-tile ratio,
// preemption counters and speculation acceptance, and it exits nonzero if
// sharing, preemption or speculation ever changes a result (mirrors
// bench_serve_throughput's CI smoke role).

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "serve/engine.hpp"
#include "tensor/random.hpp"
#include "transformer/model.hpp"

using namespace ftt;

namespace {

tensor::MatrixF prompt(std::size_t seq, std::size_t hidden,
                       std::uint64_t seed) {
  tensor::MatrixF m(seq, hidden);
  tensor::fill_normal(m, seed);
  return m;
}

void print_pool(const serve::DecodeEngine& engine) {
  const auto& pool = engine.pool();
  std::size_t shared_mapped = 0, mapped = 0;
  for (std::size_t id = 0; id < 64; ++id) {
    if (!engine.is_active(id)) continue;
    mapped += engine.kv_block_table(id).size();
    shared_mapped += engine.shared_tile_count(id);
  }
  std::printf("  pool: %zu/%zu tiles in use (%zu cached prefixes), "
              "block-table entries %zu of which shared %zu (%.0f%%), "
              "lifetime: %zu prefix hits, %zu evictions\n",
              pool.in_use(), pool.capacity(), pool.published(), mapped,
              shared_mapped,
              mapped == 0 ? 0.0 : 100.0 * static_cast<double>(shared_mapped) /
                                      static_cast<double>(mapped),
              pool.shared_hits(), pool.evictions());
}

}  // namespace

int main() {
  transformer::ModelConfig cfg = transformer::ModelConfig::tiny();
  cfg.causal = true;  // decode attends to the causal prefix
  const transformer::Model model(cfg, 0x5eed);
  std::printf("model: %s  layers=%zu hidden=%zu heads=%zu\n",
              cfg.name.c_str(), cfg.layers, cfg.hidden, cfg.heads);

  serve::EngineOptions opt;
  opt.scheduler.max_batch_size = 6;
  opt.scheduler.max_kv_tiles = 9;  // tight on purpose: forces preemption
  serve::DecodeEngine engine(model, opt);
  std::printf("pool: %zu context tiles of 64 tokens x %zu layers x %zu "
              "heads (%zu KiB/tile with sealed checksum memos)\n\n",
              engine.pool().capacity(), cfg.layers, cfg.heads,
              engine.pool().slab_halves() * sizeof(numeric::Half) / 1024);

  // 1. The archetype computes the shared 193-row prompt (3 sealed tiles).
  const tensor::MatrixF common = prompt(193, cfg.hidden, 1);
  const auto archetype = engine.submit(common, /*max_new_tokens=*/8);
  while (engine.state(archetype) == serve::RequestState::kQueued ||
         engine.state(archetype) == serve::RequestState::kPrefilling) {
    engine.step();
  }
  std::printf("archetype prefilled the 193-row common prompt (3 prefix "
              "tiles sealed + published)\n");
  print_pool(engine);

  // 2. Four low-priority bulk requests over the same prompt: each attaches
  //    the 3 published tiles and computes only the last prompt row.
  serve::DecodeEngine::RequestId bulk[4];
  for (std::size_t i = 0; i < 4; ++i) {
    bulk[i] = engine.submit(common, /*max_new_tokens=*/24,
                            serve::Priority::kLow);
  }
  auto st = engine.step();  // admit + prefix attach + 1-row prefills
  std::printf("\nbulk wave admitted: %zu requests attached %zu prefix tiles "
              "and prefilled only %zu rows this tick\n",
              st.admitted, st.shared_tiles, st.prefill_rows);
  print_pool(engine);

  // 3. A high-priority request arrives into a (nearly) full pool.
  const tensor::MatrixF vip_prompt = prompt(100, cfg.hidden, 7);
  const auto vip = engine.submit(vip_prompt, /*max_new_tokens=*/4,
                                 serve::Priority::kHigh);
  serve::DecodeEngine::StepStats storm;
  while (engine.state(vip) != serve::RequestState::kRetired) {
    storm += engine.step();
  }
  std::printf("\nVIP served to completion: %zu preemption(s), %zu "
              "eviction(s) while it ran\n",
              storm.preempted, storm.evicted);
  for (std::size_t i = 0; i < 4; ++i) {
    if (engine.preemption_count(bulk[i]) != 0) {
      std::printf("  bulk[%zu] was preempted %zux and re-queued at the "
                  "front of the low class\n",
                  i, engine.preemption_count(bulk[i]));
    }
  }
  print_pool(engine);

  // 4. Drain the bulk traffic (preempted requests re-attach the cached
  //    prefix and replay their private tails).
  const auto tail = engine.run_until_idle(nullptr, 4000);
  storm += tail;
  std::printf("\ndrained: since the VIP arrived, %zu decode steps, %zu "
              "prompt rows recomputed after preemption, %zu prefix tiles "
              "(re)attached from the cache\n",
              storm.decoded, storm.prefill_rows, storm.shared_tiles);

  // Verify: sharing and preemption are invisible in the results.  Every
  // request must match a solo engine (no sharing, unbounded pool) bit for
  // bit; the lifetime FT reports stay clean.
  float worst = 0.0f;
  auto check = [&](serve::DecodeEngine::RequestId id,
                   const tensor::MatrixF& p, std::size_t budget) {
    serve::DecodeEngine solo(model);
    const auto sid = solo.submit(p, budget);
    solo.run_until_idle(nullptr, 400);
    const auto a = engine.hidden(id);
    const auto b = solo.hidden(sid);
    for (std::size_t c = 0; c < a.size(); ++c) {
      worst = std::max(worst, std::fabs(a[c] - b[c]));
    }
  };
  check(archetype, common, 8);
  for (std::size_t i = 0; i < 4; ++i) check(bulk[i], common, 24);
  check(vip, vip_prompt, 4);
  std::printf("\nmax |paged - solo| over all 6 requests: %.2e  (checks: %zu "
              "attention + %zu linear, %zu detected, %zu uncorrected)\n",
              worst,
              engine.lifetime().attention.gemm1.checks +
                  engine.lifetime().attention.exp_check.checks +
                  engine.lifetime().attention.gemm2.checks,
              engine.lifetime().linear.checks,
              engine.lifetime().attention.total_detected(),
              engine.lifetime().attention.uncorrected());
  const bool exercised = storm.preempted > 0 &&
                         engine.pool().shared_hits() > 0;
  std::printf(worst == 0.0f && exercised
                  ? "OK: prefix sharing and preemption changed memory "
                    "traffic, not results.\n"
                  : "WARNING: unexpected divergence or untriggered path.\n");

  // 5. Speculative decode.  A read-out head with final-LN gamma = 0 makes
  //    the generated stream exactly periodic (every layer underneath still
  //    computes in full) — the repetitive-suffix regime where the
  //    no-second-model prompt-lookup drafter shines.  The engine scores up
  //    to 4 drafts per tick in one verified block and commits only the
  //    prefix that bit-matches its own outputs, so speculation can change
  //    tick counts, never results.
  transformer::Model spec_model(cfg, 0x5eed);
  auto& gamma = spec_model.final_ln().gamma();
  auto& beta = spec_model.final_ln().beta();
  for (std::size_t c = 0; c < gamma.size(); ++c) {
    gamma[c] = 0.0f;
    beta[c] = 0.25f + 0.001f * static_cast<float>(c);
  }
  const tensor::MatrixF spec_prompt = prompt(65, cfg.hidden, 21);
  auto spec_run = [&](std::size_t spec_tokens, std::size_t& ticks,
                      serve::DecodeEngine::StepStats& sum,
                      std::vector<float>& hidden_out) {
    serve::EngineOptions sopt;
    sopt.spec_tokens = spec_tokens;
    serve::DecodeEngine eng(spec_model, sopt);
    const auto id = eng.submit(spec_prompt, /*max_new_tokens=*/40);
    ticks = 0;
    while (eng.queued() != 0 || eng.active() != 0) {
      sum += eng.step();
      ++ticks;
    }
    const auto h = eng.hidden(id);
    hidden_out.assign(h.begin(), h.end());
  };
  std::size_t spec_ticks = 0, serial_ticks = 0;
  serve::DecodeEngine::StepStats spec_sum, serial_sum;
  std::vector<float> spec_hidden, serial_hidden;
  spec_run(4, spec_ticks, spec_sum, spec_hidden);
  spec_run(0, serial_ticks, serial_sum, serial_hidden);
  bool spec_identical = spec_hidden.size() == serial_hidden.size();
  for (std::size_t c = 0; spec_identical && c < spec_hidden.size(); ++c) {
    spec_identical = spec_hidden[c] == serial_hidden[c];
  }
  std::printf("\nspeculative decode (repetitive suffix, spec_tokens=4): "
              "%zu ticks vs %zu serial for the same %zu tokens — %zu/%zu "
              "drafts accepted, %zu rolled back, streams %s\n",
              spec_ticks, serial_ticks, spec_sum.decoded,
              spec_sum.spec_accepted, spec_sum.spec_proposed,
              spec_sum.spec_rejected,
              spec_identical ? "bit-identical" : "DIVERGED");
  const bool spec_ok = spec_identical &&
                       spec_sum.decoded == serial_sum.decoded &&
                       spec_sum.spec_accepted > 0 &&
                       spec_ticks < serial_ticks;
  if (!spec_ok) std::printf("WARNING: speculation diverged or never fired.\n");

  return worst == 0.0f && exercised && spec_ok ? 0 : 1;
}
