// Continuous-batching scheduler under mixed prefill/decode traffic.
//
// A fleet of requests with ragged prompt lengths and per-request generation
// budgets streams through one DecodeEngine: long prompts prefill in 64-row
// causal chunks while earlier requests decode in the same ticks, and retired
// requests free their KV tiles for the admission queue.  The bench measures
//
//   * end-to-end makespan and total tokens/s of the mixed workload,
//   * average prefill-chunk latency at growing context (the cost step (b)
//     adds to a tick), measured on a standalone long prompt,
//   * the chunked-prefill speedup over serial token-by-token prefill
//     (prefill_chunk_rows = 1), a machine-robust ratio: both runs do the
//     same attention FLOPs, chunking amortizes tile loads and checksum
//     encodes and batches rows through the shared linears,
//   * average batch occupancy per tick (how full the scheduler keeps the
//     engine),
//   * the shared-prefix win: N requests over one long common prompt, run
//     with prefix sharing on vs off.  Sharing attaches the sealed prompt
//     tiles (and their ABFT memos) from the pool instead of recomputing
//     them, so the gauge pair is wall-clock speedup and the effective-
//     context capacity ratio (peak pool tiles unshared / shared),
//   * the speculative-decode win on a repetitive-suffix workload: a fleet
//     whose generated stream repeats exactly (final-LN gamma = 0 — every
//     layer still computes in full, but the read-out row is constant, the
//     bitwise-sharpest form of templated/self-quoting output), decoded
//     with the default prompt-lookup drafter at spec_tokens = 4 vs the
//     serial engine, timing the decode phase only (prefill is identical
//     in both configurations).  Gauges: spec_decode_speedup (same tokens,
//     fewer block passes — KV tile loads, widenings and checksum work
//     amortize over the accepted block) and spec_acceptance_rate,
//   * the recovery-ladder chaos config: the mixed fleet with one random
//     bit-30 transient injected per tick and tick retry armed, vs an
//     injection-free twin.  Gauges: recovery_overhead (chaos / clean
//     makespan — the cost of re-running faulty ticks) and
//     recovered_bitwise_clean_rate (requests ending bitwise-equal to the
//     clean twin; the chaos suite gates this at 1.0, the bench reports
//     it informationally).
//
// With --json <path> it also emits the machine-readable section the CI perf
// job merges into BENCH_serve.json and gates on.

#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <omp.h>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "core/efta.hpp"
#include "fault/fault.hpp"
#include "serve/engine.hpp"
#include "tensor/random.hpp"
#include "transformer/model.hpp"

namespace fs = ftt::serve;
namespace fx = ftt::transformer;
using ftt::tensor::MatrixF;

namespace {

// Ragged prompts and budgets, deliberately mixing one-chunk and multi-chunk
// prefills with short interactive requests.
constexpr std::size_t kPrompts[] = {256, 33, 128, 64, 200, 17, 96, 150};
constexpr std::size_t kBudgets[] = {16, 24, 8, 32, 12, 40, 16, 8};
constexpr std::size_t kRequests = 16;

fx::Model make_model() {
  fx::ModelConfig cfg = fx::ModelConfig::tiny();
  cfg.causal = true;
  return fx::Model(cfg, 0x5eed);
}

struct MixedRun {
  double seconds = 0.0;
  std::size_t ticks = 0;
  fs::DecodeEngine::StepStats stats;
  double occupancy = 0.0;  // mean admitted requests per non-idle tick
};

MixedRun run_mixed_opt(const fx::Model& model, const fs::EngineOptions& opt) {
  fs::DecodeEngine engine(model, opt);
  const std::size_t hidden = model.config().hidden;

  std::vector<MatrixF> prompts;
  for (std::size_t i = 0; i < kRequests; ++i) {
    prompts.emplace_back(kPrompts[i % std::size(kPrompts)], hidden);
    ftt::tensor::fill_normal(prompts.back(), 0xbead + i);
  }

  MixedRun run;
  std::size_t occupied_ticks = 0, occupancy_sum = 0;
  run.seconds = bench::time_once([&] {
    for (std::size_t i = 0; i < kRequests; ++i) {
      engine.submit(prompts[i], kBudgets[i % std::size(kBudgets)]);
    }
    while (engine.queued() != 0 || engine.active() != 0) {
      run.stats += engine.step();
      ++run.ticks;
      if (engine.active() != 0) {
        ++occupied_ticks;
        occupancy_sum += engine.active();
      }
    }
  });
  run.occupancy = occupied_ticks == 0
                      ? 0.0
                      : static_cast<double>(occupancy_sum) /
                            static_cast<double>(occupied_ticks);
  return run;
}

MixedRun run_mixed(const fx::Model& model, std::size_t chunk_rows,
                   std::size_t max_batch) {
  fs::EngineOptions opt;
  opt.prefill_chunk_rows = chunk_rows;
  opt.scheduler.max_batch_size = max_batch;
  return run_mixed_opt(model, opt);
}

// Recovery-ladder chaos config: the same mixed fleet with one random
// (site, call, bit-30) transient injected per tick and tick retry armed,
// against an injection-free twin.  Two gauges fall out: the makespan
// overhead of re-running faulty ticks, and the fraction of requests whose
// final hidden state is bitwise-equal to the clean twin's — the serving
// guarantee tests/test_recovery.cpp gates (here reported, not gated).
struct RecoveryRun {
  double seconds = 0.0;
  std::size_t ticks = 0;
  fs::DecodeEngine::StepStats stats;
  std::vector<std::vector<float>> hidden;  // per request, submit order
};

RecoveryRun run_recovery(const fx::Model& model, bool inject) {
  fs::EngineOptions opt;
  opt.prefill_chunk_rows = 64;
  opt.scheduler.max_batch_size = 8;
  // Loosened detection thresholds, exactly as tests/test_recovery.cpp: the
  // tiny model's clean runs must stay detection-free or the retry trigger
  // would spin on deterministic threshold noise.
  opt.efta.abft_rel_threshold = 0.08f;
  opt.efta.exp_log_threshold = 0.3f;
  opt.efta.snvr_slack = 1e-2f;
  if (inject) opt.recovery.max_tick_retries = 2;
  fs::DecodeEngine engine(model, opt);
  const std::size_t hidden = model.config().hidden;

  std::vector<MatrixF> prompts;
  for (std::size_t i = 0; i < kRequests; ++i) {
    prompts.emplace_back(kPrompts[i % std::size(kPrompts)], hidden);
    ftt::tensor::fill_normal(prompts.back(), 0xbead + i);
  }

  constexpr ftt::fault::Site kSites[] = {ftt::fault::Site::kGemm1,
                                         ftt::fault::Site::kGemm2,
                                         ftt::fault::Site::kExp};
  std::mt19937_64 rng(0xc0ffee);
  RecoveryRun run;
  run.seconds = bench::time_once([&] {
    for (std::size_t i = 0; i < kRequests; ++i) {
      engine.submit(prompts[i], kBudgets[i % std::size(kBudgets)]);
    }
    while (engine.queued() != 0 || engine.active() != 0) {
      if (inject) {
        auto inj = ftt::fault::FaultInjector::single(
            kSites[rng() % std::size(kSites)], rng() % 400, 30);
        run.stats += engine.step(&inj);
      } else {
        run.stats += engine.step();
      }
      ++run.ticks;
    }
  });
  for (std::size_t i = 0; i < kRequests; ++i) {
    const auto h = engine.hidden(i);
    run.hidden.emplace_back(h.begin(), h.end());
  }
  return run;
}

// Shared-prefix workload: one 257-row common prompt ((257-1)/64 = 4
// shareable sealed tiles), a leader that computes + publishes it, then 11
// followers that either attach it from the pool (share = true) or recompute
// it per request (share = false).  Everything else — budgets, batch cap,
// tick schedule — is identical across the two runs.
constexpr std::size_t kCommonRows = 257;
constexpr std::size_t kFollowers = 11;
constexpr std::size_t kSharedBudget = 16;

struct SharedRun {
  double seconds = 0.0;
  std::size_t peak_tiles = 0;
  fs::DecodeEngine::StepStats stats;
};

SharedRun run_shared_prefix(const fx::Model& model, bool share) {
  fs::EngineOptions opt;
  opt.share_prefix = share;
  opt.scheduler.max_batch_size = 8;
  fs::DecodeEngine engine(model, opt);

  MatrixF prompt(kCommonRows, model.config().hidden);
  ftt::tensor::fill_normal(prompt, 0xcafe);

  SharedRun run;
  run.seconds = bench::time_once([&] {
    const auto leader = engine.submit(prompt, kSharedBudget);
    // Let the leader finish prefilling (sealing + publishing the prefix)
    // before the followers arrive — the warm-cache steady state a serving
    // fleet lives in.
    while (engine.state(leader) == fs::RequestState::kQueued ||
           engine.state(leader) == fs::RequestState::kPrefilling) {
      run.stats += engine.step();
    }
    for (std::size_t i = 0; i < kFollowers; ++i) {
      engine.submit(prompt, kSharedBudget);
    }
    while (engine.queued() != 0 || engine.active() != 0) {
      run.stats += engine.step();
      run.peak_tiles = std::max(run.peak_tiles, engine.kv_tiles_in_use());
    }
  });
  return run;
}

// Speculative decode on a repetitive-suffix fleet: random prompts, but a
// read-out head (final-LN gamma = 0, nonzero beta) that makes the generated
// stream exactly periodic — the regime prompt-lookup drafting is built for.
// Both runs decode the same tokens; only the number of verified block
// passes differs.
constexpr std::size_t kSpecRequests = 6;
constexpr std::size_t kSpecPrompt = 256;
constexpr std::size_t kSpecBudget = 64;
constexpr std::size_t kSpecTokens = 4;

fx::Model make_spec_model() {
  fx::ModelConfig cfg = fx::ModelConfig::tiny();
  cfg.causal = true;
  fx::Model model(cfg, 0x5eed);
  auto& gamma = model.final_ln().gamma();
  auto& beta = model.final_ln().beta();
  for (std::size_t c = 0; c < gamma.size(); ++c) {
    gamma[c] = 0.0f;
    beta[c] = 0.25f + 0.001f * static_cast<float>(c);
  }
  return model;
}

struct SpecRun {
  double seconds = 0.0;
  std::size_t ticks = 0;
  fs::DecodeEngine::StepStats stats;
};

SpecRun run_spec(const fx::Model& model, std::size_t spec_tokens) {
  fs::EngineOptions opt;
  opt.spec_tokens = spec_tokens;
  opt.scheduler.max_batch_size = 8;
  fs::DecodeEngine engine(model, opt);
  const std::size_t hidden = model.config().hidden;

  std::vector<MatrixF> prompts;
  std::vector<fs::DecodeEngine::RequestId> ids;
  for (std::size_t i = 0; i < kSpecRequests; ++i) {
    prompts.emplace_back(kSpecPrompt, hidden);
    ftt::tensor::fill_normal(prompts.back(), 0x5bec + i);
    ids.push_back(engine.submit(prompts.back(), kSpecBudget));
  }
  // Absorb every prompt outside the timed window: prefill is identical in
  // both configurations, and spec_decode_speedup is a *decode* gauge.
  bool prefilling = true;
  while (prefilling) {
    engine.step();
    prefilling = false;
    for (const auto id : ids) {
      prefilling |= engine.state(id) != fs::RequestState::kDecoding;
    }
  }
  SpecRun run;
  run.seconds = bench::time_once([&] {
    while (engine.queued() != 0 || engine.active() != 0) {
      run.stats += engine.step();
      ++run.ticks;
    }
  });
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  bench::header("Continuous-batching scheduler (mixed prefill/decode)");
  const fx::Model model = make_model();
  std::printf("  model=%s  requests=%zu  threads=%d\n",
              model.config().name.c_str(), kRequests, omp_get_max_threads());

  // --- standalone prefill-chunk latency at growing context ---------------
  const std::size_t kLongPrompt = 256;
  fs::DecodeEngine pre(model);
  MatrixF long_prompt(kLongPrompt, model.config().hidden);
  ftt::tensor::fill_normal(long_prompt, 0xfeed);
  pre.submit(long_prompt, 1);
  std::vector<double> chunk_ms;
  std::printf("\n  %-28s %12s %12s\n", "prefill chunk", "latency",
              "modeled flops");
  while (pre.active() != 0 || pre.queued() != 0) {
    fs::DecodeEngine::StepStats st;
    const double t = bench::time_once([&] { st = pre.step(); });
    if (st.prefill_chunks == 0) break;  // prompt absorbed; decode from here
    chunk_ms.push_back(t * 1e3);
    const auto costs = ftt::core::efta_decode_block_costs(
        st.prefill_rows + (chunk_ms.size() - 1) * 64, st.prefill_rows,
        model.config().head_dim(), fs::EngineOptions{}.efta);
    std::printf("  rows %3zu @ context %4zu      %9.2f ms %12.0f\n",
                st.prefill_rows, chunk_ms.size() * 64,
                chunk_ms.back(), costs.total().tc_flops);
  }
  double chunk_ms_avg = 0.0;
  for (const double v : chunk_ms) chunk_ms_avg += v;
  chunk_ms_avg /= chunk_ms.empty() ? 1.0 : static_cast<double>(chunk_ms.size());

  // --- mixed traffic: chunked vs token-by-token prefill ------------------
  const MixedRun chunked = run_mixed(model, 64, 8);
  const MixedRun serial = run_mixed(model, 1, 8);
  const auto tok = [](const MixedRun& r) {
    return static_cast<double>(r.stats.active) / r.seconds;
  };
  const double speedup = chunked.seconds > 0.0 ? serial.seconds / chunked.seconds
                                               : 0.0;
  std::printf("\n  %-26s %10s %8s %12s %10s\n", "mode", "tokens/s", "ticks",
              "makespan", "occupancy");
  std::printf("  %-26s %10.1f %8zu %9.2f ms %10.2f\n",
              "chunked prefill (64-row)", tok(chunked), chunked.ticks,
              chunked.seconds * 1e3, chunked.occupancy);
  std::printf("  %-26s %10.1f %8zu %9.2f ms %10.2f\n",
              "token-by-token prefill", tok(serial), serial.ticks,
              serial.seconds * 1e3, serial.occupancy);
  std::printf("  chunked-prefill speedup: %.2fx  (avg chunk latency %.2f ms)\n",
              speedup, chunk_ms_avg);

  // Sanity: identical traffic totals regardless of chunking.  Marginal
  // clean-run ABFT flags are threshold noise at per-token norms (both runs
  // decode token by token, chunk = 1, after prefill); they are self-healing
  // (checksum reconstruction or revert) and are reported, not failed on.
  bool ok = chunked.stats.prefill_rows == serial.stats.prefill_rows &&
            chunked.stats.decoded == serial.stats.decoded &&
            chunked.stats.retired == kRequests;
  if (!ok) std::printf("  UNEXPECTED: traffic totals diverged\n");
  const std::size_t noise = chunked.stats.attention.total_detected() +
                            serial.stats.attention.total_detected();
  if (noise != 0) {
    std::printf("  note: %zu marginal flag(s) across the two runs "
                "(threshold noise at per-token norms)\n",
                noise);
  }

  // --- shared-prefix throughput + capacity -------------------------------
  const SharedRun shared = run_shared_prefix(model, true);
  const SharedRun unshared = run_shared_prefix(model, false);
  const double shared_speedup =
      shared.seconds > 0.0 ? unshared.seconds / shared.seconds : 0.0;
  const double capacity_ratio =
      shared.peak_tiles > 0
          ? static_cast<double>(unshared.peak_tiles) /
                static_cast<double>(shared.peak_tiles)
          : 0.0;
  std::printf("\n  shared-prefix workload (%zu requests, one %zu-row prompt)\n",
              kFollowers + 1, kCommonRows);
  std::printf("  %-26s %12s %12s %12s\n", "mode", "makespan", "peak tiles",
              "prefill rows");
  std::printf("  %-26s %9.2f ms %12zu %12zu\n", "prefix sharing on",
              shared.seconds * 1e3, shared.peak_tiles,
              shared.stats.prefill_rows);
  std::printf("  %-26s %9.2f ms %12zu %12zu\n", "prefix sharing off",
              unshared.seconds * 1e3, unshared.peak_tiles,
              unshared.stats.prefill_rows);
  std::printf("  shared-prefix speedup: %.2fx   capacity ratio: %.2fx "
              "(%zu tiles attached, not computed)\n",
              shared_speedup, capacity_ratio, shared.stats.shared_tiles);
  // Same traffic, same generated tokens; only the prefix compute differs.
  ok = ok && shared.stats.decoded == unshared.stats.decoded &&
       shared.stats.shared_tiles > 0 && unshared.stats.shared_tiles == 0;
  if (shared.stats.decoded != unshared.stats.decoded) {
    std::printf("  UNEXPECTED: shared/unshared decode totals diverged\n");
  }

  // --- speculative decode on the repetitive-suffix fleet ------------------
  const fx::Model spec_model = make_spec_model();
  const SpecRun spec = run_spec(spec_model, kSpecTokens);
  const SpecRun spec_serial = run_spec(spec_model, 0);
  const double spec_speedup =
      spec.seconds > 0.0 ? spec_serial.seconds / spec.seconds : 0.0;
  const double acceptance =
      spec.stats.spec_proposed > 0
          ? static_cast<double>(spec.stats.spec_accepted) /
                static_cast<double>(spec.stats.spec_proposed)
          : 0.0;
  std::printf("\n  speculative decode (%zu requests, %zu-row prompts, "
              "budget %zu, repetitive suffix)\n",
              kSpecRequests, kSpecPrompt, kSpecBudget);
  std::printf("  %-26s %12s %8s %12s\n", "mode", "makespan", "ticks",
              "decoded");
  std::printf("  %-26s %9.2f ms %8zu %12zu\n", "speculative (k=4)",
              spec.seconds * 1e3, spec.ticks, spec.stats.decoded);
  std::printf("  %-26s %9.2f ms %8zu %12zu\n", "serial (q_len=1)",
              spec_serial.seconds * 1e3, spec_serial.ticks,
              spec_serial.stats.decoded);
  std::printf("  spec-decode speedup: %.2fx   acceptance: %.0f%% "
              "(%zu/%zu drafts, %zu rejected)\n",
              spec_speedup, acceptance * 100.0, spec.stats.spec_accepted,
              spec.stats.spec_proposed, spec.stats.spec_rejected);
  // Same committed tokens either way — speculation may only change speed.
  ok = ok && spec.stats.decoded == spec_serial.stats.decoded &&
       spec.stats.decoded == kSpecRequests * kSpecBudget &&
       spec.stats.spec_accepted > 0;
  if (spec.stats.decoded != spec_serial.stats.decoded) {
    std::printf("  UNEXPECTED: speculative/serial decode totals diverged\n");
  }

  // --- OMP team scaling: the same mixed fleet at 1/2/4 threads -----------
  // Memory-stream headroom probe for the fp16-operand decode path: once the
  // kernels stream half-width operands, decode should scale further with
  // cores before hitting the bandwidth wall.  The ratios are hardware-bound
  // (≈1x on a single-core CI runner), so they are informational gauges —
  // emitted always, never value-gated.  Traffic totals must still match
  // exactly across team sizes: threading may only change speed.
  const int team_sizes[] = {1, 2, 4};
  const int max_threads = omp_get_max_threads();
  MixedRun team_runs[std::size(team_sizes)];
  for (std::size_t i = 0; i < std::size(team_sizes); ++i) {
    omp_set_num_threads(team_sizes[i]);
    team_runs[i] = run_mixed(model, 64, 8);
  }
  omp_set_num_threads(max_threads);
  const double core2_scaling =
      team_runs[0].seconds > 0.0 && team_runs[1].seconds > 0.0
          ? tok(team_runs[1]) / tok(team_runs[0])
          : 0.0;
  const double core4_scaling =
      team_runs[0].seconds > 0.0 && team_runs[2].seconds > 0.0
          ? tok(team_runs[2]) / tok(team_runs[0])
          : 0.0;
  std::printf("\n  OMP team scaling (same mixed fleet, teams of 1/2/4)\n");
  std::printf("  %-26s %10s %8s %12s\n", "team", "tokens/s", "ticks",
              "makespan");
  for (std::size_t i = 0; i < std::size(team_sizes); ++i) {
    char label[32];
    std::snprintf(label, sizeof(label), "%d thread(s)", team_sizes[i]);
    std::printf("  %-26s %10.1f %8zu %9.2f ms\n", label, tok(team_runs[i]),
                team_runs[i].ticks, team_runs[i].seconds * 1e3);
  }
  std::printf("  core scaling: 2T %.2fx  4T %.2fx "
              "(informational: core-count bound)\n",
              core2_scaling, core4_scaling);
  for (std::size_t i = 1; i < std::size(team_sizes); ++i) {
    ok = ok && team_runs[i].stats.decoded == team_runs[0].stats.decoded &&
         team_runs[i].stats.prefill_rows == team_runs[0].stats.prefill_rows &&
         team_runs[i].stats.retired == kRequests;
    if (team_runs[i].stats.decoded != team_runs[0].stats.decoded) {
      std::printf("  UNEXPECTED: team-%d decode totals diverged from team-1\n",
                  team_sizes[i]);
    }
  }

  // --- recovery ladder: chaos overhead + bitwise clean rate --------------
  const RecoveryRun rec_clean = run_recovery(model, false);
  const RecoveryRun rec_chaos = run_recovery(model, true);
  const double recovery_overhead =
      rec_clean.seconds > 0.0 ? rec_chaos.seconds / rec_clean.seconds : 0.0;
  std::size_t bitwise_clean = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const auto& a = rec_chaos.hidden[i];
    const auto& b = rec_clean.hidden[i];
    if (a.size() == b.size() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0) {
      ++bitwise_clean;
    }
  }
  const double clean_rate =
      static_cast<double>(bitwise_clean) / static_cast<double>(kRequests);
  std::printf("\n  recovery ladder (one bit-30 transient per tick, "
              "tick retry <= 2)\n");
  std::printf("  %-26s %12s %8s %12s\n", "mode", "makespan", "ticks",
              "retried");
  std::printf("  %-26s %9.2f ms %8zu %12zu\n", "injection-free",
              rec_clean.seconds * 1e3, rec_clean.ticks,
              rec_clean.stats.retried);
  std::printf("  %-26s %9.2f ms %8zu %12zu\n", "chaos + retry",
              rec_chaos.seconds * 1e3, rec_chaos.ticks,
              rec_chaos.stats.retried);
  std::printf("  recovery overhead: %.2fx   recovered bitwise-clean: "
              "%zu/%zu (%.0f%%, %zu recovered ticks)\n",
              recovery_overhead, bitwise_clean, kRequests, clean_rate * 100.0,
              rec_chaos.stats.recovered);
  // The chaos run must fully recover: no escalations, every request ends
  // on the clean twin's bits.  tests/test_recovery.cpp gates this; here it
  // still flips the bench's clean bit so a silent divergence is visible.
  ok = ok && rec_chaos.stats.degraded == 0 && rec_chaos.stats.failed == 0 &&
       bitwise_clean == kRequests;
  if (bitwise_clean != kRequests) {
    std::printf("  UNEXPECTED: %zu request(s) diverged from the clean twin\n",
                kRequests - bitwise_clean);
  }

  if (!json_path.empty()) {
    bench::JsonWriter w;
    w.begin_object();
    w.key("speculative");
    w.begin_object();
    w.kv("requests", kSpecRequests);
    w.kv("prompt_rows", kSpecPrompt);
    w.kv("budget", kSpecBudget);
    w.kv("spec_tokens", kSpecTokens);
    w.kv("spec_makespan_ms", spec.seconds * 1e3);
    w.kv("serial_makespan_ms", spec_serial.seconds * 1e3);
    w.kv("spec_ticks", spec.ticks);
    w.kv("serial_ticks", spec_serial.ticks);
    w.kv("drafts_proposed", spec.stats.spec_proposed);
    w.kv("drafts_accepted", spec.stats.spec_accepted);
    w.kv("drafts_rejected", spec.stats.spec_rejected);
    w.kv("decoded_tokens", spec.stats.decoded);
    w.end_object();
    w.key("shared_prefix");
    w.begin_object();
    w.kv("requests", kFollowers + 1);
    w.kv("common_prompt_rows", kCommonRows);
    w.kv("shared_makespan_ms", shared.seconds * 1e3);
    w.kv("unshared_makespan_ms", unshared.seconds * 1e3);
    w.kv("shared_peak_tiles", shared.peak_tiles);
    w.kv("unshared_peak_tiles", unshared.peak_tiles);
    w.kv("tiles_attached", shared.stats.shared_tiles);
    w.kv("shared_prefill_rows", shared.stats.prefill_rows);
    w.kv("unshared_prefill_rows", unshared.stats.prefill_rows);
    w.end_object();
    w.key("scheduler");
    w.begin_object();
    w.kv("threads", omp_get_max_threads());
    w.kv("requests", kRequests);
    w.kv("max_batch_size", std::size_t{8});
    w.kv("prefill_chunk_ms_avg", chunk_ms_avg);
    w.kv("mixed_tokens_per_s", tok(chunked));
    w.kv("mixed_makespan_ms", chunked.seconds * 1e3);
    w.kv("ticks", chunked.ticks);
    w.kv("batch_occupancy", chunked.occupancy);
    w.kv("chunked_prefill_speedup", speedup);
    w.kv("prefill_rows", chunked.stats.prefill_rows);
    w.kv("decoded_tokens", chunked.stats.decoded);
    w.kv("clean", ok);
    w.end_object();
    w.key("omp_scaling");
    w.begin_object();
    w.kv("max_threads", max_threads);
    w.kv("team1_tokens_per_s", tok(team_runs[0]));
    w.kv("team2_tokens_per_s", tok(team_runs[1]));
    w.kv("team4_tokens_per_s", tok(team_runs[2]));
    w.kv("team1_makespan_ms", team_runs[0].seconds * 1e3);
    w.kv("team2_makespan_ms", team_runs[1].seconds * 1e3);
    w.kv("team4_makespan_ms", team_runs[2].seconds * 1e3);
    w.kv("decoded_tokens", team_runs[0].stats.decoded);
    w.end_object();
    w.key("recovery");
    w.begin_object();
    w.kv("requests", kRequests);
    w.kv("max_tick_retries", std::size_t{2});
    w.kv("clean_makespan_ms", rec_clean.seconds * 1e3);
    w.kv("chaos_makespan_ms", rec_chaos.seconds * 1e3);
    w.kv("ticks_retried", rec_chaos.stats.retried);
    w.kv("ticks_recovered", rec_chaos.stats.recovered);
    w.kv("requests_degraded", rec_chaos.stats.degraded);
    w.kv("requests_failed", rec_chaos.stats.failed);
    w.kv("bitwise_clean_requests", bitwise_clean);
    w.end_object();
    w.key("gauges");
    w.begin_object();
    w.kv("scheduler_tokens_per_s", tok(chunked));
    w.kv("scheduler_chunked_prefill_speedup", speedup);
    w.kv("shared_prefix_speedup", shared_speedup);
    w.kv("shared_prefix_capacity_ratio", capacity_ratio);
    w.kv("spec_decode_speedup", spec_speedup);
    w.kv("spec_acceptance_rate", acceptance);
    w.kv("recovery_overhead", recovery_overhead);
    w.kv("recovered_bitwise_clean_rate", clean_rate);
    // Informational: core-count bound (≈1x on single-core CI runners).
    w.kv("decode_core2_scaling", core2_scaling);
    w.kv("decode_core4_scaling", core4_scaling);
    w.end_object();
    w.end_object();
    ok = w.write_file(json_path) && ok;
  }
  bench::note("chunked prefill amortizes per-tile checksum encodes across");
  bench::note("the chunk and batches prompt rows through the shared linears.");
  return ok ? 0 : 1;
}
