// Shards as fault domains: ShardSpec head partitioning, the tick body's
// up-front entry checks, and engine-level bit-parity of sharded engines
// (N in {1, 2, 4}) against the solo engine — on a mixed prefill/decode/
// speculative/preemption workload, under identical injected faults, and
// with per-shard fault attribution.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/decode.hpp"
#include "fault/fault.hpp"
#include "paged_kv_fixture.hpp"
#include "serve/engine.hpp"
#include "serve/shard.hpp"
#include "tensor/random.hpp"
#include "transformer/model.hpp"

namespace fa = ftt::attention;
namespace fc = ftt::core;
namespace ff = ftt::fault;
namespace fs = ftt::serve;
namespace ft = ftt::tensor;
namespace fx = ftt::transformer;
using ftt::testing::expect_same_report;

namespace {

fx::ModelConfig serving_config() {
  fx::ModelConfig cfg = fx::ModelConfig::tiny();
  cfg.causal = true;
  return cfg;
}

ft::MatrixF random_prompt(std::size_t seq, std::size_t hidden,
                          std::uint64_t seed) {
  ft::MatrixF m(seq, hidden);
  ft::fill_normal(m, seed);
  return m;
}

/// Constant-row read-out head (gamma = 0): generation becomes a repetitive
/// stream the prompt-lookup drafter predicts, so the speculation parity
/// test exercises accepted commits, not just rollbacks.
fx::Model make_spec_model() {
  fx::ModelConfig cfg = serving_config();
  fx::Model model(cfg, 0x5eed);
  auto& gamma = model.final_ln().gamma();
  auto& beta = model.final_ln().beta();
  for (std::size_t c = 0; c < gamma.size(); ++c) {
    gamma[c] = 0.0f;
    beta[c] = 0.25f + 0.001f * static_cast<float>(c);
  }
  return model;
}

void expect_stats_equal(const fs::StepStats& a, const fs::StepStats& b) {
  EXPECT_EQ(a.active, b.active);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.prefill_chunks, b.prefill_chunks);
  EXPECT_EQ(a.prefill_rows, b.prefill_rows);
  EXPECT_EQ(a.decoded, b.decoded);
  EXPECT_EQ(a.retired, b.retired);
  EXPECT_EQ(a.spec_proposed, b.spec_proposed);
  EXPECT_EQ(a.spec_accepted, b.spec_accepted);
  EXPECT_EQ(a.spec_rejected, b.spec_rejected);
  EXPECT_EQ(a.preempted, b.preempted);
  EXPECT_EQ(a.evicted, b.evicted);
  EXPECT_EQ(a.shared_tiles, b.shared_tiles);
  EXPECT_EQ(a.activations_clipped, b.activations_clipped);
  EXPECT_EQ(a.linear.checks, b.linear.checks);
  EXPECT_EQ(a.linear.flagged, b.linear.flagged);
  expect_same_report(a.attention, b.attention, "stats.attention");
}

/// The mixed workload every engine-parity test drives: a prefix-shared
/// prompt pair, short decoders, a 4-tile pool that forces preemption, and
/// drafted blocks (mostly rejected on a chaotic model).
struct Workload {
  std::vector<ft::MatrixF> prompts;
  std::vector<std::size_t> budgets;
};

Workload mixed_workload(std::size_t hidden) {
  Workload w;
  // Two prompts sharing a 128-row prefix (2 shareable tiles) + unique tails.
  ft::MatrixF common = random_prompt(128, hidden, 0xc0de);
  for (std::size_t i = 0; i < 2; ++i) {
    ft::MatrixF p(140, hidden);
    for (std::size_t r = 0; r < 128; ++r) {
      for (std::size_t c = 0; c < hidden; ++c) p(r, c) = common(r, c);
    }
    for (std::size_t r = 128; r < 140; ++r) {
      for (std::size_t c = 0; c < hidden; ++c) {
        p(r, c) = common(0, c) * 0.1f + static_cast<float>(i + r) * 1e-3f;
      }
    }
    w.prompts.push_back(std::move(p));
    w.budgets.push_back(6);
  }
  // Two prompts sitting just under a tile boundary: their generation grows
  // them across it mid-run, so the admitted batch's demand (3 + 1 shared
  // + 2 + 2 = 8 tiles) outgrows the 6-tile pool and forces preemption.
  w.prompts.push_back(random_prompt(60, hidden, 0xaaa));
  w.budgets.push_back(9);
  w.prompts.push_back(random_prompt(62, hidden, 0xbbb));
  w.budgets.push_back(12);
  return w;
}

fs::EngineOptions sharded_options(std::size_t shards) {
  fs::EngineOptions opt;
  opt.shards = shards;
  opt.spec_tokens = 4;
  // 6 context tiles: every request fits alone (the 140-row prompts need 3),
  // but the full batch grows to 8 — the preemption path fires (asserted
  // below).
  opt.scheduler.max_kv_tiles = 6;
  opt.scheduler.max_batch_size = 4;
  return opt;
}

/// Drive an engine over the workload until idle, staggered so the shared
/// prefix is sealed (ticks 0..2 prefill prompt 0's tiles) before the
/// sharers are submitted — every engine sees the identical sequence.
fs::StepStats drive(fs::DecodeEngine& engine, const Workload& w,
                    std::vector<fs::DecodeEngine::RequestId>& ids) {
  fs::StepStats total;
  ids.push_back(engine.submit(w.prompts[0], w.budgets[0]));
  for (int t = 0; t < 3; ++t) total.merge(engine.step());
  for (std::size_t i = 1; i < w.prompts.size(); ++i) {
    ids.push_back(engine.submit(w.prompts[i], w.budgets[i]));
  }
  total.merge(engine.run_until_idle(nullptr, /*max_ticks=*/10000));
  return total;
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardSpec / shard_range
// ---------------------------------------------------------------------------

TEST(ShardSpec, RangePartitionsAnyTotal) {
  for (std::size_t nshards : {1u, 2u, 3u, 4u, 7u}) {
    for (std::size_t total : {0u, 1u, 2u, 5u, 64u, 65u}) {
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      for (std::size_t s = 0; s < nshards; ++s) {
        const auto [b, e] = fc::shard_range(s, nshards, total);
        EXPECT_EQ(b, prev_end);  // contiguous, in order
        EXPECT_LE(e - b, total / nshards + 1);
        EXPECT_GE(e - b, total / nshards);  // even to within one
        covered += e - b;
        prev_end = e;
      }
      EXPECT_EQ(covered, total) << nshards << " shards over " << total;
      EXPECT_EQ(prev_end, total);
    }
  }
  EXPECT_THROW((void)fc::shard_range(0, 0, 4), std::invalid_argument);
  EXPECT_THROW((void)fc::shard_range(2, 2, 4), std::invalid_argument);
}

TEST(ShardSpec, MoreShardsThanHeadsYieldsEmptyShards) {
  // tiny has 2 heads; 4 shards -> two owners, two empty.
  std::size_t owned = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    const auto spec = fc::ShardSpec::for_shard(s, 4, 2);
    owned += spec.end_head - spec.begin_head;
    if (s >= 2) {
      EXPECT_EQ(spec.begin_head, spec.end_head);
    }
  }
  EXPECT_EQ(owned, 2u);
  const auto spec0 = fc::ShardSpec::for_shard(0, 4, 2);
  EXPECT_EQ(spec0.begin_head, 0u);
  EXPECT_EQ(spec0.end_head, 1u);
}

// ---------------------------------------------------------------------------
// Tick body
// ---------------------------------------------------------------------------

TEST(TickBody, RejectsEntryRowsPastXBeforeAnyWork) {
  // An entry whose rows [row0, row0 + rows) leave X must throw before the
  // tick appends K/V or writes X or y: without the check the cache append
  // reads past X's buffer.
  const fx::Model model(serving_config(), 0x7e);
  const auto& cfg = model.config();
  const fs::EngineOptions eopt;
  fs::TilePool pool(fs::TilePoolOptions{cfg.layers, cfg.heads, cfg.head_dim(),
                                        0, eopt.efta.stride});
  fs::PagedKvCache cache(pool, fc::TileFmt::kF16);
  ASSERT_TRUE(cache.ensure_capacity(5));
  ft::MatrixF X(2, cfg.hidden);
  ft::fill_normal(X, 0x71);
  const ft::MatrixF X0 = X;
  ft::MatrixF y(2, cfg.hidden);
  for (std::size_t i = 0; i < y.size(); ++i) y.data()[i] = -7.0f;
  std::vector<fa::FtReport> per_item(cfg.heads);

  const std::size_t bad[][2] = {{1, 4}, {2, 1}, {SIZE_MAX, 2}, {1, SIZE_MAX}};
  for (const auto& [row0, rows] : bad) {
    const fs::ShardTickEntry e{&cache, row0, rows};
    EXPECT_THROW((void)fs::run_tick_solo(model, {&e, 1}, X, y, per_item,
                                         eopt.efta, true, nullptr),
                 std::invalid_argument)
        << "row0 " << row0 << " rows " << rows;
    EXPECT_EQ(0, std::memcmp(X.data(), X0.data(), X.size() * sizeof(float)));
    for (std::size_t i = 0; i < y.size(); ++i) {
      ASSERT_EQ(y.data()[i], -7.0f) << "y written at " << i;
    }
    EXPECT_EQ(cache.length(), 0u);
  }

  // The same entry clipped to X's rows runs.
  const fs::ShardTickEntry ok{&cache, 0, 2};
  (void)fs::run_tick_solo(model, {&ok, 1}, X, y, per_item, eopt.efta, true,
                          nullptr);
  EXPECT_EQ(cache.length(), 2u);
}

// ---------------------------------------------------------------------------
// Engine-level shard parity
// ---------------------------------------------------------------------------

TEST(ShardedEngine, BitIdenticalToSoloOnMixedWorkload) {
  const fx::Model model(serving_config(), 0x77);
  const std::size_t hidden = model.config().hidden;
  const Workload w = mixed_workload(hidden);

  // Solo reference.
  fs::DecodeEngine solo(model, sharded_options(1));
  std::vector<fs::DecodeEngine::RequestId> solo_ids;
  const fs::StepStats solo_stats = drive(solo, w, solo_ids);
  // The workload must actually exercise the interesting paths.
  EXPECT_GT(solo_stats.preempted, 0u);
  EXPECT_GT(solo_stats.shared_tiles, 0u);
  EXPECT_GT(solo_stats.decoded, 0u);

  for (std::size_t shards : {2u, 4u}) {
    fs::DecodeEngine sharded(model, sharded_options(shards));
    EXPECT_EQ(sharded.shards(), shards);
    std::vector<fs::DecodeEngine::RequestId> ids;
    const fs::StepStats stats = drive(sharded, w, ids);
    expect_stats_equal(stats, solo_stats);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(sharded.context_length(ids[i]),
                solo.context_length(solo_ids[i]));
      const auto hs = solo.hidden(solo_ids[i]);
      const auto hh = sharded.hidden(ids[i]);
      ASSERT_EQ(hs.size(), hh.size());
      for (std::size_t c = 0; c < hs.size(); ++c) {
        EXPECT_EQ(hh[c], hs[c])
            << shards << " shards, request " << i << " c " << c;
      }
      expect_same_report(sharded.report(ids[i]), solo.report(solo_ids[i]),
                         "per-request report");
    }
    // Per-shard attention reports merge to the engine lifetime total.
    fa::FtReport merged;
    for (const auto& r : sharded.shard_reports()) merged += r;
    expect_same_report(merged, sharded.lifetime().attention,
                       "shard_reports sum");
  }
}

TEST(ShardedEngine, SpeculativeCommitsBitIdenticalToSolo) {
  // gamma = 0 read-out: the generated stream repeats, the prompt-lookup
  // drafter locks on, and accepted drafts flow through commit + rollback.
  const fx::Model model = make_spec_model();
  const std::size_t hidden = model.config().hidden;
  const ft::MatrixF prompt = random_prompt(30, hidden, 0x51c);

  auto run = [&](std::size_t shards) {
    fs::EngineOptions opt;
    opt.shards = shards;
    opt.spec_tokens = 4;
    fs::DecodeEngine engine(model, opt);
    const auto id = engine.submit(prompt, 24);
    const fs::StepStats stats = engine.run_until_idle(nullptr, 10000);
    return std::pair<fs::StepStats, std::size_t>(stats,
                                                 engine.context_length(id));
  };

  const auto [solo_stats, solo_len] = run(1);
  EXPECT_GT(solo_stats.spec_accepted, 0u);  // speculation actually commits
  for (std::size_t shards : {2u, 4u}) {
    const auto [stats, len] = run(shards);
    expect_stats_equal(stats, solo_stats);
    EXPECT_EQ(len, solo_len);
  }
}

TEST(ShardedEngine, FaultParityWithSoloUnderIdenticalInjection) {
  const fx::Model model(serving_config(), 0xfa17);
  const std::size_t hidden = model.config().hidden;
  const ft::MatrixF prompt = random_prompt(70, hidden, 0xfeed);

  auto run = [&](std::size_t shards) {
    fs::EngineOptions opt;
    opt.shards = shards;
    fs::DecodeEngine engine(model, opt);
    const auto id = engine.submit(prompt, 8);
    // Both engines run the one tick body, so one identically-seeded
    // fault process observes the identical call sequence.
    ff::FaultInjector inj = ff::FaultInjector::bernoulli(5e-6, 0x5eed11);
    engine.run_until_idle(&inj, 10000);
    struct Out {
      std::vector<float> hidden;
      fa::FtReport report;
      std::size_t injected;
    } out;
    out.hidden.assign(engine.hidden(id).begin(), engine.hidden(id).end());
    out.report = engine.report(id);
    out.injected = inj.injected();
    return out;
  };

  const auto solo = run(1);
  const auto sharded = run(2);
  EXPECT_GT(solo.injected, 0u);  // the campaign actually placed flips
  EXPECT_EQ(sharded.injected, solo.injected);
  expect_same_report(sharded.report, solo.report, "injected report");
  ASSERT_EQ(sharded.hidden.size(), solo.hidden.size());
  for (std::size_t c = 0; c < solo.hidden.size(); ++c) {
    EXPECT_EQ(sharded.hidden[c], solo.hidden[c]) << "c " << c;
  }
}

TEST(ShardedEngine, PoisonedShardFaultIsAttributedToThatShardOnly) {
  const fx::Model model(serving_config(), 0xbad);
  const std::size_t hidden = model.config().hidden;
  const ft::MatrixF prompt = random_prompt(70, hidden, 0x90);

  // Scan single-flip call indices until a flip lands in shard 1's head
  // range (tiny: head 1 exactly), then assert the whole fault — injection,
  // detection, correction — stays in shard 1's report.
  bool found = false;
  for (std::size_t idx = 0; idx < 2000 && !found; idx += 13) {
    fs::EngineOptions opt;
    opt.shards = 2;
    fs::DecodeEngine engine(model, opt);
    const auto id = engine.submit(prompt, 2);
    engine.step();  // admit + prefill chunk 1 (clean)
    engine.step();  // prefill chunk 2 (clean)
    ff::FaultInjector inj =
        ff::FaultInjector::single(ff::Site::kGemm1, idx, 30);
    engine.step(&inj);  // decode tick under the flip
    (void)id;
    if (inj.injected() == 0) continue;
    const auto reports = engine.shard_reports();
    ASSERT_EQ(reports.size(), 2u);
    if (reports[1].faults_injected == 0) continue;  // flip hit shard 0
    found = true;
    // The poisoned shard owns the fault *and* its detection...
    EXPECT_EQ(reports[1].faults_injected, 1u);
    EXPECT_GT(reports[1].total_detected() + reports[1].total_corrected(),
              0u);
    // ...and the healthy shard's report stays clean of it.
    EXPECT_EQ(reports[0].faults_injected, 0u);
    const std::size_t slack = reports[0].gemm1.checks / 1000 + 2;
    EXPECT_LE(reports[0].total_detected(), slack);
  }
  EXPECT_TRUE(found) << "no scanned flip index hit shard 1";
}

TEST(ShardedEngine, RejectsUnshardableConfigurations) {
  const fx::Model model(serving_config(), 1);
  fs::EngineOptions opt;
  opt.shards = 0;
  EXPECT_THROW(fs::DecodeEngine(model, opt), std::invalid_argument);

  // head_dim 32 is not a multiple of the 64-column checksum tile.  Shards
  // only label fault domains, so the model serves at any shard count,
  // bitwise equal to solo.
  fx::ModelConfig narrow = serving_config();
  narrow.hidden = 64;
  narrow.heads = 2;
  narrow.ffn_inner = 128;
  const fx::Model narrow_model(narrow, 2);
  const ft::MatrixF prompt = random_prompt(70, narrow.hidden, 0x32);
  struct Out {
    fs::StepStats stats;
    std::vector<float> hidden;
    fa::FtReport report;
  };
  auto run = [&](std::size_t shards) {
    fs::EngineOptions o;
    o.shards = shards;
    fs::DecodeEngine engine(narrow_model, o);
    EXPECT_EQ(engine.shards(), shards);
    const auto id = engine.submit(prompt, 6);
    Out out;
    out.stats = engine.run_until_idle(nullptr, 10000);
    out.hidden.assign(engine.hidden(id).begin(), engine.hidden(id).end());
    out.report = engine.report(id);
    fa::FtReport merged;
    for (const auto& r : engine.shard_reports()) merged += r;
    expect_same_report(merged, engine.lifetime().attention,
                       "shard_reports sum");
    return out;
  };
  const Out solo = run(1);
  const Out sharded = run(2);
  EXPECT_EQ(solo.stats.decoded, 6u);
  expect_stats_equal(sharded.stats, solo.stats);
  expect_same_report(sharded.report, solo.report, "per-request report");
  ASSERT_EQ(sharded.hidden.size(), solo.hidden.size());
  EXPECT_EQ(0, std::memcmp(sharded.hidden.data(), solo.hidden.data(),
                           solo.hidden.size() * sizeof(float)));
}
