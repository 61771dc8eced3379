// Recovery-ladder chaos suite: tick retry and KV tile scrubbing, each
// pinned against a clean twin bit for bit.  The ladder's contract is that
// any run it reports fully recovered (lifetime degraded == 0 && failed ==
// 0; tick retry triggers on any detection) committed only detection-free
// attempts, and a detection-free attempt is exactly the clean-run bits — so
// every recovered run below must end bitwise-equal to its fault-free twin.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <random>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "serve/engine.hpp"
#include "tensor/random.hpp"
#include "transformer/model.hpp"

namespace ff = ftt::fault;
namespace fs = ftt::serve;
namespace ft = ftt::tensor;
namespace fx = ftt::transformer;

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

/// Shared options for every engine in this suite, clean twins included.
/// The thresholds are loosened from the calibrated serving defaults: the
/// tiny test model sits close enough to them that a clean run can flag
/// threshold noise, and a noise detection would spin the retry trigger
/// forever (the noise is deterministic, so every attempt re-flags it).
/// Bit-30 exponent flips deviate by orders of magnitude and stay firmly
/// detected at these settings.  Thresholds only decide detection, so on a
/// detection-free clean run they change no bits.
fs::EngineOptions recovery_options() {
  fs::EngineOptions opt;
  opt.efta.abft_rel_threshold = 0.08f;
  opt.efta.exp_log_threshold = 0.3f;
  opt.efta.snvr_slack = 1e-2f;
  return opt;
}

void expect_bitwise(std::span<const float> got, std::span<const float> want,
                    const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  if (std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) == 0) {
    return;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << what << " diverges at element " << i;
  }
}

/// Run one request through a fault-free solo engine and return its final
/// hidden state.  Asserts the clean run is detection-free — the premise
/// every bitwise comparison in this suite rests on.
std::vector<float> clean_final_hidden(const fx::Model& model,
                                      const ft::MatrixF& prompt,
                                      std::size_t budget,
                                      fs::EngineOptions opt) {
  opt.recovery = fs::RecoveryPolicy{};
  fs::DecodeEngine clean(model, opt);
  const auto id = clean.submit(prompt, budget);
  clean.run_until_idle();
  EXPECT_EQ(clean.lifetime().attention.total_detected(), 0u)
      << "clean run flagged attention noise: loosen thresholds";
  EXPECT_EQ(clean.lifetime().linear.flagged, 0u)
      << "clean run flagged linear noise: loosen thresholds";
  const auto h = clean.hidden(id);
  return {h.begin(), h.end()};
}

}  // namespace

// ---------------------------------------------------------------------------
// Rung 1: tick retry.
// ---------------------------------------------------------------------------

TEST(Recovery, RetryRecoversInjectedTickBitwise) {
  const fx::Model model(serving_config(), 0x123);
  const std::size_t hidden = model.config().hidden;
  const ft::MatrixF prompt = random_prompt(20, hidden, 0xbeef);
  const std::size_t budget = 8;
  const auto clean = clean_final_hidden(model, prompt, budget,
                                        recovery_options());

  fs::EngineOptions opt = recovery_options();
  opt.recovery.max_tick_retries = 2;
  fs::DecodeEngine engine(model, opt);
  const auto id = engine.submit(prompt, budget);
  engine.drain(3);  // prefill + 2 clean decode ticks

  auto inj = ff::FaultInjector::single(ff::Site::kGemm1, 7, 30);
  const auto stats = engine.step(&inj);
  EXPECT_EQ(stats.attention.faults_injected, 1u);
  EXPECT_GE(stats.attention.total_detected(), 1u);
  EXPECT_GE(stats.retried, 1u);    // the faulty attempt triggered a re-run
  EXPECT_GE(stats.recovered, 1u);  // and the re-run committed clean
  EXPECT_EQ(stats.degraded, 0u);
  EXPECT_EQ(stats.failed, 0u);

  engine.run_until_idle();
  EXPECT_EQ(engine.state(id), fs::RequestState::kRetired);
  EXPECT_EQ(engine.health(id), fs::RequestHealth::kClean);
  EXPECT_EQ(engine.lifetime().degraded, 0u);
  EXPECT_EQ(engine.lifetime().failed, 0u);
  // The recovered stream is the clean stream, bit for bit — the fault's
  // only trace is in the reports.
  expect_bitwise(engine.hidden(id), clean, "retried request");
  EXPECT_GE(engine.report(id).total_detected(), 1u);

  // Typed not-found accessors (satellite): report() throws, find_report()
  // is the nullptr probe.
  EXPECT_EQ(engine.find_report(id), &engine.report(id));
  EXPECT_EQ(engine.find_report(9999), nullptr);
  EXPECT_THROW((void)engine.report(9999), std::out_of_range);
}

TEST(Recovery, RetryExhaustionServesFlagged) {
  const fx::Model model(serving_config(), 0x123);
  const ft::MatrixF prompt = random_prompt(16, model.config().hidden, 0xcafe);

  fs::EngineOptions opt = recovery_options();
  opt.recovery.max_tick_retries = 1;
  opt.recovery.on_exhaustion = fs::EscalationPolicy::kServeFlagged;
  fs::DecodeEngine engine(model, opt);
  const auto id = engine.submit(prompt, 8);
  engine.drain(1);  // clean prefill

  // A persistent fault process: heavy Bernoulli corruption faults every
  // attempt, so the bounded retry cannot reach a clean re-run and must
  // escalate.
  auto inj = ff::FaultInjector::bernoulli(0.2, 0xfeed, {ff::Site::kGemm1});
  for (int t = 0; t < 4 && engine.active() > 0; ++t) engine.step(&inj);

  EXPECT_GT(engine.lifetime().retried, 0u);
  EXPECT_GT(engine.lifetime().degraded, 0u);
  EXPECT_EQ(engine.lifetime().failed, 0u);
  // kServeFlagged keeps serving: the request lives on, visibly flagged.
  EXPECT_EQ(engine.health(id), fs::RequestHealth::kFlagged);
  EXPECT_TRUE(engine.is_active(id));

  engine.run_until_idle();  // fault process gone: the request completes
  EXPECT_EQ(engine.state(id), fs::RequestState::kRetired);
  EXPECT_EQ(engine.health(id), fs::RequestHealth::kFlagged);  // sticky
  EXPECT_FALSE(engine.hidden(id).empty());
}

TEST(Recovery, RetryExhaustionFailsRequest) {
  const fx::Model model(serving_config(), 0x123);
  const ft::MatrixF prompt = random_prompt(16, model.config().hidden, 0xcafe);

  fs::EngineOptions opt = recovery_options();
  opt.recovery.max_tick_retries = 1;
  opt.recovery.on_exhaustion = fs::EscalationPolicy::kFailRequest;
  fs::DecodeEngine engine(model, opt);
  const auto id = engine.submit(prompt, 8);
  engine.drain(1);

  auto inj = ff::FaultInjector::bernoulli(0.2, 0xfeed, {ff::Site::kGemm1});
  for (int t = 0; t < 4 && engine.active() > 0; ++t) engine.step(&inj);

  // kFailRequest refuses to commit a possibly-wrong token: the affected
  // request was retired with its last tick's appends rolled back.
  EXPECT_GT(engine.lifetime().failed, 0u);
  EXPECT_EQ(engine.lifetime().degraded, 0u);
  EXPECT_EQ(engine.state(id), fs::RequestState::kRetired);
  EXPECT_EQ(engine.health(id), fs::RequestHealth::kFailed);
  EXPECT_FALSE(engine.is_active(id));
  EXPECT_FALSE(engine.hidden(id).empty());  // last clean hidden readable
}

// ---------------------------------------------------------------------------
// Rung 2: KV tile scrubbing.  Memory faults are OUTSIDE the paper's fault
// model (KV storage is assumed ECC-protected); the serve::testing flip
// hooks exist purely to drive the scrubber's classification paths.
// ---------------------------------------------------------------------------

namespace {

struct ScrubRun {
  fx::Model model{serving_config(), 0x42};
  ft::MatrixF prompt;
  std::size_t budget = 8;
  std::vector<float> clean;
  fs::EngineOptions opt;

  ScrubRun() {
    prompt = random_prompt(80, model.config().hidden, 0x7777);
    opt = recovery_options();
    // These tests flip bits in the fp16 tile slab, so they pin the fp16
    // format explicitly (the int8 scrub arm has its own suite in
    // test_int8_quant.cpp) — a sealed kI8 tile frees the staging slab the
    // flips target.  Keeps the suite green under the FTT_KV_QUANT leg.
    opt.kv_quant = false;
    opt.recovery.scrub_tiles_per_tick = 64;  // full sweep every tick
    clean = clean_final_hidden(model, prompt, budget, opt);
  }
};

}  // namespace

TEST(Recovery, ScrubberRepairsChecksumClassFlip) {
  ScrubRun run;
  fs::DecodeEngine engine(run.model, run.opt);
  const auto id = engine.submit(run.prompt, run.budget);
  engine.step();  // prefill chunk 1: rows 0..63 seal tile 0

  const auto table = engine.kv_block_table(id);
  ASSERT_GE(table.size(), 1u);
  fs::TilePool& pool = fs::testing::engine_pool(engine);
  ASSERT_TRUE(pool.sealed(table[0]));
  // Flip an exponent bit of one sealed checksum half: payload clean, one
  // encoding element wrong -> checksum-class, repaired in place.
  const std::size_t enc_base = 2 * fs::TilePool::kTileRows * pool.dim();
  fs::testing::flip_slab_bit(pool, table[0], 0, 0, enc_base + 3, 13);

  const auto stats = engine.step();
  EXPECT_GE(stats.scrubbed, 1u);
  EXPECT_GE(stats.repaired, 1u);
  EXPECT_EQ(stats.scrub_dropped, 0u);
  EXPECT_EQ(stats.preempted, 0u);

  engine.run_until_idle();
  EXPECT_EQ(engine.preemption_count(id), 0u);
  expect_bitwise(engine.hidden(id), run.clean, "enc-repaired request");
}

TEST(Recovery, ScrubberDropsPayloadCorruptionAndReplaysBitwise) {
  // The slab holds each key and value once — K as its K^T plane — so a
  // payload flip has no redundant source: the tile drops and the owner
  // replays to the clean bits — degraded throughput, never a wrong answer.
  // One flip lands in the K^T plane, one in V (slab index 5 of each).
  for (const bool in_v : {false, true}) {
    SCOPED_TRACE(in_v ? "V payload" : "K^T plane");
    ScrubRun run;
    fs::DecodeEngine engine(run.model, run.opt);
    const auto id = engine.submit(run.prompt, run.budget);
    engine.step();

    const auto table = engine.kv_block_table(id);
    ASSERT_GE(table.size(), 1u);
    fs::TilePool& pool = fs::testing::engine_pool(engine);
    ASSERT_TRUE(pool.sealed(table[0]));
    const std::size_t base = in_v ? fs::TilePool::kTileRows * pool.dim() : 0;
    fs::testing::flip_slab_bit(pool, table[0], 1, 0, base + 5, 13);

    const auto stats = engine.step();
    EXPECT_GE(stats.scrub_dropped, 1u);
    EXPECT_EQ(stats.repaired, 0u);
    EXPECT_GE(stats.preempted, 1u);

    engine.run_until_idle();
    EXPECT_EQ(engine.state(id), fs::RequestState::kRetired);
    EXPECT_GE(engine.preemption_count(id), 1u);
    expect_bitwise(engine.hidden(id), run.clean, "replayed request");
  }
}

// ---------------------------------------------------------------------------
// The acceptance gate: randomized single-transient-fault chaos per tick.
// Every run the ladder marks fully recovered must be bitwise-equal to its
// clean twin.
// ---------------------------------------------------------------------------

namespace {

/// One chaos run: submit the prompts, then inject one random (site, call,
/// bit-30) transient per tick until idle, and assert full recovery and
/// bitwise equality with `clean`.
void chaos_run(const fx::Model& model, std::uint64_t seed,
               const std::vector<ft::MatrixF>& prompts,
               const std::vector<std::size_t>& budgets,
               const std::vector<std::vector<float>>& clean) {
  fs::EngineOptions opt = recovery_options();
  // Bitwise equality with a no-retry clean twin is seal-timing dependent:
  // under retry every append defers its tile seals to the end-of-tick
  // commit, so with kI8 tiles mid-tick reads see fp16 staging rows where
  // the clean twin already sees quantized ones.  Pin fp16 (lossless either
  // way); the int8 recovery arm has its own suite in test_int8_quant.
  opt.kv_quant = false;
  opt.recovery.max_tick_retries = 2;
  fs::DecodeEngine engine(model, opt);
  std::vector<fs::DecodeEngine::RequestId> ids;
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    ids.push_back(engine.submit(prompts[i], budgets[i]));
  }

  // One transient per tick: site, call offset and the flipped bit (a high
  // exponent bit — the firmly-detected class) drawn from a seeded rng.
  // Offsets past the tick's call count simply never fire (a clean tick).
  const ff::Site sites[] = {ff::Site::kGemm1, ff::Site::kGemm2,
                           ff::Site::kExp, ff::Site::kLinear};
  std::mt19937_64 rng(seed);
  std::size_t ticks = 0;
  while ((engine.active() > 0 || engine.queued() > 0) && ticks < 400) {
    auto inj = ff::FaultInjector::single(sites[rng() % std::size(sites)],
                                         rng() % 400, 30);
    engine.step(&inj);
    ++ticks;
  }
  ASSERT_EQ(engine.active() + engine.queued(), 0u)
      << "seed " << seed << ": chaos run never drained";

  // The run must be meaningful (faults landed, retries happened) and fully
  // recovered (no escalations) — which makes bitwise equality mandatory.
  EXPECT_GT(engine.lifetime().retried, 0u);
  EXPECT_GE(engine.lifetime().recovered, 1u);
  ASSERT_EQ(engine.lifetime().degraded, 0u);
  ASSERT_EQ(engine.lifetime().failed, 0u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(engine.health(ids[i]), fs::RequestHealth::kClean);
    expect_bitwise(engine.hidden(ids[i]), clean[i], "chaos request");
  }
}

}  // namespace

TEST(Recovery, ChaosSingleFaultPerTickBitwise) {
  const fx::Model model(serving_config(), 0xabc);
  const std::size_t hidden = model.config().hidden;
  const std::size_t lens[] = {10, 33, 70};
  const std::vector<std::size_t> budgets = {12, 9, 6};

  std::vector<ft::MatrixF> prompts;
  std::vector<std::vector<float>> clean;
  for (std::size_t i = 0; i < std::size(lens); ++i) {
    prompts.push_back(random_prompt(lens[i], hidden, 0x9000 + i));
    fs::EngineOptions copt = recovery_options();
    copt.kv_quant = false;  // match chaos_run's pinned format
    clean.push_back(clean_final_hidden(model, prompts[i], budgets[i], copt));
  }

  // The seed set is historical; keeping it keeps every run comparable
  // with earlier versions of this suite.
  for (const std::uint64_t seed : {1001u, 1002u, 1004u}) {
    chaos_run(model, seed, prompts, budgets, clean);
  }
}

TEST(Recovery, ChaosSoak) {
  // The CI chaos-soak leg (scripts/run_tier1.sh): a heavier randomized
  // sweep — more seeds, longer fleets.  Gated behind an env var so the
  // default test pass stays fast.
  if (std::getenv("FTT_CHAOS_SOAK") == nullptr) {
    GTEST_SKIP() << "set FTT_CHAOS_SOAK=1 to run the chaos soak";
  }
  const fx::Model model(serving_config(), 0xabc);
  const std::size_t hidden = model.config().hidden;
  const std::size_t lens[] = {10, 33, 70, 129};
  const std::vector<std::size_t> budgets = {16, 12, 10, 8};

  std::vector<ft::MatrixF> prompts;
  std::vector<std::vector<float>> clean;
  for (std::size_t i = 0; i < std::size(lens); ++i) {
    prompts.push_back(random_prompt(lens[i], hidden, 0xa000 + i));
    fs::EngineOptions copt = recovery_options();
    copt.kv_quant = false;  // match chaos_run's pinned format
    clean.push_back(clean_final_hidden(model, prompts[i], budgets[i], copt));
  }

  // Nine seeds, 7000 * s + {1, 2, 4}: a historical set, kept as above.
  for (const std::uint64_t s : {1u, 2u, 3u}) {
    for (const std::uint64_t offset : {1u, 2u, 4u}) {
      chaos_run(model, 7000 * s + offset, prompts, budgets, clean);
    }
  }
}
