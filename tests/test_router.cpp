// Replica router: placement policy (sticky prefix affinity, least-loaded
// spread), bit-parity of routed requests (M in {1, 2}) against solo
// engines — including over sharded replicas and under identical injected
// faults via the per-replica injector overload — and merged StepStats.
#include <gtest/gtest.h>

#include <vector>

#include "fault/fault.hpp"
#include "serve/router.hpp"
#include "tensor/random.hpp"
#include "transformer/model.hpp"

namespace fa = ftt::attention;
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

/// Prompt whose first 64-row tile equals `base`'s (shareable prefix),
/// with a distinct tail row.
ft::MatrixF with_shared_prefix(const ft::MatrixF& base, float tail_fill) {
  ft::MatrixF p(base.rows(), base.cols());
  for (std::size_t r = 0; r + 1 < base.rows(); ++r) {
    for (std::size_t c = 0; c < base.cols(); ++c) p(r, c) = base(r, c);
  }
  for (std::size_t c = 0; c < base.cols(); ++c) {
    p(base.rows() - 1, c) = tail_fill;
  }
  return p;
}

}  // namespace

TEST(Router, RoutedRequestsBitIdenticalToSoloEngines) {
  const fx::Model model(serving_config(), 0x707);
  const std::size_t hidden = model.config().hidden;
  std::vector<ft::MatrixF> prompts;
  std::vector<std::size_t> budgets;
  prompts.push_back(random_prompt(70, hidden, 1));
  budgets.push_back(7);
  prompts.push_back(random_prompt(13, hidden, 2));
  budgets.push_back(10);
  prompts.push_back(random_prompt(40, hidden, 3));
  budgets.push_back(5);
  prompts.push_back(random_prompt(5, hidden, 4));
  budgets.push_back(8);

  // Placement-invariance reference: each request alone in its own engine.
  std::vector<std::vector<float>> ref_hidden;
  std::vector<std::size_t> ref_len;
  std::vector<fa::FtReport> ref_report;
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    fs::DecodeEngine solo(model);
    const auto id = solo.submit(prompts[i], budgets[i]);
    solo.run_until_idle(nullptr, 10000);
    ref_hidden.emplace_back(solo.hidden(id).begin(), solo.hidden(id).end());
    ref_len.push_back(solo.context_length(id));
    ref_report.push_back(solo.report(id));
  }

  for (std::size_t replicas : {1u, 2u}) {
    fs::RouterOptions opt;
    opt.replicas = replicas;
    fs::Router router(model, opt);
    EXPECT_EQ(router.replicas(), replicas);
    std::vector<fs::Router::RequestId> ids;
    for (std::size_t i = 0; i < prompts.size(); ++i) {
      ids.push_back(router.submit(prompts[i], budgets[i]));
    }
    const fs::StepStats stats = router.run_until_idle(nullptr, 10000);
    EXPECT_EQ(router.active(), 0u);
    EXPECT_EQ(router.queued(), 0u);

    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(router.context_length(ids[i]), ref_len[i]);
      const auto h = router.hidden(ids[i]);
      ASSERT_EQ(h.size(), ref_hidden[i].size());
      for (std::size_t c = 0; c < h.size(); ++c) {
        EXPECT_EQ(h[c], ref_hidden[i][c])
            << replicas << " replicas, request " << i << " c " << c;
      }
      EXPECT_EQ(router.report(ids[i]).total_detected(),
                ref_report[i].total_detected());
      EXPECT_EQ(router.report(ids[i]).gemm1.checks,
                ref_report[i].gemm1.checks);
    }
    // Merged stats cover all replicas: every token decoded somewhere.
    std::size_t decoded = 0;
    for (std::size_t b : budgets) decoded += b;
    EXPECT_EQ(stats.decoded, decoded);
    EXPECT_EQ(router.lifetime().decoded, decoded);
    // With 2 replicas the load actually spread.
    if (replicas == 2) {
      EXPECT_GT(router.engine(0).lifetime().decoded, 0u);
      EXPECT_GT(router.engine(1).lifetime().decoded, 0u);
    }
  }
}

TEST(Router, RoutedShardedReplicasMatchSolo) {
  const fx::Model model(serving_config(), 0x808);
  const std::size_t hidden = model.config().hidden;
  const ft::MatrixF prompt = random_prompt(33, hidden, 9);

  fs::DecodeEngine solo(model);
  const auto sid = solo.submit(prompt, 6);
  solo.run_until_idle(nullptr, 10000);

  fs::RouterOptions opt;
  opt.replicas = 2;
  opt.engine.shards = 2;  // every replica splits its heads into 2 shards
  fs::Router router(model, opt);
  const auto id = router.submit(prompt, 6);
  router.run_until_idle(nullptr, 10000);
  EXPECT_EQ(router.engine(router.placement(id).replica).shards(), 2u);

  const auto h = router.hidden(id);
  const auto hs = solo.hidden(sid);
  ASSERT_EQ(h.size(), hs.size());
  for (std::size_t c = 0; c < h.size(); ++c) {
    EXPECT_EQ(h[c], hs[c]) << "c " << c;
  }
}

TEST(Router, StickyPrefixPinsSharersToOneReplica) {
  const fx::Model model(serving_config(), 0x909);
  const std::size_t hidden = model.config().hidden;
  const ft::MatrixF base = random_prompt(80, hidden, 11);

  fs::RouterOptions opt;
  opt.replicas = 2;
  fs::Router router(model, opt);

  // Let the first sharer prefill (sealing + publishing its prefix tile)
  // before the rest arrive, so stickiness has something to pay off.
  const auto a = router.submit(base, 3);
  for (int t = 0; t < 3; ++t) router.step();

  // Same shareable first tile -> same replica, despite least-loaded
  // pressure pulling the later submissions toward the idle replica.
  const auto b = router.submit(with_shared_prefix(base, 0.5f), 3);
  const auto c = router.submit(with_shared_prefix(base, -0.25f), 3);
  EXPECT_EQ(router.placement(a).replica, router.placement(b).replica);
  EXPECT_EQ(router.placement(a).replica, router.placement(c).replica);

  // An unrelated prompt lands on the other (idle) replica; so does a short
  // prompt with no shareable tile (pure least-loaded fallback).
  const auto d = router.submit(random_prompt(80, hidden, 12), 3);
  EXPECT_NE(router.placement(d).replica, router.placement(a).replica);
  const auto e = router.submit(random_prompt(10, hidden, 13), 3);
  EXPECT_EQ(router.placement(e).replica, router.placement(d).replica);

  router.run_until_idle(nullptr, 10000);
  // The sticky trio actually shared prefix tiles inside their replica.
  EXPECT_GT(router.lifetime().shared_tiles, 0u);
}

TEST(Router, StickyOffSpreadsByLoadAlone) {
  const fx::Model model(serving_config(), 0xa0a);
  const std::size_t hidden = model.config().hidden;
  const ft::MatrixF base = random_prompt(80, hidden, 21);

  fs::RouterOptions opt;
  opt.replicas = 2;
  opt.sticky_prefix = false;
  fs::Router router(model, opt);
  const auto a = router.submit(base, 2);
  const auto b = router.submit(with_shared_prefix(base, 1.0f), 2);
  // Pure least-loaded: the sharers split across replicas.
  EXPECT_EQ(router.placement(a).replica, 0u);
  EXPECT_EQ(router.placement(b).replica, 1u);
}

TEST(Router, PerReplicaInjectorsReproduceSoloFaultRuns) {
  const fx::Model model(serving_config(), 0xb0b);
  const std::size_t hidden = model.config().hidden;
  // Short prompts (no shareable tile): least-loaded alternates replicas.
  const ft::MatrixF p0 = random_prompt(20, hidden, 31);
  const ft::MatrixF p1 = random_prompt(28, hidden, 32);

  // Solo twins, each with its own fault process.
  auto run_solo = [&](const ft::MatrixF& p, std::uint64_t seed) {
    fs::DecodeEngine engine(model);
    const auto id = engine.submit(p, 6);
    ff::FaultInjector inj = ff::FaultInjector::bernoulli(1e-5, seed);
    engine.run_until_idle(&inj, 10000);
    return std::pair<std::vector<float>, std::size_t>(
        {engine.hidden(id).begin(), engine.hidden(id).end()},
        inj.injected());
  };
  const auto [h0, n0] = run_solo(p0, 0xaaa1);
  const auto [h1, n1] = run_solo(p1, 0xaaa2);
  EXPECT_GT(n0 + n1, 0u);  // the campaign placed at least one flip

  fs::RouterOptions opt;
  opt.replicas = 2;
  fs::Router router(model, opt);
  const auto a = router.submit(p0, 6);
  const auto b = router.submit(p1, 6);
  ASSERT_EQ(router.placement(a).replica, 0u);
  ASSERT_EQ(router.placement(b).replica, 1u);

  ff::FaultInjector inj0 = ff::FaultInjector::bernoulli(1e-5, 0xaaa1);
  ff::FaultInjector inj1 = ff::FaultInjector::bernoulli(1e-5, 0xaaa2);
  ff::FaultInjector* per_replica[] = {&inj0, &inj1};
  while (router.queued() + router.active() > 0) {
    router.step(std::span<ff::FaultInjector* const>(per_replica, 2));
  }
  EXPECT_EQ(inj0.injected(), n0);
  EXPECT_EQ(inj1.injected(), n1);
  const auto ha = router.hidden(a);
  const auto hb = router.hidden(b);
  ASSERT_EQ(ha.size(), h0.size());
  ASSERT_EQ(hb.size(), h1.size());
  for (std::size_t c = 0; c < ha.size(); ++c) EXPECT_EQ(ha[c], h0[c]);
  for (std::size_t c = 0; c < hb.size(); ++c) EXPECT_EQ(hb[c], h1[c]);
}

TEST(Router, ValidatesOptionsAndIds) {
  const fx::Model model(serving_config(), 5);
  fs::RouterOptions opt;
  opt.replicas = 0;
  EXPECT_THROW(fs::Router(model, opt), std::invalid_argument);

  fs::Router ok(model);
  EXPECT_THROW((void)ok.state(0), std::out_of_range);
  ff::FaultInjector* none[] = {nullptr, nullptr};
  EXPECT_THROW((void)ok.step(std::span<ff::FaultInjector* const>(none, 2)),
               std::invalid_argument);

  const ft::MatrixF prompt =
      random_prompt(6, model.config().hidden, 41);
  const auto id = ok.submit(prompt, 2);
  ok.run_until_idle(nullptr, 1000);
  EXPECT_EQ(ok.state(id), fs::RequestState::kRetired);
  ok.finish(id);  // idempotent on retired requests
}
