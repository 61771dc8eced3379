// StepStats merge discipline and the recovery-era report helpers:
// zero-init, merge()/operator+= accumulation and associativity over the
// recovery-ladder counters, merge-order invariance,
// FtReport/abft::Report::uncorrected() saturation, and
// CampaignStats::silent_corruptions() inclusion-exclusion.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <vector>

#include "fault/campaign.hpp"
#include "serve/step_stats.hpp"

namespace fa = ftt::attention;
namespace ff = ftt::fault;
namespace fs = ftt::serve;

namespace {

/// A StepStats with every counter set to a distinct value derived from `k`
/// so a dropped or swapped field shows up as a mismatch somewhere.
fs::StepStats sample(std::size_t k) {
  fs::StepStats s;
  s.active = k + 1;
  s.admitted = k + 2;
  s.prefill_chunks = k + 3;
  s.prefill_rows = k + 4;
  s.decoded = k + 5;
  s.retired = k + 6;
  s.spec_proposed = k + 7;
  s.spec_accepted = k + 8;
  s.spec_rejected = k + 9;
  s.preempted = k + 10;
  s.evicted = k + 11;
  s.shared_tiles = k + 12;
  s.activations_clipped = k + 13;
  s.retried = k + 14;
  s.recovered = k + 15;
  s.degraded = k + 16;
  s.failed = k + 17;
  s.scrubbed = k + 19;
  s.repaired = k + 20;
  s.scrub_dropped = k + 21;
  s.attention.gemm1.checks = k + 23;
  s.attention.gemm1.flagged = k + 24;
  s.attention.faults_injected = k + 25;
  s.linear.checks = k + 26;
  s.linear.flagged = k + 27;
  return s;
}

void expect_stats_eq(const fs::StepStats& a, const fs::StepStats& b) {
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
  EXPECT_EQ(a.retried, b.retried);
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.scrubbed, b.scrubbed);
  EXPECT_EQ(a.repaired, b.repaired);
  EXPECT_EQ(a.scrub_dropped, b.scrub_dropped);
  EXPECT_EQ(a.attention.gemm1.checks, b.attention.gemm1.checks);
  EXPECT_EQ(a.attention.gemm1.flagged, b.attention.gemm1.flagged);
  EXPECT_EQ(a.attention.faults_injected, b.attention.faults_injected);
  EXPECT_EQ(a.linear.checks, b.linear.checks);
  EXPECT_EQ(a.linear.flagged, b.linear.flagged);
}

}  // namespace

TEST(StepStats, DefaultConstructedIsAllZero) {
  const fs::StepStats s;
  EXPECT_EQ(s.active, 0u);
  EXPECT_EQ(s.retried, 0u);
  EXPECT_EQ(s.recovered, 0u);
  EXPECT_EQ(s.degraded, 0u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.scrubbed, 0u);
  EXPECT_EQ(s.repaired, 0u);
  EXPECT_EQ(s.scrub_dropped, 0u);
  EXPECT_EQ(s.attention.total_detected(), 0u);
  EXPECT_EQ(s.linear.flagged, 0u);

  // Merging a zero is the identity in both directions.
  fs::StepStats a = sample(100);
  const fs::StepStats before = a;
  a.merge(fs::StepStats{});
  expect_stats_eq(a, before);
  fs::StepStats z;
  z.merge(before);
  expect_stats_eq(z, before);
}

TEST(StepStats, MergeAccumulatesRecoveryCounters) {
  fs::StepStats a = sample(0);
  const fs::StepStats b = sample(50);
  a.merge(b);
  EXPECT_EQ(a.retried, (0u + 14) + (50u + 14));
  EXPECT_EQ(a.recovered, (0u + 15) + (50u + 15));
  EXPECT_EQ(a.degraded, (0u + 16) + (50u + 16));
  EXPECT_EQ(a.failed, (0u + 17) + (50u + 17));
  EXPECT_EQ(a.scrubbed, (0u + 19) + (50u + 19));
  EXPECT_EQ(a.repaired, (0u + 20) + (50u + 20));
  EXPECT_EQ(a.scrub_dropped, (0u + 21) + (50u + 21));
  EXPECT_EQ(a.attention.gemm1.checks, (0u + 23) + (50u + 23));
  EXPECT_EQ(a.linear.flagged, (0u + 27) + (50u + 27));
}

TEST(StepStats, PlusEqualsIsAssociative) {
  // ((a += b) += c) must equal (a += (b += c)): integer counters make the
  // merge associative, which is what lets tick loops fold in any grouping.
  fs::StepStats left = sample(1);
  left += sample(2);
  left += sample(3);

  fs::StepStats bc = sample(2);
  bc += sample(3);
  fs::StepStats right = sample(1);
  right += bc;

  expect_stats_eq(left, right);
}

TEST(StepStats, MergeIsOrderInvariant) {
  // Tick loops fold one StepStats per tick with merge(); the totals must
  // not depend on the order the parts arrive in.
  const std::array<fs::StepStats, 4> parts = {sample(3), sample(11),
                                              sample(7), sample(29)};
  fs::StepStats forward;
  for (const fs::StepStats& s : parts) forward.merge(s);

  // A permutation of the parts produces the same totals.
  const std::array<fs::StepStats, 4> perm = {parts[2], parts[0], parts[3],
                                             parts[1]};
  fs::StepStats shuffled;
  for (const fs::StepStats& s : perm) shuffled.merge(s);
  expect_stats_eq(forward, shuffled);

  // Recovery counters survive the merge specifically.
  EXPECT_EQ(forward.retried, 3u + 14 + 11 + 14 + 7 + 14 + 29 + 14);
  EXPECT_EQ(forward.scrub_dropped, 3u + 21 + 11 + 21 + 7 + 21 + 29 + 21);

  // Merging a zeroed StepStats changes nothing.
  fs::StepStats same = forward;
  same.merge(fs::StepStats{});
  expect_stats_eq(same, forward);
}

TEST(Report, UncorrectedSaturatesAndCountsEveryRepairKind) {
  ftt::abft::Report r;
  EXPECT_EQ(r.uncorrected(), 0u);
  r.flagged = 10;
  EXPECT_EQ(r.uncorrected(), 10u);
  r.corrected = 4;
  r.recomputed = 3;
  r.checksum_repairs = 2;
  EXPECT_EQ(r.uncorrected(), 1u);
  // More repairs than flags (over-counted recomputes) saturates at zero
  // instead of wrapping.
  r.recomputed = 30;
  EXPECT_EQ(r.uncorrected(), 0u);
}

TEST(FtReport, UncorrectedSaturatesOverSubReports) {
  fa::FtReport r;
  EXPECT_EQ(r.uncorrected(), 0u);
  r.gemm1.flagged = 5;
  r.exp_check.flagged = 2;
  EXPECT_EQ(r.uncorrected(), 7u);
  r.gemm1.corrected = 5;
  EXPECT_EQ(r.uncorrected(), 2u);
  // SNVR replacements count as detection AND correction: they cancel.
  r.range_corrections = 10;
  EXPECT_EQ(r.uncorrected(), 2u);
  // Repairs over-counting detections saturate at zero instead of wrapping.
  r.gemm1.checksum_repairs = 5;
  EXPECT_EQ(r.uncorrected(), 0u);
}

TEST(Campaign, SilentCorruptionsUsesInclusionExclusion) {
  ff::CampaignStats s;
  s.injected = 100;
  s.detected = 60;
  s.absorbed = 50;
  s.absorbed_and_detected = 30;  // overlap: flagged flips that also sat
                                 // under the absorbed threshold
  // covered = 60 + 50 - 30 = 80 -> 20 silent.
  EXPECT_EQ(s.silent_corruptions(), 20u);

  // Full overlap: every absorbed run was also detected.
  s.absorbed_and_detected = 50;
  EXPECT_EQ(s.silent_corruptions(), 40u);

  // Saturation: coverage exceeding the injected count clamps to zero.
  s.detected = 90;
  s.absorbed = 90;
  s.absorbed_and_detected = 0;
  EXPECT_EQ(s.silent_corruptions(), 0u);
}

TEST(Campaign, RunCampaignTracksAbsorbedDetectedOverlap) {
  // Synthetic trials: deviation/flag chosen per call index so every bucket
  // combination appears exactly once per (site, bit) grid point.
  ff::CampaignConfig cfg;
  cfg.sites = {ff::Site::kGemm1};
  cfg.call_offsets = {0, 1, 2, 3};
  cfg.bits = {30};
  cfg.absorbed_threshold = 0.5f;

  std::size_t trial = 0;
  const auto run = [&](ff::FaultInjector& inj) -> ff::TrialResult {
    // Make the injector actually fire so the run counts as injected.
    (void)inj.corrupt(ff::Site::kGemm1, 1.0f);
    (void)inj.corrupt(ff::Site::kGemm1, 1.0f);
    (void)inj.corrupt(ff::Site::kGemm1, 1.0f);
    (void)inj.corrupt(ff::Site::kGemm1, 1.0f);
    switch (trial++ % 4) {
      case 0: return {0.1f, true};   // absorbed AND detected
      case 1: return {0.9f, true};   // detected only
      case 2: return {0.1f, false};  // absorbed only
      default: return {0.9f, false}; // silent corruption
    }
  };
  const ff::CampaignStats stats = ff::run_campaign(cfg, run);
  EXPECT_EQ(stats.injected, 4u);
  EXPECT_EQ(stats.detected, 2u);
  EXPECT_EQ(stats.absorbed, 2u);
  EXPECT_EQ(stats.absorbed_and_detected, 1u);
  EXPECT_EQ(stats.silent_corruptions(), 1u);
}
