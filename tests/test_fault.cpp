// Fault injector: deterministic single-flip targeting, Bernoulli campaigns,
// per-site isolation, reset semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "fault/fault.hpp"

namespace ff = ftt::fault;

namespace {

constexpr ff::Site kAllSites[] = {
    ff::Site::kGemm1,     ff::Site::kReduceMax, ff::Site::kExp,
    ff::Site::kReduceSum, ff::Site::kRescale,   ff::Site::kGemm2,
    ff::Site::kChecksum,  ff::Site::kLinear};

/// Drive two injectors through the same tail of per-value calls (every
/// site, round-robin, distinct values) and expect identical outputs, per-site
/// calls() and events: the twins are indistinguishable from here on.
void expect_twins(ff::FaultInjector a, ff::FaultInjector b, const char* what) {
  for (int round = 0; round < 300; ++round) {
    for (const ff::Site site : kAllSites) {
      const float v = 1.0f + 0.001f * static_cast<float>(round);
      const float x = a.corrupt(site, v), y = b.corrupt(site, v);
      EXPECT_EQ(0, std::memcmp(&x, &y, sizeof(float)))
          << what << ": round " << round << " " << ff::site_name(site);
    }
  }
  for (const ff::Site site : kAllSites) {
    EXPECT_EQ(a.calls(site), b.calls(site)) << what << " "
                                            << ff::site_name(site);
  }
  ASSERT_EQ(a.events().size(), b.events().size()) << what;
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    const ff::Event &x = a.events()[i], &y = b.events()[i];
    EXPECT_EQ(x.site, y.site) << what << " event " << i;
    EXPECT_EQ(x.call_index, y.call_index) << what << " event " << i;
    EXPECT_EQ(x.bit, y.bit) << what << " event " << i;
    EXPECT_EQ(0, std::memcmp(&x.before, &y.before, sizeof(float)))
        << what << " event " << i;
    EXPECT_EQ(0, std::memcmp(&x.after, &y.after, sizeof(float)))
        << what << " event " << i;
  }
}

/// Per-site ordinal of the first flip `inj` places at `site` when only that
/// site is called.
std::uint64_t first_hit(ff::FaultInjector inj, ff::Site site) {
  while (inj.injected() == 0) inj.corrupt(site, 1.0f);
  return inj.events()[0].call_index;
}

}  // namespace

TEST(FaultInjector, NullAndDisarmedPassThrough) {
  ff::FaultInjector none;
  EXPECT_FALSE(none.armed());
  EXPECT_EQ(none.corrupt(ff::Site::kGemm1, 2.5f), 2.5f);
  EXPECT_EQ(ff::corrupt(nullptr, ff::Site::kGemm1, 2.5f), 2.5f);
}

TEST(FaultInjector, SingleFlipsExactlyTheTargetCall) {
  auto inj = ff::FaultInjector::single(ff::Site::kExp, 3, 31);  // sign bit
  for (int i = 0; i < 10; ++i) {
    const float out = inj.corrupt(ff::Site::kExp, 1.0f);
    if (i == 3) {
      EXPECT_EQ(out, -1.0f) << i;
    } else {
      EXPECT_EQ(out, 1.0f) << i;
    }
  }
  EXPECT_EQ(inj.injected(), 1u);
  ASSERT_EQ(inj.events().size(), 1u);
  EXPECT_EQ(inj.events()[0].call_index, 3u);
  EXPECT_EQ(inj.events()[0].bit, 31u);
  EXPECT_EQ(inj.events()[0].site, ff::Site::kExp);
}

TEST(FaultInjector, SingleIgnoresOtherSites) {
  auto inj = ff::FaultInjector::single(ff::Site::kGemm1, 0, 20);
  EXPECT_EQ(inj.corrupt(ff::Site::kExp, 1.0f), 1.0f);
  EXPECT_EQ(inj.corrupt(ff::Site::kReduceSum, 1.0f), 1.0f);
  EXPECT_EQ(inj.injected(), 0u);
  EXPECT_NE(inj.corrupt(ff::Site::kGemm1, 1.0f), 1.0f);
  EXPECT_EQ(inj.injected(), 1u);
}

TEST(FaultInjector, SingleFiresOnlyOnce) {
  auto inj = ff::FaultInjector::single(ff::Site::kGemm1, 0, 20);
  inj.corrupt(ff::Site::kGemm1, 1.0f);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(inj.corrupt(ff::Site::kGemm1, 1.0f), 1.0f);
  }
  EXPECT_EQ(inj.injected(), 1u);
}

TEST(FaultInjector, CallCountersTrackEverything) {
  auto inj = ff::FaultInjector::single(ff::Site::kGemm1, 1000000, 0);
  for (int i = 0; i < 7; ++i) inj.corrupt(ff::Site::kGemm1, 0.0f);
  for (int i = 0; i < 3; ++i) inj.corrupt(ff::Site::kExp, 0.0f);
  EXPECT_EQ(inj.calls(ff::Site::kGemm1), 7u);
  EXPECT_EQ(inj.calls(ff::Site::kExp), 3u);
}

TEST(FaultInjector, ResetRearms) {
  auto inj = ff::FaultInjector::single(ff::Site::kGemm1, 2, 31);
  for (int i = 0; i < 5; ++i) inj.corrupt(ff::Site::kGemm1, 1.0f);
  EXPECT_EQ(inj.injected(), 1u);
  inj.reset();
  EXPECT_EQ(inj.injected(), 0u);
  EXPECT_EQ(inj.calls(ff::Site::kGemm1), 0u);
  float flipped = 0.0f;
  for (int i = 0; i < 5; ++i) {
    const float out = inj.corrupt(ff::Site::kGemm1, 1.0f);
    if (out != 1.0f) flipped = out;
  }
  EXPECT_EQ(flipped, -1.0f);
}

TEST(FaultInjector, BernoulliRateRoughlyMatches) {
  auto inj = ff::FaultInjector::bernoulli(0.01, 42);
  const int n = 200000;
  for (int i = 0; i < n; ++i) inj.corrupt(ff::Site::kGemm1, 1.0f);
  const double rate = static_cast<double>(inj.injected()) / n;
  EXPECT_NEAR(rate, 0.01, 0.002);
}

TEST(FaultInjector, BernoulliZeroProbNeverFires) {
  auto inj = ff::FaultInjector::bernoulli(0.0, 7);
  for (int i = 0; i < 100000; ++i) inj.corrupt(ff::Site::kGemm1, 1.0f);
  EXPECT_EQ(inj.injected(), 0u);
}

TEST(FaultInjector, BernoulliSiteFilter) {
  auto inj = ff::FaultInjector::bernoulli(0.5, 9, {ff::Site::kExp});
  for (int i = 0; i < 1000; ++i) {
    inj.corrupt(ff::Site::kGemm1, 1.0f);
    inj.corrupt(ff::Site::kExp, 1.0f);
  }
  EXPECT_GT(inj.injected(), 100u);
  for (const auto& e : inj.events()) EXPECT_EQ(e.site, ff::Site::kExp);
}

TEST(FaultInjector, BernoulliDeterministicAcrossReset) {
  auto inj = ff::FaultInjector::bernoulli(0.05, 123);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 1000; ++i) inj.corrupt(ff::Site::kGemm1, 1.0f);
  for (const auto& e : inj.events()) first.push_back(e.call_index);
  inj.reset();
  for (int i = 0; i < 1000; ++i) inj.corrupt(ff::Site::kGemm1, 1.0f);
  std::vector<std::uint64_t> second;
  for (const auto& e : inj.events()) second.push_back(e.call_index);
  EXPECT_EQ(first, second);
}

TEST(FaultInjector, EventRecordsBeforeAfter) {
  auto inj = ff::FaultInjector::single(ff::Site::kLinear, 0, 10);
  const float v = 123.456f;
  const float out = inj.corrupt(ff::Site::kLinear, v);
  ASSERT_EQ(inj.events().size(), 1u);
  EXPECT_EQ(inj.events()[0].before, v);
  EXPECT_EQ(inj.events()[0].after, out);
  EXPECT_EQ(ftt::numeric::hamming_f32(v, out), 1);
}

TEST(FaultInjector, RejectsSitesAndBitsOutsideTheHooks) {
  EXPECT_THROW((void)ff::FaultInjector::single(ff::Site::kCount, 0, 3),
               std::invalid_argument);
  EXPECT_THROW((void)ff::FaultInjector::single(ff::Site::kGemm1, 0, 32),
               std::invalid_argument);
  EXPECT_THROW((void)ff::FaultInjector::single(ff::Site::kExp, 5, 1000),
               std::invalid_argument);
  EXPECT_THROW((void)ff::FaultInjector::bernoulli(0.1, 1, {ff::Site::kCount}),
               std::invalid_argument);
  EXPECT_THROW((void)ff::FaultInjector::bernoulli(
                   0.1, 1, {ff::Site::kExp, ff::Site::kCount}),
               std::invalid_argument);
  // The edges of the valid ranges still construct, and bit 31 flips the
  // sign rather than wrapping.
  auto last = ff::FaultInjector::single(ff::Site::kLinear, 0, 31);
  EXPECT_EQ(last.corrupt(ff::Site::kLinear, 2.0f), -2.0f);
  EXPECT_NO_THROW((void)ff::FaultInjector::bernoulli(
      0.1, 1, {ff::Site::kGemm1, ff::Site::kLinear}));
}

TEST(FaultInjector, SkipMatchesPerValueCalls) {
  // A passing skip(site, n) must leave the injector exactly where n
  // corrupt() calls that flipped nothing would; a failing one must leave it
  // untouched.  Covered for a single flip, for a multi-site Bernoulli
  // campaign (its sites share one RNG), at n in {0, hit - 1, hit, hit + 1},
  // on a site the injector does not arm, and for skip(probe) over several
  // sites at once.
  const ff::Site site = ff::Site::kExp;
  struct Case {
    ff::FaultInjector inj;
    bool linear_armed;
  };
  const Case cases[] = {
      {ff::FaultInjector::single(site, 37, 30), false},
      {ff::FaultInjector::bernoulli(0.02, 11, {ff::Site::kGemm1, site}),
       false},
      {ff::FaultInjector::bernoulli(0.01, 12), true}};
  for (const auto& [start, linear_armed] : cases) {
    // Offset the counters first, so skip starts mid-stream.
    ff::FaultInjector base = start;
    for (int i = 0; i < 3; ++i) base.corrupt(site, 1.0f);
    ASSERT_EQ(base.injected(), 0u);
    const std::uint64_t hit = first_hit(base, site) - base.calls(site);
    ASSERT_GT(hit, 1u);
    for (const std::uint64_t n : {std::uint64_t{0}, hit - 1, hit, hit + 1}) {
      ff::FaultInjector skipped = base, twin = base;
      const bool passed = skipped.skip(site, n);
      EXPECT_EQ(passed, n <= hit) << "n = " << n;
      if (passed) {
        for (std::uint64_t i = 0; i < n; ++i) twin.corrupt(site, 1.0f);
        ASSERT_EQ(twin.injected(), 0u);
      }
      expect_twins(skipped, twin, passed ? "passing skip" : "failing skip");
    }
    if (!linear_armed) {
      // A site the injector never flips: any n passes.
      ff::FaultInjector skipped = base, twin = base;
      EXPECT_TRUE(skipped.skip(ff::Site::kLinear, 100000));
      for (int i = 0; i < 100000; ++i) twin.corrupt(ff::Site::kLinear, 1.0f);
      expect_twins(skipped, twin, "unarmed site");
    }
  }

  // skip(probe) is all or nothing across sites.
  const auto multi = ff::FaultInjector::bernoulli(
      0.02, 13, {ff::Site::kGemm1, ff::Site::kExp});
  const std::uint64_t hit_g = first_hit(multi, ff::Site::kGemm1);
  const std::uint64_t hit_e = first_hit(multi, ff::Site::kExp);
  ASSERT_GT(hit_g, 0u);
  ASSERT_GT(hit_e, 0u);
  const auto probe_of = [](std::uint64_t g, std::uint64_t e) {
    ff::FaultInjector probe;
    for (std::uint64_t i = 0; i < g; ++i) probe.corrupt(ff::Site::kGemm1, 0.f);
    for (std::uint64_t i = 0; i < e; ++i) probe.corrupt(ff::Site::kExp, 0.f);
    for (int i = 0; i < 50; ++i) probe.corrupt(ff::Site::kChecksum, 0.0f);
    return probe;
  };
  {
    // Every site stops short of its flip: all counters advance.
    const ff::FaultInjector probe = probe_of(hit_g, hit_e);
    ff::FaultInjector skipped = multi, twin = multi;
    EXPECT_TRUE(skipped.skip(probe));
    for (const ff::Site each : kAllSites) {
      for (std::uint64_t i = 0; i < probe.calls(each); ++i) {
        twin.corrupt(each, 1.0f);
      }
    }
    ASSERT_EQ(twin.injected(), 0u);
    expect_twins(skipped, twin, "passing probe");
  }
  // One site reaches its flip: nothing advances, not even the sites that
  // would have passed on their own.
  for (const auto& [g, e] :
       {std::pair{hit_g + 1, hit_e}, std::pair{hit_g, hit_e + 1}}) {
    ff::FaultInjector skipped = multi;
    EXPECT_FALSE(skipped.skip(probe_of(g, e)));
    expect_twins(skipped, multi, "failing probe");
  }
  // An empty probe always passes and moves nothing.
  ff::FaultInjector skipped = multi;
  EXPECT_TRUE(skipped.skip(ff::FaultInjector{}));
  expect_twins(skipped, multi, "empty probe");
}

TEST(FaultInjector, SiteNamesDistinct) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < ff::kSiteCount; ++i) {
    names.insert(ff::site_name(static_cast<ff::Site>(i)));
  }
  EXPECT_EQ(names.size(), ff::kSiteCount);
}

#include "fault/campaign.hpp"

TEST(Campaign, AggregatesGrid) {
  ff::CampaignConfig cfg;
  cfg.sites = {ff::Site::kGemm1, ff::Site::kExp};
  cfg.call_offsets = {0, 5};
  cfg.bits = {30, 31};
  cfg.absorbed_threshold = 0.5f;
  int calls_seen = 0;
  const auto stats = ff::run_campaign(cfg, [&](ff::FaultInjector& inj) {
    ++calls_seen;
    // Pretend computation: 10 values per site, flip shows up as deviation.
    float dev = 0.0f;
    for (int i = 0; i < 10; ++i) {
      const float v = inj.corrupt(ff::Site::kGemm1, 1.0f);
      dev = std::max(dev, std::fabs(v - 1.0f));
      const float e = inj.corrupt(ff::Site::kExp, 0.5f);
      dev = std::max(dev, std::fabs(e - 0.5f));
    }
    return ff::TrialResult{dev, dev > 0.0f};
  });
  EXPECT_EQ(calls_seen, 8);
  EXPECT_EQ(stats.runs, 8u);
  EXPECT_EQ(stats.injected, 8u);   // all offsets < 10 calls
  EXPECT_EQ(stats.detected, 8u);   // every flip moved the value
  EXPECT_DOUBLE_EQ(stats.detection_rate(), 1.0);
  EXPECT_GT(stats.worst_deviation, 0.4f);
}

TEST(Campaign, CountsMissedInjections) {
  ff::CampaignConfig cfg;
  cfg.sites = {ff::Site::kLinear};
  cfg.call_offsets = {1000};  // beyond the 3 calls the trial makes
  cfg.bits = {30};
  const auto stats = ff::run_campaign(cfg, [&](ff::FaultInjector& inj) {
    for (int i = 0; i < 3; ++i) inj.corrupt(ff::Site::kLinear, 1.0f);
    return ff::TrialResult{0.0f, false};
  });
  EXPECT_EQ(stats.runs, 1u);
  EXPECT_EQ(stats.injected, 0u);
  EXPECT_DOUBLE_EQ(stats.absorption_rate(), 1.0);
}
