// OpenMP thread-count invariance: the batched decode kernel partitions
// *independent* (request, head) work items across threads — no shared
// accumulator ever crosses an item boundary — so its outputs and its
// merged / per-item FtReports must be bit-identical for any OpenMP team
// size.  This suite pins that down for OMP_NUM_THREADS in {1, 2, 8} at the
// kernel level and at the full serving-engine level, pins an injected
// batch to a serial loop over its items, and pins efta_attention's injected
// runs (the same batch runner) across team sizes; scripts/run_tier1.sh
// additionally re-runs it under an OMP_NUM_THREADS matrix from the outside.
#include <gtest/gtest.h>

#include <omp.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/decode.hpp"
#include "core/efta.hpp"
#include "fault/fault.hpp"
#include "paged_kv_fixture.hpp"
#include "serve/engine.hpp"
#include "tensor/random.hpp"
#include "transformer/model.hpp"

namespace fa = ftt::attention;
namespace fc = ftt::core;
namespace ff = ftt::fault;
namespace fs = ftt::serve;
namespace ft = ftt::tensor;
namespace fx = ftt::transformer;
using ftt::numeric::Half;
using ftt::testing::fill_random;
using ftt::testing::PagedKv;

// This suite *forces* multi-thread OpenMP teams via omp_set_num_threads,
// which defeats the TSan leg's OMP_NUM_THREADS=1 guard: libgomp is not
// TSan-instrumented, so its critical sections / barriers are invisible and
// every properly-synchronized OMP reduction reads as a race.  The property
// under test here is numeric (bit-invariance), already covered by the
// plain and OMP-matrix ctest legs; under TSan the suite skips itself,
// since the sanitizer can check only threads that are not libgomp's.
#if defined(__SANITIZE_THREAD__)
#define FTT_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FTT_TSAN_BUILD 1
#endif
#endif
#if defined(FTT_TSAN_BUILD)
#define FTT_SKIP_UNDER_TSAN() \
  GTEST_SKIP() << "OMP teams under TSan: libgomp sync is uninstrumented"
#else
#define FTT_SKIP_UNDER_TSAN() (void)0
#endif

namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

fx::ModelConfig serving_config() {
  fx::ModelConfig cfg = fx::ModelConfig::tiny();
  cfg.causal = true;
  return cfg;
}

/// Restore the ambient thread count after each test so suites stay
/// independent of execution order.
class OmpGuard {
 public:
  OmpGuard() : saved_(omp_get_max_threads()) {}
  ~OmpGuard() { omp_set_num_threads(saved_); }

 private:
  int saved_;
};

}  // namespace

TEST(OmpInvariance, DecodeBatchBitIdenticalAcrossThreadCounts) {
  FTT_SKIP_UNDER_TSAN();
  OmpGuard guard;
  const std::size_t lengths[] = {200, 65, 64, 1, 130};
  constexpr std::size_t kHeads = 4, kDim = 32;
  std::vector<PagedKv> caches;
  for (std::size_t i = 0; i < std::size(lengths); ++i) {
    caches.emplace_back(kHeads, kDim, fc::TileFmt::kF16);
    fill_random(caches.back(), lengths[i], 900 + i);
  }
  const std::size_t items_n = caches.size() * kHeads;
  std::vector<std::vector<Half>> queries(items_n, std::vector<Half>(kDim));
  for (std::size_t i = 0; i < items_n; ++i) {
    std::mt19937_64 rng(7100 + i);
    std::normal_distribution<float> dist(0.0f, 1.0f);
    for (auto& x : queries[i]) x = Half(dist(rng));
  }

  std::vector<std::vector<float>> ref_out;
  std::vector<fa::FtReport> ref_item;
  fa::FtReport ref_total;

  for (std::size_t t = 0; t < std::size(kThreadCounts); ++t) {
    omp_set_num_threads(kThreadCounts[t]);
    std::vector<std::vector<float>> out(items_n,
                                        std::vector<float>(kDim, 0.0f));
    std::vector<fc::DecodeWorkItem> items;
    for (std::size_t r = 0; r < caches.size(); ++r) {
      for (std::size_t h = 0; h < kHeads; ++h) {
        const std::size_t i = r * kHeads + h;
        items.push_back(fc::DecodeWorkItem{caches[r].slice(h),
                                           queries[i].data(),
                                           out[i].data()});
      }
    }
    std::vector<fa::FtReport> per_item(items_n);
    const fa::FtReport total =
        fc::efta_decode_batch(items, {}, nullptr, per_item);

    if (t == 0) {
      ref_out = out;
      ref_item = per_item;
      ref_total = total;
      continue;
    }
    for (std::size_t i = 0; i < items_n; ++i) {
      for (std::size_t c = 0; c < kDim; ++c) {
        EXPECT_EQ(out[i][c], ref_out[i][c])
            << kThreadCounts[t] << " threads, item " << i << " c " << c;
      }
      EXPECT_EQ(per_item[i].gemm1.checks, ref_item[i].gemm1.checks);
      EXPECT_EQ(per_item[i].gemm2.checks, ref_item[i].gemm2.checks);
      EXPECT_EQ(per_item[i].total_detected(), ref_item[i].total_detected());
    }
    EXPECT_EQ(total.gemm1.checks, ref_total.gemm1.checks);
    EXPECT_EQ(total.exp_check.checks, ref_total.exp_check.checks);
    EXPECT_EQ(total.gemm2.checks, ref_total.gemm2.checks);
    EXPECT_EQ(total.total_detected(), ref_total.total_detected());
    EXPECT_EQ(total.total_corrected(), ref_total.total_corrected());
  }
}

TEST(OmpInvariance, InjectedBatchEqualsSerialItems) {
  FTT_SKIP_UNDER_TSAN();
  // Under an injector the batch runs its items in parallel under per-item
  // probes, then replays them in batch order, re-running serially only the
  // items a flip lands in.  The result must be a serial loop of
  // efta_decode_block with the same injector, bit for bit: outputs,
  // per-item reports, per-site calls() and events.  The batch mixes every
  // tile storage: a raw slice (transpose and encode per tile), kF16 pools
  // (K^T planes and sealed checksum blocks) and kI8 pools (fused int8),
  // with decode rows, a speculative block and a prefill chunk.
  OmpGuard guard;
  constexpr std::size_t kDim = 32;
  struct Ctx {
    std::size_t n, rows;
    fc::TileFmt fmt;
  };
  const Ctx ctxs[] = {{200, 1, fc::TileFmt::kF16},
                      {130, 5, fc::TileFmt::kF16},
                      {256, 64, fc::TileFmt::kI8},
                      {129, 1, fc::TileFmt::kI8},
                      {300, 37, fc::TileFmt::kF16}};
  std::vector<PagedKv> caches;
  for (std::size_t i = 0; i < std::size(ctxs); ++i) {
    caches.emplace_back(1, kDim, ctxs[i].fmt);
    fill_random(caches.back(), ctxs[i].n, 930 + i);
  }
  // The raw slice: contiguous rows, no memo.
  ft::MatrixH rk(150, kDim), rv(150, kDim);
  ft::fill_normal(rk, 941);
  ft::fill_normal(rv, 942);
  std::vector<const Half*> rkt, rvt;
  for (std::size_t r = 0; r < rk.rows(); r += fc::KvSlice::kTileRows) {
    rkt.push_back(&rk(r, 0));
    rvt.push_back(&rv(r, 0));
  }
  std::vector<fc::KvSlice> slices;
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < caches.size(); ++i) {
    slices.push_back(caches[i].slice(0));
    rows.push_back(ctxs[i].rows);
  }
  slices.push_back(fc::KvSlice{rkt.data(), rvt.data(), rk.rows(), kDim});
  rows.push_back(3);
  const std::size_t items_n = slices.size();
  std::vector<std::vector<Half>> queries(items_n);
  for (std::size_t i = 0; i < items_n; ++i) {
    queries[i].resize(rows[i] * kDim);
    std::mt19937_64 rng(7300 + i);
    std::normal_distribution<float> dist(0.0f, 1.0f);
    for (auto& x : queries[i]) x = Half(dist(rng));
  }
  const auto items_into = [&](std::vector<std::vector<float>>& out) {
    out.assign(items_n, {});
    std::vector<fc::DecodeWorkItem> items;
    for (std::size_t i = 0; i < items_n; ++i) {
      out[i].assign(rows[i] * kDim, -3.0f);
      items.push_back(fc::DecodeWorkItem{slices[i], queries[i].data(),
                                         out[i].data(), rows[i]});
    }
    return items;
  };
  const auto serial = [&](ff::FaultInjector& inj,
                          std::vector<std::vector<float>>& out,
                          std::vector<fa::FtReport>& reps) {
    const auto items = items_into(out);
    reps.assign(items_n, {});
    for (std::size_t i = 0; i < items_n; ++i) {
      reps[i] = fc::efta_decode_block(items[i], {}, &inj);
    }
  };

  ff::FaultInjector probe;
  std::vector<std::vector<float>> probe_out;
  std::vector<fa::FtReport> probe_reps;
  serial(probe, probe_out, probe_reps);
  std::vector<ff::FaultInjector> campaign;
  for (std::size_t si = 0; si < ff::kSiteCount; ++si) {
    const auto site = static_cast<ff::Site>(si);
    if (site == ff::Site::kLinear) continue;
    ASSERT_GT(probe.calls(site), 0u) << ff::site_name(site);
    for (std::uint64_t k = 1; k <= 4; ++k) {
      campaign.push_back(ff::FaultInjector::single(
          site, probe.calls(site) * k / 5, k % 2 ? 30u : 26u));
    }
  }
  const std::size_t singles = campaign.size();
  campaign.push_back(ff::FaultInjector::bernoulli(2e-4, 17));
  campaign.push_back(ff::FaultInjector{});

  for (const int threads : kThreadCounts) {
    omp_set_num_threads(threads);
    for (std::size_t c = 0; c < campaign.size(); ++c) {
      ff::FaultInjector want = campaign[c], got = campaign[c];
      std::vector<std::vector<float>> want_out, got_out;
      std::vector<fa::FtReport> want_reps, got_reps(items_n);
      serial(want, want_out, want_reps);
      const auto items = items_into(got_out);
      const fa::FtReport total =
          fc::efta_decode_batch(items, {}, &got, got_reps);

      fa::FtReport want_total;
      for (std::size_t i = 0; i < items_n; ++i) {
        EXPECT_EQ(0, std::memcmp(got_out[i].data(), want_out[i].data(),
                                 got_out[i].size() * sizeof(float)))
            << threads << " threads, case " << c << ", item " << i;
        ftt::testing::expect_same_report(got_reps[i], want_reps[i],
                                         "per-item report");
        want_total += want_reps[i];
      }
      ftt::testing::expect_same_report(total, want_total, "batch total");
      for (std::size_t si = 0; si < ff::kSiteCount; ++si) {
        const auto site = static_cast<ff::Site>(si);
        EXPECT_EQ(got.calls(site), want.calls(site))
            << threads << " threads, case " << c << " "
            << ff::site_name(site);
      }
      ASSERT_EQ(got.events().size(), want.events().size())
          << threads << " threads, case " << c;
      for (std::size_t e = 0; e < got.events().size(); ++e) {
        const ff::Event &x = got.events()[e], &y = want.events()[e];
        EXPECT_EQ(x.site, y.site) << "case " << c << " event " << e;
        EXPECT_EQ(x.call_index, y.call_index) << "case " << c;
        EXPECT_EQ(x.bit, y.bit) << "case " << c;
        EXPECT_EQ(0, std::memcmp(&x.before, &y.before, sizeof(float)));
        EXPECT_EQ(0, std::memcmp(&x.after, &y.after, sizeof(float)));
      }
      if (c < singles) {
        EXPECT_EQ(got.injected(), 1u) << "case " << c;
      }
    }
  }
}

TEST(OmpInvariance, EftaAttentionInjectedRunsIndependentOfTeamSize) {
  FTT_SKIP_UNDER_TSAN();
  // efta_attention runs its 64-row query blocks through the batch runner,
  // so under an injector its blocks speculate in parallel and the block a
  // flip lands in replays serially.  Outputs, the report, per-site calls()
  // and events must not depend on the team size: single flips at every
  // attention site and a Bernoulli campaign, causal and non-causal.
  OmpGuard guard;
  constexpr std::size_t kHeads = 2, kSeq = 192, kDim = 32;
  ft::Tensor4H Q(1, kHeads, kSeq, kDim), K(1, kHeads, kSeq, kDim),
      V(1, kHeads, kSeq, kDim);
  ft::fill_normal(Q, 951);
  ft::fill_normal(K, 952);
  ft::fill_normal(V, 953);
  for (const bool causal : {false, true}) {
    fc::EftaOptions opt;
    opt.causal = causal;
    opt.unified_verification = true;
    ft::Tensor4F O(1, kHeads, kSeq, kDim);
    ff::FaultInjector probe;
    fc::efta_attention(Q, K, V, O, opt, &probe);
    std::vector<ff::FaultInjector> campaign;
    for (std::size_t si = 0; si < ff::kSiteCount; ++si) {
      const auto site = static_cast<ff::Site>(si);
      if (site == ff::Site::kLinear) continue;
      ASSERT_GT(probe.calls(site), 0u) << ff::site_name(site);
      for (std::uint64_t k = 1; k <= 2; ++k) {
        campaign.push_back(ff::FaultInjector::single(
            site, probe.calls(site) * k / 3, k % 2 ? 30u : 26u));
      }
    }
    campaign.push_back(ff::FaultInjector::bernoulli(2e-4, 17));

    for (std::size_t c = 0; c < campaign.size(); ++c) {
      ft::Tensor4F want_out(1, kHeads, kSeq, kDim);
      ff::FaultInjector want = campaign[c];
      fa::FtReport want_rep;
      for (const int threads : kThreadCounts) {
        omp_set_num_threads(threads);
        ft::Tensor4F out(1, kHeads, kSeq, kDim);
        ff::FaultInjector got = campaign[c];
        const fa::FtReport rep = fc::efta_attention(Q, K, V, out, opt, &got);
        if (threads == kThreadCounts[0]) {
          want_out = out;
          want = got;
          want_rep = rep;
          EXPECT_GE(got.injected(), 1u) << "causal " << causal << " case " << c;
          continue;
        }
        const std::string tag = std::to_string(threads) + " threads, causal " +
                                std::to_string(causal) + ", case " +
                                std::to_string(c);
        EXPECT_EQ(0, std::memcmp(out.data(), want_out.data(),
                                 out.size() * sizeof(float)))
            << tag;
        ftt::testing::expect_same_report(rep, want_rep, tag.c_str());
        for (std::size_t si = 0; si < ff::kSiteCount; ++si) {
          const auto site = static_cast<ff::Site>(si);
          EXPECT_EQ(got.calls(site), want.calls(site))
              << tag << " " << ff::site_name(site);
        }
        ASSERT_EQ(got.events().size(), want.events().size()) << tag;
        for (std::size_t e = 0; e < got.events().size(); ++e) {
          const ff::Event &x = got.events()[e], &y = want.events()[e];
          EXPECT_EQ(x.site, y.site) << tag << " event " << e;
          EXPECT_EQ(x.call_index, y.call_index) << tag;
          EXPECT_EQ(x.bit, y.bit) << tag;
          EXPECT_EQ(0, std::memcmp(&x.before, &y.before, sizeof(float)));
          EXPECT_EQ(0, std::memcmp(&x.after, &y.after, sizeof(float)));
        }
      }
    }
  }
}

TEST(OmpInvariance, EngineRunBitIdenticalAcrossThreadCounts) {
  FTT_SKIP_UNDER_TSAN();
  OmpGuard guard;
  const fx::Model model(serving_config(), 0x0317);
  const std::size_t hidden = model.config().hidden;
  ft::MatrixF p0(90, hidden), p1(17, hidden);
  ft::fill_normal(p0, 61);
  ft::fill_normal(p1, 62);

  std::vector<std::vector<float>> ref;
  fs::StepStats ref_stats;

  for (std::size_t t = 0; t < std::size(kThreadCounts); ++t) {
    omp_set_num_threads(kThreadCounts[t]);
    fs::EngineOptions opt;
    opt.spec_tokens = 2;
    fs::DecodeEngine engine(model, opt);
    const auto a = engine.submit(p0, 6);
    const auto b = engine.submit(p1, 8);
    const fs::StepStats stats = engine.run_until_idle(nullptr, 10000);
    std::vector<std::vector<float>> h;
    h.emplace_back(engine.hidden(a).begin(), engine.hidden(a).end());
    h.emplace_back(engine.hidden(b).begin(), engine.hidden(b).end());

    if (t == 0) {
      ref = h;
      ref_stats = stats;
      continue;
    }
    EXPECT_EQ(stats.decoded, ref_stats.decoded);
    EXPECT_EQ(stats.spec_accepted, ref_stats.spec_accepted);
    EXPECT_EQ(stats.attention.gemm1.checks,
              ref_stats.attention.gemm1.checks);
    EXPECT_EQ(stats.attention.total_detected(),
              ref_stats.attention.total_detected());
    for (std::size_t r = 0; r < h.size(); ++r) {
      ASSERT_EQ(h[r].size(), ref[r].size());
      for (std::size_t c = 0; c < h[r].size(); ++c) {
        EXPECT_EQ(h[r][c], ref[r][c])
            << kThreadCounts[t] << " threads, request " << r << " c " << c;
      }
    }
  }
}
