// Parity digest: one FNV-1a digest per protected-kernel family over a fixed
// campaign — every output bit, every FtReport / abft::Report counter, every
// per-site hook count and every injected event (site, call index, bit, value
// before and after).  Two builds that print the same lines computed the same
// bits on the whole campaign, so a kernel change that must not move a bit is
// checked by running this on both sides of it:
//
//   ./parity_digest      # one "<family> cases=<n> digest=<hex>" line each
//
// Families and their campaigns (each case hashes its own configuration too):
//   efta    efta_attention: {optimized, per-iteration, ABFT-only, SNVR-only,
//           element ABFT, DMR} x causal {off, on} x seq {64, 128, 512}
//   block   efta_decode_block: {kF16 raw slice, kF16T pool, kI8 pool}
//           x n {1, 7, 63, 64, 65, 128, 129, 200, 300} x rows {1, 5, 37, 64}
//   linear  sealed Linear::forward, protected, over 1, 7 and 56 rows
//   batch   efta_decode_batch over one mixed batch: a raw slice, kF16T
//           pools and a kI8 pool, with 1- to 64-row blocks
// Every configuration runs clean, under an unarmed probe, under single flips
// (each hook site, bits {30, 26, 20, 3, 31}, four call indices spread over
// the probe's ordinal space) and under a Bernoulli 1e-4 campaign.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <vector>

#include "attention/ft_report.hpp"
#include "core/decode.hpp"
#include "core/efta.hpp"
#include "fault/fault.hpp"
#include "serve/tile_pool.hpp"
#include "tensor/random.hpp"
#include "transformer/linear.hpp"

namespace fa = ftt::attention;
namespace fb = ftt::abft;
namespace fc = ftt::core;
namespace ff = ftt::fault;
namespace fs = ftt::serve;
namespace ft = ftt::tensor;
namespace fx = ftt::transformer;
using ftt::numeric::Half;

namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void floats(const float* p, std::size_t n) { bytes(p, n * sizeof(float)); }
};

void add(Fnv& f, const fb::Report& r) {
  for (const std::size_t v : {r.checks, r.flagged, r.corrected, r.recomputed,
                              r.checksum_repairs, r.uncorrectable,
                              r.range_violations}) {
    f.u64(v);
  }
}

void add(Fnv& f, const fa::FtReport& r) {
  add(f, r.gemm1);
  add(f, r.exp_check);
  add(f, r.gemm2);
  f.u64(r.dmr_recomputes);
  f.u64(r.range_corrections);
  f.u64(r.faults_injected);
}

void add(Fnv& f, const ff::FaultInjector& inj) {
  for (std::size_t s = 0; s < ff::kSiteCount; ++s) {
    f.u64(inj.calls(static_cast<ff::Site>(s)));
  }
  for (const ff::Event& e : inj.events()) {
    f.u64(static_cast<std::uint64_t>(e.site));
    f.u64(e.call_index);
    f.u64(e.bit);
    f.floats(&e.before, 1);
    f.floats(&e.after, 1);
  }
}

/// One family's running digest and case count.
struct Family {
  const char* name;
  Fnv fnv;
  std::size_t cases = 0;
  void print() const {
    std::printf("%-6s cases=%zu digest=%016llx\n", name, cases,
                static_cast<unsigned long long>(fnv.h));
  }
};

/// Runs one configuration: `run(inj)` computes it under `inj` (null = clean)
/// and hashes its outputs and report into the family.  Every case hashes
/// the injector's calls and events after the run.
template <typename Run>
void campaign(Family& fam, const std::vector<ff::Site>& sites, Run run) {
  const auto one = [&](ff::FaultInjector* inj) {
    run(inj);
    if (inj) add(fam.fnv, *inj);
    ++fam.cases;
  };
  one(nullptr);
  ff::FaultInjector probe;
  one(&probe);
  for (const ff::Site site : sites) {
    const std::uint64_t calls = probe.calls(site);
    for (const unsigned bit : {30u, 26u, 20u, 3u, 31u}) {
      for (std::uint64_t k = 1; k <= 4; ++k) {
        auto inj = ff::FaultInjector::single(site, calls * k / 5, bit);
        one(&inj);
      }
    }
  }
  auto bern = ff::FaultInjector::bernoulli(1e-4, 7);
  one(&bern);
}

const std::vector<ff::Site> kAttentionSites = {
    ff::Site::kGemm1,   ff::Site::kReduceMax, ff::Site::kExp,
    ff::Site::kReduceSum, ff::Site::kRescale, ff::Site::kGemm2,
    ff::Site::kChecksum};

void efta_family(Family& fam) {
  fc::EftaOptions optimized;
  optimized.unified_verification = true;
  fc::EftaOptions abft_only = optimized;
  abft_only.softmax = fc::SoftmaxProtect::kNone;
  fc::EftaOptions snvr_only = optimized;
  snvr_only.gemm = fc::GemmProtect::kNone;
  fc::EftaOptions element;
  element.gemm = fc::GemmProtect::kElement;
  fc::EftaOptions dmr;
  dmr.softmax = fc::SoftmaxProtect::kDMR;
  const fc::EftaOptions variants[] = {optimized, fc::EftaOptions{}, abft_only,
                                      snvr_only, element, dmr};
  for (std::size_t v = 0; v < std::size(variants); ++v) {
    for (const bool causal : {false, true}) {
      for (const std::size_t seq : {64u, 128u, 512u}) {
        ft::Tensor4H Q(1, 1, seq, 64), K(1, 1, seq, 64), V(1, 1, seq, 64);
        ft::fill_normal(Q, 100 + seq);
        ft::fill_normal(K, 200 + seq);
        ft::fill_normal(V, 300 + seq);
        fc::EftaOptions opt = variants[v];
        opt.causal = causal;
        campaign(fam, kAttentionSites, [&](ff::FaultInjector* inj) {
          ft::Tensor4F O(1, 1, seq, 64);
          const fa::FtReport rep = fc::efta_attention(Q, K, V, O, opt, inj);
          fam.fnv.u64(v * 1000000 + seq * 10 + causal);
          fam.fnv.floats(O.data(), O.size());
          add(fam.fnv, rep);
        });
      }
    }
  }
}

/// A head's K/V context of n N(0, 1) tokens in one of three storages: raw
/// contiguous rows (0), a kF16T pool (1) or a kI8 pool (2).
struct Context {
  static constexpr std::size_t kD = 64;
  ft::MatrixH k, v;  ///< raw contiguous rows
  std::vector<const Half*> kt, vt;
  std::unique_ptr<fs::TilePool> pool;
  std::unique_ptr<fs::PagedKvCache> cache;

  Context(std::size_t n, int storage, std::uint64_t seed) : k(n, kD), v(n, kD) {
    ft::fill_normal(k, seed);
    ft::fill_normal(v, seed + 1);
    if (storage == 0) {
      for (std::size_t r = 0; r < n; r += fc::KvSlice::kTileRows) {
        kt.push_back(k.data() + r * kD);
        vt.push_back(v.data() + r * kD);
      }
      return;
    }
    pool = std::make_unique<fs::TilePool>(fs::TilePoolOptions{1, 1, kD, 0});
    cache = std::make_unique<fs::PagedKvCache>(
        *pool, storage == 2 ? fc::TileFmt::kI8 : fc::TileFmt::kF16);
    if (!cache->ensure_capacity(n)) std::abort();
    cache->append_chunk(0, {k.data(), n * kD}, {v.data(), n * kD}, n);
  }

  [[nodiscard]] fc::KvSlice slice() const {
    if (cache) return cache->slice(0, 0);
    return fc::KvSlice{kt.data(), vt.data(), k.rows(), kD};
  }
};

void block_family(Family& fam) {
  constexpr std::size_t kD = Context::kD;
  for (int storage = 0; storage < 3; ++storage) {
    for (const std::size_t n : {1u, 7u, 63u, 64u, 65u, 128u, 129u, 200u,
                                300u}) {
      const Context ctx(n, storage, 500 + n);
      const fc::KvSlice kv = ctx.slice();
      for (const std::size_t rows : {1u, 5u, 37u, 64u}) {
        if (rows > n) continue;
        std::vector<Half> q(rows * kD);
        std::mt19937_64 rng(900 + n * 64 + rows);
        std::normal_distribution<float> dist(0.0f, 1.0f);
        for (Half& h : q) h = Half(dist(rng));
        campaign(fam, kAttentionSites, [&](ff::FaultInjector* inj) {
          std::vector<float> out(rows * kD);
          const fa::FtReport rep = fc::efta_decode_block(
              fc::DecodeWorkItem{kv, q.data(), out.data(), rows}, {}, inj);
          fam.fnv.u64(static_cast<std::uint64_t>(storage) * 1000000 +
                      n * 100 + rows);
          fam.fnv.floats(out.data(), out.size());
          add(fam.fnv, rep);
        });
      }
    }
  }
}

void batch_family(Family& fam) {
  constexpr std::size_t kD = Context::kD;
  struct Item {
    int storage;
    std::size_t n, rows;
  };
  const Item spec[] = {{0, 300, 1}, {1, 200, 5}, {1, 129, 64}, {2, 300, 37},
                       {1, 65, 1}};
  std::vector<std::unique_ptr<Context>> ctx;
  std::vector<std::vector<Half>> q;
  for (const Item& s : spec) {
    ctx.push_back(std::make_unique<Context>(s.n, s.storage, 600 + s.n));
    q.emplace_back(s.rows * kD);
    std::mt19937_64 rng(950 + s.n * 64 + s.rows);
    std::normal_distribution<float> dist(0.0f, 1.0f);
    for (Half& h : q.back()) h = Half(dist(rng));
  }
  campaign(fam, kAttentionSites, [&](ff::FaultInjector* inj) {
    std::vector<std::vector<float>> out;
    std::vector<fc::DecodeWorkItem> items;
    for (std::size_t i = 0; i < std::size(spec); ++i) {
      out.emplace_back(spec[i].rows * kD);
      items.push_back(fc::DecodeWorkItem{ctx[i]->slice(), q[i].data(),
                                         out[i].data(), spec[i].rows});
    }
    std::vector<fa::FtReport> per_item(items.size());
    const fa::FtReport total = fc::efta_decode_batch(items, {}, inj, per_item);
    for (std::size_t i = 0; i < items.size(); ++i) {
      fam.fnv.floats(out[i].data(), out[i].size());
      add(fam.fnv, per_item[i]);
    }
    add(fam.fnv, total);
  });
}

void linear_family(Family& fam) {
  const fx::Linear lin(128, 128, 41);
  for (const std::size_t m : {1u, 7u, 56u}) {
    ft::MatrixF x(m, 128);
    std::mt19937_64 rng(700 + m);
    std::normal_distribution<float> dist(0.0f, 1.0f);
    for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = dist(rng);
    campaign(fam, {ff::Site::kLinear, ff::Site::kChecksum},
             [&](ff::FaultInjector* inj) {
               ft::MatrixF y(m, 128);
               const fb::Report rep = lin.forward(
                   x, y, fx::LinearProtect::kStridedAbft, inj);
               fam.fnv.u64(m);
               fam.fnv.floats(y.data(), y.size());
               add(fam.fnv, rep);
             });
  }
}

}  // namespace

int main() {
  Family efta{"efta", {}}, block{"block", {}}, linear{"linear", {}},
      batch{"batch", {}};
  efta_family(efta);
  block_family(block);
  linear_family(linear);
  batch_family(batch);
  efta.print();
  block.print();
  linear.print();
  batch.print();
  return 0;
}
