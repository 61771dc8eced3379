// google-benchmark microbenchmarks of the host-side kernels: the simulated
// fp16 GEMM, checksum encode/verify, softmax, and the full EFTA slice.
// These are CPU performance numbers for this simulator (not A100 numbers);
// they back the measured-ratio sanity checks in the figure benches.

#include <benchmark/benchmark.h>

#include <vector>

#include "abft/element_abft.hpp"
#include "abft/strided_abft.hpp"
#include "core/efta.hpp"
#include "sim/mma.hpp"
#include "softmax/softmax.hpp"
#include "tensor/random.hpp"

namespace fb = ftt::abft;
namespace fc = ftt::core;
namespace fs = ftt::sim;
namespace ft = ftt::tensor;

static void BM_GemmFp16(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ft::MatrixH A(n, 64), B(n, 64);
  ft::fill_normal(A, 1);
  ft::fill_normal(B, 2);
  ft::MatrixF C(n, n);
  for (auto _ : state) {
    fs::gemm_fp16_nt(A, B, C);
    benchmark::DoNotOptimize(C.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * 64);
}
BENCHMARK(BM_GemmFp16)->Arg(64)->Arg(128)->Arg(256);

// One 64 x 64 KV tile's checksum block (K^T and V given, stride 8): the
// per-tile encode a fresh decode tile and every seal pay.
static void BM_StridedEncode(benchmark::State& state) {
  ft::MatrixH KT(64, 64), V(64, 64);
  ft::fill_normal(KT, 3);
  ft::fill_normal(V, 7);
  std::vector<ftt::numeric::Half> block(fc::tile_checksum_halves(64, 64, 8));
  for (auto _ : state) {
    fc::encode_tile_checksums(KT.data(), V.data(), 64, 64, 8, nullptr,
                              block.data());
    benchmark::DoNotOptimize(block.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_StridedEncode);

static void BM_StridedVerify(benchmark::State& state) {
  ft::MatrixF S(64, 64);
  ft::fill_normal(S, 4);
  ft::MatrixF c1(64, 8, 0.0f), c2(64, 8, 0.0f);
  for (std::size_t r = 0; r < 64; ++r) {
    for (std::size_t jc = 0; jc < 8; ++jc) {
      for (std::size_t l = 0; l < 8; ++l) {
        c1(r, jc) += S(r, jc + 8 * l);
        c2(r, jc) += static_cast<float>(l + 1) * S(r, jc + 8 * l);
      }
    }
  }
  for (auto _ : state) {
    auto rep = fb::StridedAbft::verify_correct(S, c1, c2, 8, 0.02f);
    benchmark::DoNotOptimize(rep.checks);
  }
}
BENCHMARK(BM_StridedVerify);

static void BM_ProtectedGemm(benchmark::State& state) {
  const bool strided = state.range(0) != 0;
  ft::MatrixH A(128, 64), B(128, 64);
  ft::fill_normal(A, 5, 0.0f, 0.125f);
  ft::fill_normal(B, 6);
  ft::MatrixF C(128, 128);
  for (auto _ : state) {
    if (strided) {
      fb::StridedAbft::gemm_nt(A, B, C, 8, 0.02f, nullptr);
    } else {
      fb::ElementAbft::gemm_nt(A, B, C, 0.02f, nullptr);
    }
    benchmark::DoNotOptimize(C.data());
  }
}
BENCHMARK(BM_ProtectedGemm)->Arg(0)->Arg(1);

static void BM_RowSoftmax(benchmark::State& state) {
  ft::MatrixF S(256, 256);
  ft::fill_normal(S, 7);
  for (auto _ : state) {
    ft::MatrixF P = S;
    ftt::softmax::row_softmax(P);
    benchmark::DoNotOptimize(P.data());
  }
}
BENCHMARK(BM_RowSoftmax);

static void BM_EftaSlice(benchmark::State& state) {
  const bool unified = state.range(0) != 0;
  const std::size_t seq = 256;
  ft::Tensor4H Q(1, 1, seq, 64), K(1, 1, seq, 64), V(1, 1, seq, 64);
  ft::fill_normal(Q, 8);
  ft::fill_normal(K, 9);
  ft::fill_normal(V, 10);
  ft::Tensor4F O(1, 1, seq, 64);
  fc::EftaOptions opt;
  opt.unified_verification = unified;
  for (auto _ : state) {
    fc::efta_attention(Q, K, V, O, opt);
    benchmark::DoNotOptimize(O.data());
  }
}
BENCHMARK(BM_EftaSlice)->Arg(0)->Arg(1);

BENCHMARK_MAIN();
