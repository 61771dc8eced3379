// Figure 11: EFTA execution time with Strided (tensor-checksum) ABFT vs
// traditional (element-checksum) ABFT protecting the QK^T and PV GEMMs.
//
// Paper shape: strided ABFT averages 11.8% (h16) / 10.5% (h32) overhead,
// traditional averages ~32-35% — roughly a 3x reduction, driven by the
// cross-thread reductions the tensor checksum eliminates.
//
// `--json <path>` also writes linear_abft_overhead_measured: protected over
// unprotected Linear::forward on this machine (the CI perf job's gauge).

#include "abft/element_abft.hpp"
#include "abft/strided_abft.hpp"
#include "bench_json.hpp"
#include "bench_util.hpp"
#include "core/efta.hpp"
#include "fault/fault.hpp"
#include "sim/mma.hpp"
#include "tensor/tensor.hpp"
#include "transformer/linear.hpp"

namespace fa = ftt::attention;
namespace fc = ftt::core;

namespace {

void run_config(std::size_t heads, std::size_t dim) {
  const auto m = bench::machine();
  fc::EftaOptions strided, element;
  strided.gemm = fc::GemmProtect::kStrided;
  element.gemm = fc::GemmProtect::kElement;
  // Isolate the ABFT comparison: no softmax protection in either variant.
  strided.softmax = fc::SoftmaxProtect::kNone;
  element.softmax = fc::SoftmaxProtect::kNone;
  strided.unified_verification = element.unified_verification = false;

  std::printf("\nFT-design for Mixed-Precision GEMM (head=%zu, dim=%zu)\n",
              heads, dim);
  std::printf("%-6s %10s | %14s %14s\n", "seq", "e2e(ms)",
              "element-ABFT", "tensor-ABFT");
  double sum_s = 0.0, sum_e = 0.0;
  for (const std::size_t seq : bench::kPaperSeqs) {
    const auto shape = fa::paper_shape(seq, heads, dim);
    const double base = m.seconds(fa::flash_attention_costs(shape));
    const double ovh_s = m.seconds(fc::efta_costs(shape, strided)) - base;
    const double ovh_e = m.seconds(fc::efta_costs(shape, element)) - base;
    sum_s += ovh_s / base;
    sum_e += ovh_e / base;
    std::printf("%-6s %10.3f | %13.1f%% %13.1f%%\n",
                bench::seq_label(seq).c_str(), base * 1e3,
                100.0 * ovh_e / base, 100.0 * ovh_s / base);
  }
  const int n = static_cast<int>(std::size(bench::kPaperSeqs));
  std::printf("average: element %.1f%%, tensor %.1f%%  (paper: ~35%% vs %s)\n",
              100.0 * sum_e / n, 100.0 * sum_s / n,
              heads == 16 ? "11.8%" : "10.5%");
}

void measured_sanity() {
  // Host-side measurement of the same two protected GEMM paths.  NOTE: the
  // CPU pays no warp-shuffle or sync penalty, which is precisely what makes
  // the element checksum slow on tensor cores — so the GPU ordering is a
  // cost-model property, not reproducible on the host.
  using ftt::tensor::MatrixF;
  using ftt::tensor::MatrixH;
  MatrixH A(256, 64), B(256, 64);
  ftt::tensor::fill_normal(A, 1, 0.0f, 0.125f);
  ftt::tensor::fill_normal(B, 2);
  MatrixF C(256, 256);
  const double t_plain =
      bench::time_best([&] { ftt::sim::gemm_fp16_nt(A, B, C); });
  const double t_strided = bench::time_best(
      [&] { ftt::abft::StridedAbft::gemm_nt(A, B, C, 8, 0.02f, nullptr); });
  const double t_element = bench::time_best(
      [&] { ftt::abft::ElementAbft::gemm_nt(A, B, C, 0.02f, nullptr); });
  bench::note("measured CPU 256x256x64 protected GEMM:");
  std::printf("  plain %.3f ms | +strided %.1f%% | +element %.1f%%\n",
              t_plain * 1e3, 100.0 * (t_strided - t_plain) / t_plain,
              100.0 * (t_element - t_plain) / t_plain);
}

/// The paper's per-linear protection overhead, measured: protected over
/// unprotected Linear::forward on the tiny model's shapes (128->128,
/// 128->256, 256->128) at 8 and 64 rows — best of 5 over 200-call loops,
/// ratio of the summed times.  The weights are sealed at construction, so
/// this is the checksum GEMM plus the per-tile verify, nothing per call.
double measured_linear_overhead() {
  using ftt::tensor::MatrixF;
  using ftt::transformer::Linear;
  using ftt::transformer::LinearProtect;
  const std::size_t shapes[][2] = {{128, 128}, {128, 256}, {256, 128}};
  double t_plain = 0.0, t_protected = 0.0;
  for (const auto& sh : shapes) {
    const Linear l(sh[0], sh[1], 7);
    for (const std::size_t rows : {8u, 64u}) {
      MatrixF x(rows, sh[0]), y(rows, sh[1]);
      ftt::tensor::fill_normal(x, rows);
      const auto loop = [&](LinearProtect mode) {
        return bench::time_best(
            [&] {
              for (int i = 0; i < 200; ++i) l.forward(x, y, mode);
            },
            5);
      };
      t_plain += loop(LinearProtect::kNone);
      t_protected += loop(LinearProtect::kStridedAbft);
    }
  }
  const double ratio = t_protected / t_plain;
  bench::note("measured protected / unprotected Linear::forward (tiny "
              "shapes, 8 + 64 rows):");
  std::printf("  unprotected %.3f ms | protected %.3f ms | overhead %.2fx\n",
              t_plain * 1e3, t_protected * 1e3, ratio);
  return ratio;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  bench::header("Figure 11 — Strided ABFT vs traditional ABFT inside EFTA");
  run_config(16, 64);
  run_config(32, 128);
  measured_sanity();
  const double overhead = measured_linear_overhead();
  if (json_path.empty()) return 0;
  bench::JsonWriter w;
  w.begin_object();
  w.key("gauges");
  w.begin_object();
  w.kv("linear_abft_overhead_measured", overhead);
  w.end_object();
  w.end_object();
  return w.write_file(json_path) ? 0 : 1;
}
