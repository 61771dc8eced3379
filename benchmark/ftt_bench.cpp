// The repo benchmark program: runs one workload, prints every metric it
// has, then one JSON result line (the last line of stdout) that run.py
// reads.
//
//   ftt_bench --workload chat|long_doc|paper_attention|chaos --seed N
//             [--trace PATH] [--smoke]
//
// Exit status: 0 when every output check passed, 1 when one failed, 2 on a
// usage error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include <omp.h>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ftt_bench --workload chat|long_doc|paper_attention|"
               "chaos --seed N [--trace PATH] [--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ftbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--trace" && has_value) {
      a.trace = argv[++i];
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else {
      return usage();
    }
  }

  ftbench::Result (*run)(const ftbench::Args&) = nullptr;
  if (a.workload == "chat") {
    run = ftbench::run_chat;
  } else if (a.workload == "long_doc") {
    run = ftbench::run_long_doc;
  } else if (a.workload == "paper_attention") {
    run = ftbench::run_paper_attention;
  } else if (a.workload == "chaos") {
    run = ftbench::run_chaos;
  } else {
    return usage();
  }

  std::printf("ftt_bench %s seed=%llu threads=%d%s%s\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), omp_get_max_threads(),
              a.smoke ? " smoke" : "", a.trace.empty() ? "" : " traced");
  ftbench::Result r;
  try {
    r = run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ftt_bench: %s\n", e.what());
    return 1;
  }
  r.add("fail_frac",
        static_cast<double>(r.failed) /
            static_cast<double>(std::max<std::size_t>(1, r.attempted)),
        "fraction", r.attempted);
  for (const ftbench::Metric& m : r.metrics) {
    std::printf("  %-32s %14.6g %-9s n=%zu%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples,
                m.supported ? "" : "  (too few samples beyond)");
  }
  std::printf("  attempted %zu, failed %zu: %s\n", r.attempted, r.failed,
              r.correct() ? "all checks passed" : "CHECKS FAILED");
  ftbench::print_result_json(a.workload, r);
  return r.correct() ? 0 : 1;
}
