#pragma once
// Aggregated fault-tolerance outcome of one protected attention call.

#include <cstddef>

#include "abft/report.hpp"

namespace ftt::attention {

struct FtReport {
  abft::Report gemm1;         ///< QK^T ABFT verification
  abft::Report exp_check;     ///< EXP / subtract-max checksum verification
  abft::Report gemm2;         ///< PV (+rescale +normalize) verification
  std::size_t dmr_recomputes = 0;    ///< extra softmax replicas (DMR mode)
  std::size_t range_corrections = 0; ///< SNVR rowsum replacements (Case 3)
  std::size_t faults_injected = 0;   ///< flips the injector actually placed

  [[nodiscard]] std::size_t total_detected() const noexcept {
    return gemm1.flagged + exp_check.flagged + gemm2.flagged +
           range_corrections + dmr_recomputes;
  }
  [[nodiscard]] std::size_t total_corrected() const noexcept {
    return gemm1.corrected + gemm1.checksum_repairs + exp_check.corrected +
           exp_check.recomputed + exp_check.checksum_repairs +
           gemm2.corrected + gemm2.checksum_repairs + range_corrections;
  }
  /// Detections that no correction accounted for (saturating: a correction
  /// never counts against a different slice's detection below zero).  A
  /// read-out for reports and demos; tick retry does not read it — its
  /// trigger is any detection, total_detected() + the linear flags, because
  /// a checksum correction is approximate.
  [[nodiscard]] std::size_t uncorrected() const noexcept {
    const std::size_t d = total_detected();
    const std::size_t c = total_corrected();
    return d > c ? d - c : 0;
  }

  /// Merge the outcome of another slice: batched decode aggregates per-
  /// (request, head) reports without dropping any fault statistics.
  FtReport& operator+=(const FtReport& o) noexcept {
    gemm1 += o.gemm1;
    exp_check += o.exp_check;
    gemm2 += o.gemm2;
    dmr_recomputes += o.dmr_recomputes;
    range_corrections += o.range_corrections;
    faults_injected += o.faults_injected;
    return *this;
  }
  friend FtReport operator+(FtReport a, const FtReport& b) noexcept {
    return a += b;
  }
};

}  // namespace ftt::attention
