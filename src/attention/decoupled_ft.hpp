#pragma once
// Operation-level (decoupled) fault tolerant attention — the paper's baseline
// (§3.1, Figs. 2-3).
//
// Three sequentially launched kernels, each round-tripping its result through
// HBM:
//   Kernel I  : S = QK^T with classic element-checksum ABFT per block;
//   Kernel II : P = row-softmax(S) protected by DMR (Eqs. 10-11);
//   Kernel III: O = PV with element-checksum ABFT.
// The fp32 S and P intermediates give the pipeline its O(n^2) memory
// footprint and the OOM at seq 16k the paper reports (Fig. 9, bottom).

#include "attention/attention.hpp"
#include "attention/ft_report.hpp"
#include "fault/fault.hpp"

namespace ftt::attention {

struct DecoupledFtOptions {
  float abft_rel_threshold = 0.02f;  ///< calibrated via the Fig. 12 sweep
  float dmr_eps = 1e-3f;             ///< Eq. (10)/(11) agreement tolerance
};

/// Run the 3-kernel protected pipeline.  Faults are injected serially when
/// `inj` is armed (the injector is deterministic and not thread-safe);
/// otherwise slices run under OpenMP.  Mismatched Q/K/V/O shapes throw
/// std::invalid_argument.
FtReport decoupled_ft_attention(const tensor::Tensor4H& Q,
                                const tensor::Tensor4H& K,
                                const tensor::Tensor4H& V, tensor::Tensor4F& O,
                                const DecoupledFtOptions& opt = {},
                                fault::FaultInjector* inj = nullptr);

/// Full modeled cost (baseline pipeline + element-ABFT + DMR protection),
/// per Fig. 3's phase decomposition.
sim::CostBreakdown decoupled_ft_costs(const AttnShape& s);

}  // namespace ftt::attention
