#pragma once
// Softmax primitives and their operation-level protections.
//
// The decoupled baseline protects the row softmax with dual modular
// redundancy (DMR, Eqs. 10-11): the softmax is recomputed until two
// consecutive results agree within a tolerance, with the rowsum-of-P == 1
// identity as an extra invariant.  EFTA replaces this with selective neuron
// value restriction (SNVR, §3.4), whose range bounds live in `snvr.hpp` and
// whose checksum-reuse verification is part of the fused kernel in core/.

#include "fault/fault.hpp"
#include "sim/cost.hpp"
#include "tensor/tensor.hpp"

namespace ftt::softmax {

/// The serial reduce-max max(...max(max(-inf, x[0]), x[1])..., x[n-1]) with
/// std::max: NaN lanes are skipped, and among equal values the first one
/// wins (so +0 vs -0 ties keep the earlier sign).  The AVX2 path keeps one
/// such chain per lane (vmaxps keeps its accumulator on NaN and on ties)
/// and re-runs the serial chain when the maximum is a zero, the only value
/// whose bits the lane split could change, so both paths return the same
/// bits.  Shared by flash_attention, efta_attention and the decode kernel.
float row_max(const float* x, std::size_t n) noexcept;

/// out[i] = exp(x[i] - m) for i < n: the float subtract, then glibc's expf
/// (>= 2.27, the FMA variant libm picks on an AVX2+FMA CPU) bit for bit on
/// every input, special values and NaN payloads included.  `out` may equal
/// `x`.  AVX2+FMA lanes run the libm op sequence in double; lanes outside
/// expf's polynomial range, and NaN lanes, take the scalar reference.  The
/// one exp behind every softmax: flash, the EFTA kernels, eval_softmax.
void exp_shifted(const float* x, float m, float* out, std::size_t n) noexcept;
/// exp(x - m) for one value (rescale factors, repairs): the same bits.
float exp_shifted(float x, float m) noexcept;
/// The scalar reference both forms equal: expf's algorithm written out with
/// std::fma at libm's contractions.  The path of FTT_SIMD=OFF builds and
/// of CPUs below the AVX2 tier (numeric/simd.hpp).
void exp_shifted_scalar(const float* x, float m, float* out,
                        std::size_t n) noexcept;

/// Numerically stable row softmax of S in place: p_ij = exp(s_ij - max_i) /
/// sum_k exp(s_ik - max_i).  Fault hooks at reduce-max, EXP and reduce-sum.
void row_softmax(tensor::MatrixF& S, fault::FaultInjector* inj = nullptr);

struct DmrResult {
  std::size_t recomputes = 0;  ///< extra full softmax evaluations beyond one
  bool converged = false;
};

/// DMR-protected row softmax: evaluate, re-evaluate, accept when two
/// consecutive evaluations agree elementwise within `eps` *and* each row of
/// the result sums to 1 within `eps` (Eqs. 10-11).  Keeps retrying up to
/// `max_rounds` total evaluations.
DmrResult dmr_row_softmax(tensor::MatrixF& S, float eps,
                          fault::FaultInjector* inj = nullptr,
                          std::size_t max_rounds = 4);

/// Operation counts of one unprotected R x C row softmax.
sim::CostBreakdown softmax_costs(double rows, double cols);

/// Protection overhead of DMR on an R x C softmax: one full replica
/// (the expected SEU-free case) plus the elementwise comparison.
sim::CostBreakdown dmr_overhead_costs(double rows, double cols);

}  // namespace ftt::softmax
