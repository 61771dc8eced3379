#pragma once
// Selective neuron value restriction (SNVR) range bounds, paper §3.4 Case 3.
//
// The softmax denominator ℓ (the running rowsum of exp(s - m)) is protected
// not by a checksum but by its theoretical range:
//
//     Σ_k exp(m_ik − m_ij)  ≤  ℓ_ij  ≤  seq_len
//
// where m_ik is the block row-max of iteration k and m_ij the global row-max.
// The lower bound holds because every block contributes at least its own
// max term; the upper bound because every exp(s − m_global) ≤ 1.  A violated
// range is corrected by *replacing* ℓ with the lower-bound approximation —
// the paper's recompute-free correction, valid because attention mass
// concentrates at the per-block maxima.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

namespace ftt::softmax {

/// Σ_k exp(block_max_k − global_max): the SNVR lower bound / approximate
/// rowsum for one row, given the per-iteration block maxima.
double snvr_lower_bound(std::span<const float> block_maxes, float global_max);

struct SnvrRangeResult {
  bool violated = false;
  float corrected_value = 0.0f;
};

/// Check one rowsum against the SNVR range and produce the replacement value
/// if it is out of range.  `slack` widens the lower bound multiplicatively to
/// absorb fp16/fp32 rounding (an SEU perturbation is orders of magnitude
/// larger than rounding noise).
SnvrRangeResult snvr_check_rowsum(float rowsum,
                                  std::span<const float> block_maxes,
                                  float global_max, std::size_t seq_len,
                                  float slack = 1e-3f);

/// Σ_l ln(p[l·stride]) over `n` lanes — the log side of the Case-2 EXP
/// product check (§3.4), evaluated in the paper's product form: the lanes'
/// significands multiply in double and their binary exponents add, so a
/// residue class costs one multiply per lane and a single log instead of one
/// log per lane.  A subnormal lane (no implicit leading bit) adds its own
/// log instead.  Returns nullopt when a lane is not a positive finite value
/// — an EXP output never is, so the caller's repair path takes over.  Agrees
/// with the direct sum of logs within 1e-12, far below any check threshold.
std::optional<double> log_product(const float* p, std::size_t stride,
                                  std::size_t n) noexcept;

/// The EXP product check's residue-class screen: one call covers all `s`
/// classes of a row, where class jc holds lanes p[jc + l·s] for l < n.  The
/// lanes of one l are contiguous, so classes run in vector lanes: each
/// forms log_product's significand product and exponent sum with the same
/// double multiplies, then takes its log in lanes.  Bit jc of the result is
/// set only when |log_product(p + jc, s, n) − rhs[jc]| ≤ thr is certain:
/// the lane residual must clear the threshold by the derived bound on the
/// lane log's distance from std::log (docs/KERNELS.md, "Residue-class
/// screens").  A clear bit decides nothing; the caller runs its scalar body
/// for that class.  Returns 0 — every class to the scalar body — when the
/// row holds a zero, subnormal, negative or non-finite lane, when s is not
/// a multiple of 4 or above 64, when n ≥ 2^22, or below the AVX2 tier of
/// numeric::simd_level().
std::uint64_t log_product_screen(const float* p, std::size_t s,
                                 std::size_t n, const double* rhs,
                                 double thr) noexcept;

}  // namespace ftt::softmax
