#pragma once
// Attention shapes and the unprotected reference implementations.
//
// All attention tensors are batch x heads x seq x dim, fp16 in / fp32
// accumulate, matching the paper's evaluation setup (FP16 I/O, SM80 MMA).
// batch and heads are embarrassingly parallel; kernels loop (and OpenMP-
// parallelize) over slices.

#include <cstddef>

#include "sim/cost.hpp"
#include "tensor/tensor.hpp"

namespace ftt::attention {

struct AttnShape {
  std::size_t batch = 1;
  std::size_t heads = 1;
  std::size_t seq = 64;
  std::size_t dim = 64;

  [[nodiscard]] std::size_t slices() const noexcept { return batch * heads; }
  [[nodiscard]] std::size_t tokens() const noexcept { return batch * seq; }
  [[nodiscard]] std::size_t hidden() const noexcept { return heads * dim; }
};

/// The paper's sweep convention: total token count fixed at 16K, batch
/// adjusted per sequence length (§4.1).
inline AttnShape paper_shape(std::size_t seq, std::size_t heads,
                             std::size_t dim,
                             std::size_t total_tokens = 16384) {
  AttnShape s;
  s.batch = total_tokens / seq;
  if (s.batch == 0) s.batch = 1;
  s.heads = heads;
  s.seq = seq;
  s.dim = dim;
  return s;
}

/// Throws std::invalid_argument (prefixed with `fn`) unless K, V and O have
/// Q's batch x heads x seq x dim shape and dim is positive.  Every attention
/// entry point calls it before any parallel region, where a throw would
/// terminate, and before any hook.
void check_shapes(const tensor::Tensor4H& Q, const tensor::Tensor4H& K,
                  const tensor::Tensor4H& V, const tensor::Tensor4F& O,
                  const char* fn);

/// Reference O(n^2) attention: materializes S = QK^T / sqrt(d) per slice,
/// row softmax, O = PV.  Ground truth for every other kernel.  `causal`
/// applies the decoder mask (position r attends to positions <= r).
void standard_attention(const tensor::Tensor4H& Q, const tensor::Tensor4H& K,
                        const tensor::Tensor4H& V, tensor::Tensor4F& O,
                        bool causal = false);

/// Flash attention (Eqs. 1-7): streaming block softmax with running row-max
/// and row-sum; O(block) on-chip state, never materializes S.  This is the
/// unprotected baseline EFTA's overhead is measured against, and it streams
/// the same operand widths as the protected kernel: fp16 K^T and V through
/// numeric::gemm_f32_nnh.  Causal masking skips the strictly-upper block
/// column range and masks the diagonal block.  block == 0 throws
/// std::invalid_argument, as do mismatched shapes and a zero dim.
void flash_attention(const tensor::Tensor4H& Q, const tensor::Tensor4H& K,
                     const tensor::Tensor4H& V, tensor::Tensor4F& O,
                     std::size_t block = 64, bool causal = false);

/// Operation counts of unprotected flash attention (the "E2E Attention" bar
/// of Figs. 10/11/13): one fused kernel, O(n) HBM traffic per row-block pass.
sim::CostBreakdown flash_attention_costs(const AttnShape& s,
                                         std::size_t block = 64);

/// Operation counts of the unprotected *decoupled* attention (3 kernels,
/// S and P round-tripped through HBM in fp32).
sim::CostBreakdown decoupled_attention_costs(const AttnShape& s);

/// HBM working set of the decoupled pipeline: Q/K/V/O plus the fp32 S and P
/// intermediates that trigger the paper's OOM at seq 16k (Fig. 9 bottom).
double decoupled_workspace_bytes(const AttnShape& s);

}  // namespace ftt::attention
