#include "serve/tick.hpp"

#include <stdexcept>

namespace ftt::serve {

using attention::FtReport;
using tensor::MatrixF;
using tensor::MatrixH;
using transformer::Block;
using transformer::LinearProtect;

namespace {

void check_per_item(std::span<const TickRows> entries, std::size_t heads,
                    std::size_t per_item_size, std::size_t x_rows) {
  if (per_item_size != entries.size() * heads) {
    throw std::invalid_argument(
        "run_tick: per_item must hold entries * heads reports");
  }
  for (const TickRows& e : entries) {
    if (e.cache == nullptr || e.rows == 0) {
      throw std::invalid_argument("run_tick: entry without cache or rows");
    }
    // Written so that row0 + rows cannot wrap.
    if (e.row0 > x_rows || e.rows > x_rows - e.row0) {
      throw std::invalid_argument("run_tick: entry rows past the end of X");
    }
  }
}

}  // namespace

TickResult run_tick_solo(const transformer::Model& model,
                         std::span<const TickRows> entries,
                         MatrixF& X, MatrixF& y,
                         std::span<FtReport> per_item,
                         const core::EftaOptions& efta, bool protect_linear,
                         fault::FaultInjector* inj) {
  const auto& cfg = model.config();
  const std::size_t T = X.rows();
  const std::size_t hidden = cfg.hidden;
  const std::size_t heads = cfg.heads;
  const std::size_t dim = cfg.head_dim();
  check_per_item(entries, heads, per_item.size(), T);
  const auto mode =
      protect_linear ? LinearProtect::kStridedAbft : LinearProtect::kNone;

  TickResult res;
  // This mirrors Block::forward's sub-block pipeline (ln1 -> QKV ->
  // attention -> wo residual; ln2 -> FFN residual) with the attention
  // swapped for the cache-backed block kernel: every entry — prefill
  // chunk, decode row or speculative block — becomes one q_len-row
  // DecodeWorkItem per head reading/writing the stacked matrices with a
  // row stride of `hidden`, all through a single efta_decode_batch call.
  std::vector<FtReport> layer_item;
  std::vector<core::DecodeWorkItem> items;
  const auto& blocks = model.blocks();
  for (std::size_t layer = 0; layer < blocks.size(); ++layer) {
    const Block& blk = blocks[layer];
    // --- attention sub-block: project, append K/V, batched attention ---
    MatrixF h = X;
    blk.ln1().forward(h);
    MatrixF qm(T, hidden), km(T, hidden), vm(T, hidden);
    res.linear += blk.wq().forward(h, qm, mode, inj);
    res.linear += blk.wk().forward(h, km, mode, inj);
    res.linear += blk.wv().forward(h, vm, mode, inj);

    // Round to the fp16 tensor-core operands once; rows are head-major, so
    // a head's dim-wide segment is contiguous for the cache append and
    // hidden-strided across rows for the block work items.
    MatrixH qh(T, hidden), kh(T, hidden), vh(T, hidden);
    tensor::narrow(qm, {qh.data(), qh.size()});
    tensor::narrow(km, {kh.data(), kh.size()});
    tensor::narrow(vm, {vh.data(), vh.size()});

    MatrixF attn(T, hidden);
    items.clear();
    for (const TickRows& e : entries) {
      e.cache->append_chunk(layer, {&kh(e.row0, 0), e.rows * hidden},
                            {&vh(e.row0, 0), e.rows * hidden}, e.rows,
                            e.defer_seal);
      for (std::size_t hd = 0; hd < heads; ++hd) {
        items.push_back(core::DecodeWorkItem{
            e.cache->slice(layer, hd), &qh(e.row0, hd * dim),
            &attn(e.row0, hd * dim), e.rows, hidden, hidden});
      }
    }
    layer_item.assign(items.size(), FtReport{});
    res.attention += core::efta_decode_batch(items, efta, inj, layer_item);
    for (std::size_t i = 0; i < layer_item.size(); ++i) {
      per_item[i] += layer_item[i];
    }

    MatrixF proj(T, hidden);
    res.linear += blk.wo().forward(attn, proj, mode, inj);
    for (std::size_t i = 0; i < X.size(); ++i) {
      X.data()[i] += proj.data()[i];
    }

    // --- feed-forward sub-block ---
    MatrixF h2 = X;
    blk.ln2().forward(h2);
    MatrixF ffn_out(T, hidden);
    const auto fr = blk.ffn().forward(h2, ffn_out, protect_linear, inj);
    res.linear += fr.abft;
    res.activations_clipped += fr.activations_clipped;
    for (std::size_t i = 0; i < X.size(); ++i) {
      X.data()[i] += ffn_out.data()[i];
    }
  }

  y = X;
  model.final_ln().forward(y);
  return res;
}

}  // namespace ftt::serve
