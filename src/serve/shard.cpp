#include "serve/shard.hpp"

#include <algorithm>
#include <stdexcept>

#include "numeric/fp16.hpp"

namespace ftt::serve {

using attention::FtReport;
using tensor::MatrixF;
using tensor::MatrixH;
using transformer::Block;
using transformer::Linear;
using transformer::LinearProtect;

namespace {

constexpr std::size_t kTile = 64;  ///< the strided-ABFT checksum tile

void check_per_item(std::span<const ShardTickEntry> entries, std::size_t heads,
                    std::size_t per_item_size) {
  if (per_item_size != entries.size() * heads) {
    throw std::invalid_argument(
        "run_tick: per_item must hold entries * heads reports");
  }
  for (const ShardTickEntry& e : entries) {
    if (e.cache == nullptr || e.rows == 0) {
      throw std::invalid_argument("run_tick: entry without cache or rows");
    }
  }
}

}  // namespace

TickResult run_tick_solo(const transformer::Model& model,
                         std::span<const ShardTickEntry> entries,
                         MatrixF& X, MatrixF& y,
                         std::span<FtReport> per_item,
                         const core::EftaOptions& efta, bool protect_linear,
                         fault::FaultInjector* inj) {
  const auto& cfg = model.config();
  const std::size_t T = X.rows();
  const std::size_t hidden = cfg.hidden;
  const std::size_t heads = cfg.heads;
  const std::size_t dim = cfg.head_dim();
  check_per_item(entries, heads, per_item.size());
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
    for (const ShardTickEntry& e : entries) {
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

// ---------------------------------------------------------------------------
// ShardWorker
// ---------------------------------------------------------------------------

ShardWorker::ShardWorker(const transformer::Model& model, std::size_t shard,
                         std::size_t nshards)
    : shard_(shard), nshards_(nshards) {
  const auto& cfg = model.config();
  const std::size_t dim = cfg.head_dim();
  spec_ = core::ShardSpec::for_shard(shard, nshards, cfg.heads);
  qkv_col0_ = spec_.begin_head * dim;
  qkv_cols_ = spec_.heads() * dim;
  const auto [ht0, ht1] = core::shard_range(shard, nshards, cfg.hidden / kTile);
  hid_col0_ = ht0 * kTile;
  const std::size_t hid_cols = (ht1 - ht0) * kTile;
  const auto [it0, it1] =
      core::shard_range(shard, nshards, cfg.ffn_inner / kTile);
  inner_col0_ = it0 * kTile;
  const std::size_t inner_cols = (it1 - it0) * kTile;

  layers_.reserve(model.blocks().size());
  for (const Block& blk : model.blocks()) {
    LayerSlices s{blk.wq().slice_out(qkv_col0_, qkv_cols_),
                  blk.wk().slice_out(qkv_col0_, qkv_cols_),
                  blk.wv().slice_out(qkv_col0_, qkv_cols_),
                  blk.wo().slice_out(hid_col0_, hid_cols),
                  blk.ffn().w1().slice_out(inner_col0_, inner_cols),
                  blk.ffn().w2().slice_out(hid_col0_, hid_cols),
                  blk.ffn().act()};
    layers_.push_back(std::move(s));
  }
}

void ShardWorker::begin_tick(std::size_t total_rows) {
  const auto [r0, r1] = core::shard_range(shard_, nshards_, total_rows);
  row0_ = r0;
  row1_ = r1;
  linear_ = abft::Report{};
  clipped_ = 0;
}

void ShardWorker::copy_ln_rows(const MatrixF& src, MatrixF& dst,
                               const transformer::LayerNorm& ln) const {
  if (row1_ <= row0_) return;
  std::copy_n(&src(row0_, 0), (row1_ - row0_) * src.cols(), &dst(row0_, 0));
  ln.forward(dst, row0_, row1_ - row0_);
}

void ShardWorker::narrow_rows(const MatrixF& src, MatrixH& dst) const {
  if (row1_ <= row0_) return;
  numeric::floats_to_halves(&src(row0_, 0), &dst(row0_, 0),
                            (row1_ - row0_) * src.cols());
}

void ShardWorker::project_cols(const Linear& slice, std::size_t col0,
                               const MatrixF& x, MatrixF& full,
                               LinearProtect mode) {
  const std::size_t cols = slice.out_features();
  if (cols == 0) return;
  linear_ += slice.forward(x, scratch_, mode, nullptr);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    std::copy_n(&scratch_(r, 0), cols, &full(r, col0));
  }
}

void ShardWorker::project_qkv(std::size_t layer, const MatrixF& h,
                              MatrixF& qm, MatrixF& km, MatrixF& vm,
                              LinearProtect mode) {
  const LayerSlices& s = layers_.at(layer);
  project_cols(s.wq, qkv_col0_, h, qm, mode);
  project_cols(s.wk, qkv_col0_, h, km, mode);
  project_cols(s.wv, qkv_col0_, h, vm, mode);
}

void ShardWorker::attend(std::span<const core::DecodeWorkItem> items,
                         std::span<const std::size_t> item_heads,
                         const core::EftaOptions& efta,
                         std::span<FtReport> per_item) {
  // The shard's FtReport contribution lives in its per_item slots (summed
  // by the executor); the returned total is redundant with them.
  (void)core::efta_decode_batch(items, item_heads, spec_, efta, nullptr,
                                per_item);
}

void ShardWorker::project_wo_cols(std::size_t layer, const MatrixF& attn,
                                  MatrixF& proj, LinearProtect mode) {
  project_cols(layers_.at(layer).wo_cols, hid_col0_, attn, proj, mode);
}

void ShardWorker::residual_ln_rows(MatrixF& X, const MatrixF& add,
                                   MatrixF& h2,
                                   const transformer::LayerNorm& ln2) const {
  if (row1_ <= row0_) return;
  const std::size_t n = (row1_ - row0_) * X.cols();
  float* x = &X(row0_, 0);
  const float* a = &add(row0_, 0);
  for (std::size_t i = 0; i < n; ++i) x[i] += a[i];
  std::copy_n(x, n, &h2(row0_, 0));
  ln2.forward(h2, row0_, row1_ - row0_);
}

void ShardWorker::ffn_w1_gelu(std::size_t layer, const MatrixF& h2,
                              MatrixF& mid, LinearProtect mode, bool protect) {
  const LayerSlices& s = layers_.at(layer);
  const std::size_t cols = s.w1.out_features();
  if (cols == 0) return;
  linear_ += s.w1.forward(h2, scratch_, mode, nullptr);
  // Per-slice activation restriction: GELU is elementwise, so restricting
  // each shard's slice equals restricting the full activation matrix.
  transformer::RangeRestrictedGelu act = s.act;
  act.restrict_range = protect;
  clipped_ += act.forward(scratch_, nullptr);
  for (std::size_t r = 0; r < h2.rows(); ++r) {
    std::copy_n(&scratch_(r, 0), cols, &mid(r, inner_col0_));
  }
}

void ShardWorker::ffn_w2(std::size_t layer, const MatrixF& mid,
                         MatrixF& ffn_out, LinearProtect mode) {
  project_cols(layers_.at(layer).w2, hid_col0_, mid, ffn_out, mode);
}

void ShardWorker::residual_rows(MatrixF& X, const MatrixF& add) const {
  if (row1_ <= row0_) return;
  const std::size_t n = (row1_ - row0_) * X.cols();
  float* x = &X(row0_, 0);
  const float* a = &add(row0_, 0);
  for (std::size_t i = 0; i < n; ++i) x[i] += a[i];
}

// ---------------------------------------------------------------------------
// ShardedEngine
// ---------------------------------------------------------------------------

ShardedEngine::ShardedEngine(const transformer::Model& model,
                             std::size_t shards)
    : model_(&model) {
  if (shards == 0) {
    throw std::invalid_argument("ShardedEngine: shards must be >= 1");
  }
  const auto& cfg = model.config();
  // Head-column QKV slices must land on 64-column ABFT tile boundaries for
  // the bit-identity guarantee; hidden and ffn_inner are already multiples
  // of 64 (Linear enforces it on out_features).
  if (cfg.head_dim() % kTile != 0) {
    throw std::invalid_argument(
        "ShardedEngine: head_dim must be a multiple of the 64-column "
        "checksum tile to shard by heads");
  }
  workers_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    workers_.emplace_back(model, s, shards);
  }
  errors_.resize(shards);
  if (shards > 1) {
    start_ = std::make_unique<std::barrier<>>(
        static_cast<std::ptrdiff_t>(shards));
    done_ = std::make_unique<std::barrier<>>(
        static_cast<std::ptrdiff_t>(shards));
    threads_.reserve(shards - 1);
    for (std::size_t s = 1; s < shards; ++s) {
      threads_.emplace_back([this, s] { worker_loop(s); });
    }
  }
}

ShardedEngine::~ShardedEngine() {
  if (!threads_.empty()) {
    stop_ = true;
    start_->arrive_and_wait();  // release workers into the stop check
    for (std::thread& t : threads_) t.join();
  }
}

void ShardedEngine::worker_loop(std::size_t shard) {
  while (true) {
    start_->arrive_and_wait();
    if (stop_) return;
    try {
      (*fn_)(shard);
    } catch (...) {
      errors_[shard] = std::current_exception();
    }
    done_->arrive_and_wait();
  }
}

void ShardedEngine::run_phase(const std::function<void(std::size_t)>& fn) {
  if (threads_.empty()) {
    fn(0);
    return;
  }
  fn_ = &fn;
  start_->arrive_and_wait();
  try {
    fn(0);
  } catch (...) {
    errors_[0] = std::current_exception();
  }
  done_->arrive_and_wait();
  fn_ = nullptr;
  for (std::exception_ptr& e : errors_) {
    if (e) {
      const std::exception_ptr first = e;
      for (std::exception_ptr& x : errors_) x = nullptr;
      std::rethrow_exception(first);
    }
  }
}

TickResult ShardedEngine::run_tick(std::span<const ShardTickEntry> entries,
                                   MatrixF& X, MatrixF& y,
                                   std::span<FtReport> per_item,
                                   const core::EftaOptions& efta,
                                   bool protect_linear) {
  const auto& cfg = model_->config();
  const std::size_t T = X.rows();
  const std::size_t hidden = cfg.hidden;
  const std::size_t heads = cfg.heads;
  const std::size_t dim = cfg.head_dim();
  check_per_item(entries, heads, per_item.size());
  const auto mode =
      protect_linear ? LinearProtect::kStridedAbft : LinearProtect::kNone;

  for (ShardWorker& w : workers_) w.begin_tick(T);

  // Tick-wide shared scratch: every phase writes a disjoint row or column
  // range per shard, so the workers never touch the same element between
  // two barriers.
  MatrixF h(T, hidden), qm(T, hidden), km(T, hidden), vm(T, hidden);
  MatrixF attn(T, hidden), proj(T, hidden), ffn_out(T, hidden);
  MatrixF mid(T, cfg.ffn_inner);
  MatrixH qh(T, hidden), kh(T, hidden), vh(T, hidden);
  std::vector<core::DecodeWorkItem> items;
  std::vector<std::size_t> item_heads;
  std::vector<FtReport> layer_item(per_item.size());

  TickResult res;
  const auto& blocks = model_->blocks();
  for (std::size_t layer = 0; layer < blocks.size(); ++layer) {
    const Block& blk = blocks[layer];
    // --- attention sub-block ---
    run_phase([&](std::size_t s) {
      workers_[s].copy_ln_rows(X, h, blk.ln1());
    });
    run_phase([&](std::size_t s) {
      workers_[s].project_qkv(layer, h, qm, km, vm, mode);
    });
    run_phase([&](std::size_t s) {
      workers_[s].narrow_rows(qm, qh);
      workers_[s].narrow_rows(km, kh);
      workers_[s].narrow_rows(vm, vh);
    });
    // Coordinator: cache appends stay serial in entry order — the paged
    // pool is global state and the append order is an engine invariant.
    items.clear();
    item_heads.clear();
    for (const ShardTickEntry& e : entries) {
      e.cache->append_chunk(layer, {&kh(e.row0, 0), e.rows * hidden},
                            {&vh(e.row0, 0), e.rows * hidden}, e.rows,
                            e.defer_seal);
      for (std::size_t hd = 0; hd < heads; ++hd) {
        items.push_back(core::DecodeWorkItem{
            e.cache->slice(layer, hd), &qh(e.row0, hd * dim),
            &attn(e.row0, hd * dim), e.rows, hidden, hidden});
        item_heads.push_back(hd);
      }
    }
    std::fill(layer_item.begin(), layer_item.end(), FtReport{});
    run_phase([&](std::size_t s) {
      workers_[s].attend(items, item_heads, efta, layer_item);
    });
    for (std::size_t i = 0; i < layer_item.size(); ++i) {
      per_item[i] += layer_item[i];
    }
    run_phase([&](std::size_t s) {
      workers_[s].project_wo_cols(layer, attn, proj, mode);
    });
    // --- feed-forward sub-block (h doubles as the ln2 output) ---
    run_phase([&](std::size_t s) {
      workers_[s].residual_ln_rows(X, proj, h, blk.ln2());
    });
    run_phase([&](std::size_t s) {
      workers_[s].ffn_w1_gelu(layer, h, mid, mode, protect_linear);
    });
    run_phase([&](std::size_t s) {
      workers_[s].ffn_w2(layer, mid, ffn_out, mode);
    });
    run_phase([&](std::size_t s) {
      workers_[s].residual_rows(X, ffn_out);
    });
  }

  y = MatrixF(T, hidden);
  run_phase([&](std::size_t s) {
    workers_[s].copy_ln_rows(X, y, model_->final_ln());
  });

  // Merge per-shard outcomes in fixed shard order.
  std::vector<abft::Report> lin;
  lin.reserve(workers_.size());
  for (const ShardWorker& w : workers_) {
    lin.push_back(w.linear_report());
    res.activations_clipped += w.activations_clipped();
  }
  res.linear = DeterministicCombiner::merge(lin);
  for (const FtReport& r : per_item) res.attention += r;
  return res;
}

}  // namespace ftt::serve
