#include "sqlfacil/nn/lstm_fused.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "sqlfacil/nn/arena.h"
#include "sqlfacil/nn/infer.h"
#include "sqlfacil/nn/simd.h"
#include "sqlfacil/nn/simd_int8.h"
#include "sqlfacil/util/logging.h"

namespace sqlfacil::nn {

namespace {

// Node payload layout (see autograd.h Variable):
//   parents: [table, Wx_0, b_0, Wh_0, Wx_1, b_1, Wh_1, ...]
//   iaux:    [lens(B), step_ids(T*B)]
//   iarg0:   max_len (T)
//   paux:    {gates slab (T*L*B*4H), h slab (T*L*B*H), c slab (T*L*B*H)}
// All remaining dims derive from shapes: L from the parent count, B/H from
// value, embed dim from the table.

size_t GateOffset(int t, int l, int num_layers, int batch, int hidden) {
  return (static_cast<size_t>(t) * num_layers + l) *
         static_cast<size_t>(batch) * 4 * hidden;
}

size_t StateOffset(int t, int l, int num_layers, int batch, int hidden) {
  return (static_cast<size_t>(t) * num_layers + l) *
         static_cast<size_t>(batch) * hidden;
}

}  // namespace

Var LstmSequence(const Var& table, const LstmStack& stack,
                 const std::vector<int>& step_ids,
                 const std::vector<int>& lens, int max_len) {
  const int batch = static_cast<int>(lens.size());
  const int d = table->value.cols();
  const int layers = static_cast<int>(stack.layers.size());
  const int hidden = stack.layers[0].hidden_dim;
  SQLFACIL_CHECK(max_len >= 1 && batch >= 1);
  SQLFACIL_CHECK(static_cast<int>(step_ids.size()) == max_len * batch);

  Arena& arena = ThreadLocalTrainArena();
  const size_t gate_floats = static_cast<size_t>(batch) * 4 * hidden;
  const size_t state_floats = static_cast<size_t>(batch) * hidden;
  float* gates = arena.Alloc(static_cast<size_t>(max_len) * layers *
                             gate_floats);
  float* h_slab = arena.Alloc(static_cast<size_t>(max_len) * layers *
                              state_floats);
  float* c_slab = arena.Alloc(static_cast<size_t>(max_len) * layers *
                              state_floats);
  float* x = arena.Alloc(static_cast<size_t>(batch) * d);
  const float* zeros = arena.AllocZero(state_floats);

  for (int t = 0; t < max_len; ++t) {
    infer::GatherRows(table->value.data(), d, step_ids.data() +
                          static_cast<size_t>(t) * batch,
                      batch, x);
    const float* input = x;
    int input_dim = d;
    for (int l = 0; l < layers; ++l) {
      const auto& layer = stack.layers[l];
      // Gate pre-activations land directly in the saved slab; activations
      // run in place so the backward can reread them.
      float* gx = gates + GateOffset(t, l, layers, batch, hidden);
      float* h_out = h_slab + StateOffset(t, l, layers, batch, hidden);
      float* c_out = c_slab + StateOffset(t, l, layers, batch, hidden);
      const float* h_in =
          t > 0 ? h_slab + StateOffset(t - 1, l, layers, batch, hidden)
                : zeros;
      const float* c_in =
          t > 0 ? c_slab + StateOffset(t - 1, l, layers, batch, hidden)
                : zeros;
      simd::LstmGates(input, layer.input_map.weight->value.data(),
                      layer.input_map.bias->value.data(), h_in,
                      layer.hidden_map.weight->value.data(), gx, 0, batch,
                      input_dim, hidden, 4 * hidden);
      for (int b = 0; b < batch; ++b) {
        float* ho = h_out + static_cast<size_t>(b) * hidden;
        float* co = c_out + static_cast<size_t>(b) * hidden;
        const float* hi = h_in + static_cast<size_t>(b) * hidden;
        const float* ci = c_in + static_cast<size_t>(b) * hidden;
        if (t >= lens[b]) {
          // Padded row: state carries over (the graph path's BlendRows).
          std::copy(hi, hi + hidden, ho);
          std::copy(ci, ci + hidden, co);
          continue;
        }
        // Gate order [update, forget, output, candidate] as in SplitGates.
        float* row = gx + static_cast<size_t>(b) * 4 * hidden;
        simd::SigmoidInPlace(row, 3 * static_cast<size_t>(hidden));
        simd::TanhInPlace(row + 3 * hidden, hidden);
        simd::LstmCellForward(row, row + hidden, row + 2 * hidden,
                              row + 3 * hidden, ci, co, ho,
                              static_cast<size_t>(hidden));
      }
      input = h_out;
      input_dim = hidden;
    }
  }

  Var v = detail::AllocNode();
  v->value.ResetShape({batch, hidden});
  std::memcpy(v->value.data(),
              h_slab + StateOffset(max_len - 1, layers - 1, layers, batch,
                                   hidden),
              state_floats * sizeof(float));
  v->iaux.resize(lens.size() + step_ids.size());
  std::copy(lens.begin(), lens.end(), v->iaux.begin());
  std::copy(step_ids.begin(), step_ids.end(),
            v->iaux.begin() + static_cast<std::ptrdiff_t>(lens.size()));
  v->iarg0 = max_len;
  v->paux[0] = gates;
  v->paux[1] = h_slab;
  v->paux[2] = c_slab;
  std::vector<Var> parents;
  parents.reserve(1 + 3 * layers);
  parents.push_back(table);
  for (const auto& layer : stack.layers) {
    parents.push_back(layer.input_map.weight);
    parents.push_back(layer.input_map.bias);
    parents.push_back(layer.hidden_map.weight);
  }
  detail::FinalizeOp(v, Op::kLstmSequence, parents);
  return v;
}

namespace detail {

void LstmSequenceBackward(Variable& node) {
  const int batch = node.value.rows();
  const int hidden = node.value.cols();
  const int layers = static_cast<int>((node.parents.size() - 1) / 3);
  const int max_len = node.iarg0;
  Variable* table = node.parents[0].get();
  const int d = table->value.cols();
  const int* lens = node.iaux.data();
  const int* step_ids = node.iaux.data() + batch;
  const float* gates = node.paux[0];
  const float* h_slab = node.paux[1];
  const float* c_slab = node.paux[2];
  SQLFACIL_CHECK(gates != nullptr && h_slab != nullptr && c_slab != nullptr)
      << "LstmSequence backward ran after its training arena was reset";

  Arena& arena = ThreadLocalTrainArena();
  const size_t gate_floats = static_cast<size_t>(batch) * 4 * hidden;
  const size_t state_floats = static_cast<size_t>(batch) * hidden;
  // Double-buffered dh/dc per layer: grads w.r.t. h/c at the current step,
  // swapped to the t-1 buffers as the walk descends.
  std::vector<float*> dh(layers), dc(layers), dh_prev(layers),
      dc_prev(layers);
  for (int l = 0; l < layers; ++l) {
    dh[l] = arena.AllocZero(state_floats);
    dc[l] = arena.AllocZero(state_floats);
    dh_prev[l] = arena.Alloc(state_floats);
    dc_prev[l] = arena.Alloc(state_floats);
  }
  const float* zero_row = arena.AllocZero(static_cast<size_t>(hidden));
  // Per-layer gate-grad slabs (row r = t * batch + b). Buffering every
  // step's dG lets each weight gradient run as ONE GradB pass over all
  // T*B rows after the time walk, instead of re-reading and re-writing the
  // whole dW slab every timestep — the dominant cost at small per-shard
  // batches. hpad[l] is layer l's hidden-state sequence with one leading
  // zero block, so the same slab serves as h[t-1] rows (dWh of layer l,
  // offset 0) and h[t] rows (dWx of layer l+1, offset state_floats).
  std::vector<float*> dg_all(layers), hpad(layers);
  for (int l = 0; l < layers; ++l) {
    dg_all[l] = arena.Alloc(static_cast<size_t>(max_len) * gate_floats);
    hpad[l] = arena.Alloc((static_cast<size_t>(max_len) + 1) * state_floats);
    std::memset(hpad[l], 0, state_floats * sizeof(float));
    for (int t = 0; t < max_len; ++t) {
      std::memcpy(hpad[l] + (static_cast<size_t>(t) + 1) * state_floats,
                  h_slab + StateOffset(t, l, layers, batch, hidden),
                  state_floats * sizeof(float));
    }
  }

  // Seed the top layer with the node's incoming gradient (the final h).
  std::memcpy(dh[layers - 1], node.grad.data(),
              state_floats * sizeof(float));

  for (int t = max_len - 1; t >= 0; --t) {
    for (int l = layers - 1; l >= 0; --l) {
      Variable* wx = node.parents[1 + 3 * l].get();
      Variable* wh = node.parents[3 + 3 * l].get();
      const float* gate_base =
          gates + GateOffset(t, l, layers, batch, hidden);
      float* dG = dg_all[l] + static_cast<size_t>(t) * gate_floats;
      const float* c_out = c_slab + StateOffset(t, l, layers, batch, hidden);
      const float* c_in =
          t > 0 ? c_slab + StateOffset(t - 1, l, layers, batch, hidden)
                : nullptr;  // zero state
      bool any_active = false;
      for (int b = 0; b < batch; ++b) {
        float* dh_row = dh[l] + static_cast<size_t>(b) * hidden;
        float* dc_row = dc[l] + static_cast<size_t>(b) * hidden;
        if (t >= lens[b]) {
          // Padded row: c is carried straight through, so its grad is too
          // (dh is carried after the GradA pass below). The dG row must be
          // zero: GradB zero-skips on h/x, which is non-zero carried state
          // for padded rows, and the bias/GradA passes consume every row.
          std::memset(dG + static_cast<size_t>(b) * 4 * hidden, 0,
                      static_cast<size_t>(4) * hidden * sizeof(float));
          std::memcpy(dc_prev[l] + static_cast<size_t>(b) * hidden, dc_row,
                      static_cast<size_t>(hidden) * sizeof(float));
          continue;
        }
        any_active = true;
        const float* row = gate_base + static_cast<size_t>(b) * 4 * hidden;
        const float* u = row;
        const float* f = row + hidden;
        const float* o = row + 2 * hidden;
        const float* cand = row + 3 * hidden;
        const float* co = c_out + static_cast<size_t>(b) * hidden;
        const float* ci =
            c_in != nullptr ? c_in + static_cast<size_t>(b) * hidden
                            : zero_row;  // t == 0: zero cell state
        float* dg_row = dG + static_cast<size_t>(b) * 4 * hidden;
        float* dci_row = dc_prev[l] + static_cast<size_t>(b) * hidden;
        // Pre-activation gate grads + dc_{t-1}; tanh recomputed from the
        // saved cell state inside the kernel.
        simd::LstmCellBackward(u, f, o, cand, co, ci, dh_row, dc_row, dg_row,
                               dg_row + hidden, dg_row + 2 * hidden,
                               dg_row + 3 * hidden, dci_row,
                               static_cast<size_t>(hidden));
      }
      if (any_active) {
        // dh_{t-1} = dG @ Wh^T, assign form so dh_prev needs no clear. At
        // t == 0 the pass is skipped and dh_prev is left unwritten for
        // active rows: the walk ends here, so it is never read.
        if (t > 0) {
          simd::MatMulGradARowsTo(dG, wh->value.data(), dh_prev[l], 0,
                                  static_cast<size_t>(batch), hidden,
                                  4 * hidden);
        }
        // Input of layer l is h[t][l-1]: dG @ Wx^T adds into dh[l-1],
        // which is processed next in this same t iteration. Weight/bias
        // grads come from dg_all in the one-pass stage below.
        if (l > 0) {
          simd::MatMulGradARows(dG, wx->value.data(), dh[l - 1], 0,
                                static_cast<size_t>(batch), hidden,
                                4 * hidden);
        }
      }
      // Padded rows carry dh through unchanged; written after the GradA
      // assign above so the carry overwrites that pass's zero-dot rows.
      for (int b = 0; b < batch; ++b) {
        if (t < lens[b]) continue;
        std::memcpy(dh_prev[l] + static_cast<size_t>(b) * hidden,
                    dh[l] + static_cast<size_t>(b) * hidden,
                    static_cast<size_t>(hidden) * sizeof(float));
      }
      std::swap(dh[l], dh_prev[l]);
      std::swap(dc[l], dc_prev[l]);
    }
  }

  // One-pass parameter gradients over the buffered gate grads. Row r of
  // dg_all[l] is (t, b) = (r / batch, r % batch): the i-ascending GradB
  // walk accumulates t ascending, b ascending — a fixed order for every
  // SIMD/thread configuration (it reorders terms relative to the
  // layer-by-layer graph, which walks t descending; both are exact sums of
  // the same per-step products). Padded (t, b) rows hold zero dG and add
  // exact zeros, as they did in the per-step formulation.
  const size_t rows = static_cast<size_t>(max_len) * batch;
  for (int l = 0; l < layers; ++l) {
    Variable* wx = node.parents[1 + 3 * l].get();
    Variable* bias = node.parents[2 + 3 * l].get();
    Variable* wh = node.parents[3 + 3 * l].get();
    if (wh->requires_grad) {
      // dWh += h[t-1]^T @ dG[t] for all t at once: hpad's leading zero
      // block is the t == 0 initial state (zero-skipped by the kernel).
      simd::MatMulGradBRows(hpad[l], dg_all[l], wh->EnsureGrad().data(),
                            static_cast<int>(rows), 0,
                            static_cast<size_t>(hidden), hidden, 4 * hidden);
    }
    if (bias->requires_grad) {
      float* db = bias->EnsureGrad().data();
      for (size_t r = 0; r < rows; ++r) {
        simd::AddAcc(db, dg_all[l] + r * 4 * hidden,
                     static_cast<size_t>(4) * hidden);
      }
    }
    if (wx->requires_grad) {
      if (l > 0) {
        // Input rows of layer l are h[t][l-1]: hpad[l-1] offset by one
        // block aligns row t with dG[t].
        simd::MatMulGradBRows(hpad[l - 1] + state_floats, dg_all[l],
                              wx->EnsureGrad().data(),
                              static_cast<int>(rows), 0,
                              static_cast<size_t>(hidden), hidden,
                              4 * hidden);
      } else {
        // Layer 0: re-gather the whole embedded input (the table is
        // unchanged until the optimizer step) and run one GradB over it.
        float* x_all = arena.Alloc(rows * d);
        for (int t = 0; t < max_len; ++t) {
          infer::GatherRows(table->value.data(), d,
                            step_ids + static_cast<size_t>(t) * batch, batch,
                            x_all + static_cast<size_t>(t) * batch * d);
        }
        simd::MatMulGradBRows(x_all, dg_all[0], wx->EnsureGrad().data(),
                              static_cast<int>(rows), 0,
                              static_cast<size_t>(d), d, 4 * hidden);
      }
    }
  }
  if (table->requires_grad) {
    // dX = dG[0] @ Wx0^T for every (t, b) row, then scatter-add into the
    // table rows in the same fixed r-ascending order (step_ids is laid out
    // t * batch + b, matching dg_all's row order; -1 marks padding).
    Variable* wx0 = node.parents[1].get();
    float* dx_all = arena.Alloc(rows * d);
    simd::MatMulGradARowsTo(dg_all[0], wx0->value.data(), dx_all, 0, rows,
                            d, 4 * hidden);
    Tensor& dT = table->EnsureGrad();
    for (size_t r = 0; r < rows; ++r) {
      const int idx = step_ids[r];
      if (idx < 0) continue;
      simd::AddAcc(dT.data() + static_cast<size_t>(idx) * d,
                   dx_all + r * d, static_cast<size_t>(d));
    }
  }
}

}  // namespace detail

std::vector<float> BuildLstmXTable(const Tensor& embedding,
                                   const LstmLayer& layer0) {
  const int vocab = embedding.shape()[0];
  const int d = embedding.shape()[1];
  const int gates = 4 * layer0.hidden_dim;
  std::vector<float> table(static_cast<size_t>(vocab) * gates);
  infer::MatMul(embedding.data(), layer0.input_map.weight->value.data(),
                table.data(), vocab, d, gates);
  infer::BiasAdd(table.data(), layer0.input_map.bias->value.data(), vocab,
                 gates);
  return table;
}

QuantLstmStack BuildQuantLstmStack(const LstmStack& stack, const Linear& head,
                                   int outputs, float hidden_scale) {
  QuantLstmStack q;
  q.num_layers = static_cast<int>(stack.layers.size());
  q.hidden = stack.layers.empty() ? 0 : stack.layers[0].hidden_dim;
  q.outputs = outputs;
  q.hidden_scale = hidden_scale > 0 ? hidden_scale : 1.0f / 127.0f;
  const int hidden = q.hidden;
  const int gates = 4 * hidden;

  // Layer 0's input transform is the exact fp32 token -> gate table the
  // model owns; only the recurrent weights are quantized.
  q.wh0 = quant::QuantizeWeights(
      stack.layers[0].hidden_map.weight->value.data(), hidden, gates);

  // Layers >= 1: stack [Wx; Wh] row-wise into one (2H x 4H) tensor so the
  // step input is the concatenated [h_below, h_prev] byte row.
  for (int l = 1; l < q.num_layers; ++l) {
    const auto& layer = stack.layers[l];
    std::vector<float> cat(static_cast<size_t>(2 * hidden) * gates);
    std::memcpy(cat.data(), layer.input_map.weight->value.data(),
                static_cast<size_t>(hidden) * gates * sizeof(float));
    std::memcpy(cat.data() + static_cast<size_t>(hidden) * gates,
                layer.hidden_map.weight->value.data(),
                static_cast<size_t>(hidden) * gates * sizeof(float));
    q.wcat.push_back(quant::QuantizeWeights(cat.data(), 2 * hidden, gates));
    const float* b = layer.input_map.bias->value.data();
    q.bias.emplace_back(b, b + gates);
  }

  q.head = quant::QuantizeWeights(head.weight->value.data(), hidden, outputs);
  const float* hb = head.bias->value.data();
  q.head_bias.assign(hb, hb + outputs);
  return q;
}

namespace {

/// A row and the row whose slots it reads from: a split's (new leader,
/// parent) or an end's (follower, leader).
struct RowLink {
  int row;
  int from;
};

/// The prefix-sharing step plan of one bucket (see LstmForward), over rows
/// in ascending length order. state_[b] is the row whose slots hold row b's
/// state: -1 (the zero state) before step 0, then its group's leader. A
/// group's leader is its lowest row, so a row that leads once leads its
/// own prefix until it ends, and the rows sharing its slots are never
/// shorter than it: a follower ends at the same step as its leader, or
/// outlives it and then joins a new group whose leader copies the ended
/// leader's slots. So no slot is overwritten while another row reads it.
class PrefixPlan {
 public:
  /// Starts a bucket: seqs[0..batch) in ascending length order.
  void Reset(const std::vector<int>* const* seqs, int batch) {
    seqs_ = {seqs, static_cast<size_t>(batch)};
    first_ = 0;
    state_.assign(seqs_.size(), -1);
  }

  /// Plans step t; steps run in order from 0.
  void Plan(size_t t) {
    while (seqs_[first_]->size() <= t) ++first_;
    leaders_.clear();
    group_parent_.clear();
    splits_.clear();
    ends_.clear();
    for (size_t b = first_; b < seqs_.size(); ++b) {
      const int row = static_cast<int>(b);
      const int parent = state_[b];
      const int token = (*seqs_[b])[t];
      int leader = row;
      for (size_t g = 0; g < leaders_.size(); ++g) {
        const size_t lead = static_cast<size_t>(leaders_[g]);
        if (group_parent_[g] == parent && (*seqs_[lead])[t] == token) {
          leader = leaders_[g];
          break;
        }
      }
      if (leader == row) {
        leaders_.push_back(row);
        group_parent_.push_back(parent);
        if (parent >= 0 && parent != row) splits_.push_back({row, parent});
      } else if (seqs_[b]->size() == t + 1) {
        ends_.push_back({row, leader});
      }
      state_[b] = leader;
    }
  }

  /// The rows that run step t, ascending.
  const std::vector<int>& leaders() const { return leaders_; }
  /// New leaders, each with the row whose slots hold its state through
  /// t - 1: copied before the step runs.
  const std::vector<RowLink>& splits() const { return splits_; }
  /// Rows whose last token is t behind another row: after the step, each
  /// takes its leader's top-layer h.
  const std::vector<RowLink>& ends() const { return ends_; }

 private:
  std::span<const std::vector<int>* const> seqs_;
  size_t first_ = 0;  // rows below it have ended
  std::vector<int> state_;
  std::vector<int> leaders_;
  std::vector<int> group_parent_;  // leaders_[g]'s state before this step
  std::vector<RowLink> splits_;
  std::vector<RowLink> ends_;
};

}  // namespace

void LstmForward(std::span<const float> x_table, const LstmStack& stack,
                 const Linear& head, const std::vector<int>* const* seqs,
                 int batch, Arena* arena, float* logits, float* max_abs_h) {
  const int layers = static_cast<int>(stack.layers.size());
  const int hidden = stack.layers[0].hidden_dim;
  const int gates = 4 * hidden;
  const int outputs = head.weight->value.cols();
  const size_t max_len = seqs[batch - 1]->size();

  // Per-layer state slots, one row per bucket row: a leader's gates read
  // its h row before the cell overwrites it, and each c is read then
  // written element by element.
  thread_local std::vector<float*> h, c;
  h.resize(layers);
  c.resize(layers);
  const size_t state_floats = static_cast<size_t>(batch) * hidden;
  for (int l = 0; l < layers; ++l) {
    h[l] = arena->AllocZero(state_floats);
    c[l] = arena->AllocZero(state_floats);
  }
  auto slot = [hidden](float* state, int row) {
    return state + static_cast<size_t>(row) * hidden;
  };
  const size_t row_bytes = static_cast<size_t>(hidden) * sizeof(float);
  float* gx = arena->Alloc(static_cast<size_t>(gates));  // one leader's gates

  thread_local PrefixPlan plan;
  plan.Reset(seqs, batch);
  for (size_t t = 0; t < max_len; ++t) {
    plan.Plan(t);
    for (const RowLink& s : plan.splits()) {
      for (int l = 0; l < layers; ++l) {
        std::memcpy(slot(h[l], s.row), slot(h[l], s.from), row_bytes);
        std::memcpy(slot(c[l], s.row), slot(c[l], s.from), row_bytes);
      }
    }
    for (int l = 0; l < layers; ++l) {
      const auto& layer = stack.layers[l];
      const float* wh = layer.hidden_map.weight->value.data();
      for (const int b : plan.leaders()) {
        float* h_row = slot(h[l], b);
        float* c_row = slot(c[l], b);
        if (l == 0) {
          // (emb[token] @ Wx0 + bias0) + h @ Wh0: LstmGates' sum in its
          // order, with the first two terms read from the table.
          const auto x_row = x_table.subspan(
              static_cast<size_t>((*seqs[b])[t]) * gates, gates);
          std::copy(x_row.begin(), x_row.end(), gx);
          simd::MatMulRows(h_row, wh, gx, 0, 1, hidden, gates);
        } else {
          simd::LstmGates(slot(h[l - 1], b),
                          layer.input_map.weight->value.data(),
                          layer.input_map.bias->value.data(), h_row, wh, gx,
                          0, 1, hidden, hidden, gates);
        }
        // Gate order [update, forget, output, candidate], matching
        // SplitGates.
        simd::SigmoidInPlace(gx, 3 * static_cast<size_t>(hidden));
        simd::TanhInPlace(gx + 3 * hidden, hidden);
        simd::LstmCellForward(gx, gx + hidden, gx + 2 * hidden,
                              gx + 3 * hidden, c_row, c_row, h_row,
                              static_cast<size_t>(hidden));
        if (max_abs_h != nullptr) {
          for (int j = 0; j < hidden; ++j) {
            const float a = std::fabs(h_row[j]);
            if (a > *max_abs_h) *max_abs_h = a;
          }
        }
      }
    }
    for (const RowLink& e : plan.ends()) {
      std::memcpy(slot(h[layers - 1], e.row), slot(h[layers - 1], e.from),
                  row_bytes);
    }
  }

  infer::MatMul(h[layers - 1], head.weight->value.data(), logits, batch,
                hidden, outputs);
  infer::BiasAdd(logits, head.bias->value.data(), batch, outputs);
}

void LstmInt8Forward(const QuantLstmStack& q, std::span<const float> x_table,
                     const std::vector<int>* const* seqs, int batch,
                     Arena* arena, float* logits) {
  const int hidden = q.hidden;
  const int gates = 4 * hidden;
  const int layers = q.num_layers;
  const float inv_hidden_scale = 1.0f / q.hidden_scale;
  const size_t max_len = seqs[batch - 1]->size();

  auto alloc_bytes = [&](size_t bytes) {
    return reinterpret_cast<uint8_t*>(arena->Alloc((bytes + 3) / 4));
  };

  // Per-layer state slots, one row per bucket row: the fp32 cell and the
  // u8 hidden bytes. Initial h = 0 quantizes to the zero point 128 exactly,
  // so the byte slabs start at 128 everywhere (including the quad-dot tail
  // pad).
  const int hq_stride = 4 * q.wh0.k4;          // layer-0 GEMV row bytes
  const int cat_stride = q.wcat.empty() ? 2 * hidden : 4 * q.wcat[0].k4;
  thread_local std::vector<float*> c_state;
  thread_local std::vector<uint8_t*> h_q;
  c_state.assign(layers, nullptr);
  h_q.assign(layers, nullptr);
  for (int l = 0; l < layers; ++l) {
    c_state[l] = arena->AllocZero(static_cast<size_t>(batch) * hidden);
    h_q[l] = alloc_bytes(static_cast<size_t>(batch) * hq_stride);
    std::memset(h_q[l], quant::kActZeroPoint,
                static_cast<size_t>(batch) * hq_stride);
  }
  auto h_slot = [&](int l, int row) {
    return h_q[l] + static_cast<size_t>(row) * hq_stride;
  };
  auto c_slot = [&](int l, int row) {
    return c_state[l] + static_cast<size_t>(row) * hidden;
  };
  // One leader's scratch: GEMV accumulators, gates, fp32 h, and the
  // [h_below, h_prev] bytes of layers >= 1.
  int32_t* acc = reinterpret_cast<int32_t*>(
      arena->Alloc(static_cast<size_t>(q.wh0.n_pad)));
  float* gx = arena->Alloc(static_cast<size_t>(gates));
  float* h_out = arena->Alloc(static_cast<size_t>(hidden));
  uint8_t* cat_q = alloc_bytes(static_cast<size_t>(cat_stride));
  std::memset(cat_q, quant::kActZeroPoint, static_cast<size_t>(cat_stride));

  thread_local PrefixPlan plan;
  plan.Reset(seqs, batch);
  for (size_t t = 0; t < max_len; ++t) {
    plan.Plan(t);
    for (const RowLink& s : plan.splits()) {
      for (int l = 0; l < layers; ++l) {
        std::memcpy(c_slot(l, s.row), c_slot(l, s.from),
                    static_cast<size_t>(hidden) * sizeof(float));
        std::memcpy(h_slot(l, s.row), h_slot(l, s.from),
                    static_cast<size_t>(hq_stride));
      }
    }
    for (int l = 0; l < layers; ++l) {
      const quant::QuantizedTensor& w = l == 0 ? q.wh0 : q.wcat[l - 1];
      for (const int b : plan.leaders()) {
        const uint8_t* a;
        const float* base;
        if (l == 0) {
          // The exact token -> gate row is the dequantization's base.
          a = h_slot(0, b);
          base = x_table
                     .subspan(static_cast<size_t>((*seqs[b])[t]) * gates,
                              gates)
                     .data();
        } else {
          // [h_below(t), h_prev(t-1)]: the layer below updated its slot
          // this step, this layer's slot still holds t - 1.
          std::memcpy(cat_q, h_slot(l - 1, b), static_cast<size_t>(hidden));
          std::memcpy(cat_q + hidden, h_slot(l, b),
                      static_cast<size_t>(hidden));
          a = cat_q;
          base = q.bias[l - 1].data();
        }
        simd::Int8GemmRowsNoSat(a, 0, w.packed.data(), w.k4, w.n_pad, acc,
                                w.n_pad, 0, 1);
        simd::Int8DequantRows(acc, w.n_pad, w.col_corr.data(),
                              q.hidden_scale * w.scale, base, 0, gx,
                              static_cast<size_t>(gates), 0, 1, gates);
        float* c = c_slot(l, b);
        simd::SigmoidInPlace(gx, 3 * static_cast<size_t>(hidden));
        simd::TanhInPlace(gx + 3 * hidden, hidden);
        simd::LstmCellForward(gx, gx + hidden, gx + 2 * hidden,
                              gx + 3 * hidden, c, c, h_out,
                              static_cast<size_t>(hidden));
        simd::Int8Quantize(h_out, static_cast<size_t>(hidden),
                           inv_hidden_scale, h_slot(l, b));
      }
    }
    for (const RowLink& e : plan.ends()) {
      std::memcpy(h_slot(layers - 1, e.row), h_slot(layers - 1, e.from),
                  static_cast<size_t>(hq_stride));
    }
  }

  // Quantized head on the top layer's final hidden bytes.
  int32_t* head_acc = reinterpret_cast<int32_t*>(
      arena->Alloc(static_cast<size_t>(batch) * q.head.n_pad));
  simd::Int8GemmRowsNoSat(h_q[layers - 1], static_cast<size_t>(hq_stride),
                          q.head.packed.data(), q.head.k4, q.head.n_pad,
                          head_acc, q.head.n_pad, 0,
                          static_cast<size_t>(batch));
  simd::Int8DequantRows(head_acc, q.head.n_pad, q.head.col_corr.data(),
                        q.hidden_scale * q.head.scale, q.head_bias.data(), 0,
                        logits, static_cast<size_t>(q.outputs), 0,
                        static_cast<size_t>(batch), q.outputs);
}

}  // namespace sqlfacil::nn
