#ifndef SQLFACIL_NN_LSTM_FUSED_H_
#define SQLFACIL_NN_LSTM_FUSED_H_

#include <cstdint>
#include <span>
#include <vector>

#include "sqlfacil/nn/autograd.h"
#include "sqlfacil/nn/layers.h"
#include "sqlfacil/nn/quant.h"

namespace sqlfacil::nn {

class Arena;

/// Fused embedding + multi-layer LSTM over a padded batch, as ONE tape node
/// (Op::kLstmSequence) instead of the ~30-node-per-(step, layer) graph the
/// layer-by-layer API builds. The forward replicates the graph-free
/// inference kernel sequence (gx = x@Wx; gx += b; gh = h@Wh; gx += gh;
/// sigmoid/tanh gates; c' = u*cand + f*c; h' = o*tanh(c'); padded rows carry
/// state), saving the activated gate slabs and per-(t, layer) h/c states in
/// the thread-local training arena. The backward is a hand-written BPTT
/// that walks t descending / layer descending and scatters parameter
/// gradients through the simd contract kernels, so results are bit-identical
/// at every SIMD level and any chunking.
///
/// `step_ids` holds max_len * batch token ids, row-major by time step
/// (step_ids[t * batch + b]; -1 = padding); `lens[b]` is sample b's true
/// length (>= 1). Returns the top layer's final hidden state (batch x H).
///
/// Lifetime: the activation slabs live in ThreadLocalTrainArena() from this
/// call until Backward() has run on the same thread; the caller (the
/// training-step driver) must reset that arena after the step, and must not
/// reset it in between.
Var LstmSequence(const Var& table, const LstmStack& stack,
                 const std::vector<int>& step_ids,
                 const std::vector<int>& lens, int max_len);

/// The int8 precision tier's LSTM stack (nn/quant.h scheme), built offline
/// from trained fp32 parameters:
///   - Layer 0's token -> gate input transform is exact: it is the model's
///     fp32 table BuildLstmXTable, which both tiers read, so per step only
///     the recurrent product h @ Wh0 is quantized.
///   - Hidden states are u8 activations under ONE calibrated scale (they
///     are o * tanh(c) products, so a single max|h| range covers every
///     layer); layers >= 1 therefore stack [Wx; Wh] into one (2H x 4H)
///     quantized tensor and run a single quad-dot GEMV per step on the
///     concatenated [h_below, h_prev] bytes.
///   - The head is a quantized (H x outputs) product on the final hidden
///     state's bytes.
/// Gate nonlinearities, the cell update, and the softmax stay fp32 through
/// the shared-polynomial kernels, so the tier inherits their bit-identity
/// and the whole forward is bit-identical across SQLFACIL_SIMD x
/// SQLFACIL_THREADS (integer accumulation is exact; every float op rounds
/// once in a fixed order).
struct QuantLstmStack {
  int num_layers = 0;
  int hidden = 0;
  int outputs = 0;
  float hidden_scale = 0.0f;   // u8 scale for every hidden state
  quant::QuantizedTensor wh0;  // (H x 4H)
  std::vector<quant::QuantizedTensor> wcat;  // per layer l>=1: (2H x 4H)
  std::vector<std::vector<float>> bias;      // per layer l>=1: (4H)
  quant::QuantizedTensor head;               // (H x outputs)
  std::vector<float> head_bias;              // (outputs)

  bool ready() const { return num_layers > 0; }
};

/// The layer-0 token -> gate table (vocab x 4H): emb[v] @ Wx0 + bias0, by
/// the exact fp32 inference kernels (MatMul, then BiasAdd). Row v is
/// LstmGates' accumulator after the bias for embedding row v, so a step
/// that starts its gates from the row and adds h @ Wh0 (simd::MatMulRows)
/// computes LstmGates' bits. Derived data: the model rebuilds it whenever
/// its weights change, and checkpoints do not store it.
std::vector<float> BuildLstmXTable(const Tensor& embedding,
                                   const LstmLayer& layer0);

/// Builds the quantized stack from trained parameters. `hidden_scale` is
/// max|h| / 127 from calibration (see LstmModel::Quantize).
QuantLstmStack BuildQuantLstmStack(const LstmStack& stack, const Linear& head,
                                   int outputs, float hidden_scale);

/// The serving forwards of one bucket: seqs[0..batch) are encoded
/// statements (>= 1 token each, every id a row of `x_table`) in ascending
/// length order, the (batch x outputs) row-major logits land in `logits`,
/// and all temporaries come from `arena` (the caller resets it).
///
/// Both tiers step one prefix-sharing plan. A row's state after step t is
/// a function of its first t + 1 tokens alone, so at step t the rows still
/// reading tokens are grouped by (the row whose slots hold their prefix
/// state, token t), and only each group's leader, its lowest row, runs the
/// gates and the cell, updating its per-layer h/c slots in place. Rows
/// whose prefix splits off from their leader's form a new group, whose
/// leader first copies the old leader's per-layer h/c; a row that ends
/// behind a leader takes the leader's top-layer h. Every state is thus the
/// one the row would compute alone: row b depends only on seqs[b], so
/// neither the bucket partition nor the other rows change a bit.
///
/// fp32: layer 0 starts each gate row from x_table's row for the token and
/// adds h @ Wh0; layers >= 1 run LstmGates. When `max_abs_h` is non-null
/// it also accumulates max|h| over every computed hidden state (the int8
/// tier's activation calibration); a shared state holds the same values
/// its followers would compute, so the maximum is unchanged by sharing.
void LstmForward(std::span<const float> x_table, const LstmStack& stack,
                 const Linear& head, const std::vector<int>* const* seqs,
                 int batch, Arena* arena, float* logits,
                 float* max_abs_h = nullptr);

/// int8: layer 0 dequantizes the quantized h @ Wh0 onto x_table's row for
/// the token; layers >= 1 run one quad-dot GEMV over [h_below, h_prev].
void LstmInt8Forward(const QuantLstmStack& q, std::span<const float> x_table,
                     const std::vector<int>* const* seqs, int batch,
                     Arena* arena, float* logits);

}  // namespace sqlfacil::nn

#endif  // SQLFACIL_NN_LSTM_FUSED_H_
