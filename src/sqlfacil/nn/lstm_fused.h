#ifndef SQLFACIL_NN_LSTM_FUSED_H_
#define SQLFACIL_NN_LSTM_FUSED_H_

#include <cstdint>
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
/// across SQLFACIL_SIMD on/off and any chunking.
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
///   - Layer 0's token -> gate input transform is exact: every embedding
///     row's product with Wx0 (+ bias) is folded into a fp32 lookup table
///     at quantization time, so per step only the recurrent product h @ Wh0
///     is quantized.
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
  int vocab = 0;
  int outputs = 0;
  float hidden_scale = 0.0f;   // u8 scale for every hidden state
  std::vector<float> x_table;  // (vocab x 4H): emb[v] @ Wx0 + bias0, exact
  quant::QuantizedTensor wh0;  // (H x 4H)
  std::vector<quant::QuantizedTensor> wcat;  // per layer l>=1: (2H x 4H)
  std::vector<std::vector<float>> bias;      // per layer l>=1: (4H)
  quant::QuantizedTensor head;               // (H x outputs)
  std::vector<float> head_bias;              // (outputs)

  bool ready() const { return num_layers > 0; }
};

/// The layer-0 token -> gate lookup (vocab x 4H): emb[v] @ Wx0 + bias0,
/// computed once with the exact fp32 inference kernels. Derived data:
/// checkpoints rebuild it from the fp32 weights instead of storing it.
std::vector<float> BuildLstmXTable(const Tensor& embedding,
                                   const LstmLayer& layer0);

/// Builds the quantized stack from trained parameters. `hidden_scale` is
/// max|h| / 127 from calibration (see LstmModel::Quantize).
QuantLstmStack BuildQuantLstmStack(const Tensor& embedding,
                                   const LstmStack& stack, const Linear& head,
                                   int outputs, float hidden_scale);

/// Graph-free int8 forward over a bucket: seqs[b] is query b's encoded ids
/// (>= 1 token each; ids within the length are non-negative), with the
/// rows in ascending length order. Step t computes only the rows whose
/// length exceeds t (a suffix of the bucket) and updates their state in
/// place. Writes logits (batch x outputs, row-major) into `logits`; all
/// temporaries come from `arena` (caller resets it). Row b depends only on
/// seqs[b], so any bucket partition is bit-identical.
void LstmInt8Forward(const QuantLstmStack& q,
                     const std::vector<int>* const* seqs, int batch,
                     Arena* arena, float* logits);

}  // namespace sqlfacil::nn

#endif  // SQLFACIL_NN_LSTM_FUSED_H_
