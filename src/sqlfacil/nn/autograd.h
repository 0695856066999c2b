#ifndef SQLFACIL_NN_AUTOGRAD_H_
#define SQLFACIL_NN_AUTOGRAD_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sqlfacil/nn/tensor.h"

namespace sqlfacil::nn {

/// Opcode of a tape node. Backward() dispatches on this enum instead of a
/// per-node closure so that graph nodes carry no heap-allocated callable and
/// can be pooled across training steps (see TapeScope).
enum class Op : std::uint8_t {
  kLeaf,  // parameter or constant; no backward
  kMatMul,
  kAdd,
  kSub,
  kMul,
  kScale,
  kSigmoid,
  kTanh,
  kRelu,
  kRows,
  kConcatCols,
  kSliceCols,
  kMaxOverTime,
  kMean,
  kDropout,
  kBlendRows,
  kUnfold,
  kSoftmaxCrossEntropy,
  kHuberLoss,
  kSquaredLoss,
  kLstmSequence,  // fused multi-layer BPTT op (nn/lstm_fused.h)
};

/// A node in the dynamic computation tape. Ops fill in the forward value,
/// links to parents, and a small op-specific payload (scalar args, int/float
/// side arrays, an aux tensor, raw arena pointers). Backward() walks nodes in
/// reverse topological order and scatters each node's gradient into its
/// parents' gradients via a switch on `op`.
///
/// All payload fields use capacity-preserving assignment, so a node recycled
/// by the tape for the same graph shape performs no heap allocation.
struct Variable {
  Tensor value;
  Tensor grad;             // zero-filled lazily on first backward touch
  Tensor aux;              // op scratch (softmax probs, ...)
  std::vector<std::shared_ptr<Variable>> parents;
  std::vector<int> iaux;    // indices / labels / argmax / row masks
  std::vector<float> faux;  // dropout mask / loss residuals
  float* paux[3] = {nullptr, nullptr, nullptr};  // fused-op arena slabs
  std::uint64_t visit_epoch = 0;  // Backward traversal mark (thread-local
                                  // epochs; only set on non-leaf nodes)
  float farg = 0.0f;
  int iarg0 = 0;
  int iarg1 = 0;
  Op op = Op::kLeaf;
  bool requires_grad = false;
  bool grad_ready = false;  // false on recycled nodes: EnsureGrad re-zeroes

  /// Ensures grad is zero-initialized with the value's shape. If a
  /// GradRedirectScope is active and maps this node (leaf parameters during
  /// sharded backward), returns the redirected buffer instead.
  Tensor& EnsureGrad();
};

using Var = std::shared_ptr<Variable>;

/// A trainable parameter (participates in gradients). Never pooled.
Var MakeParam(Tensor value);
/// A constant input (no gradient). Pooled when a TapeScope is active.
Var MakeConst(Tensor value);
/// A pooled zero constant of the given shape (allocation-free at steady
/// state; used for LSTM initial states).
Var ZerosConst(const std::vector<int>& shape);

/// RAII scope that pools graph nodes on a thread-local tape. While active,
/// op outputs and constants are recycled Variables whose tensors keep their
/// capacity, so a training step with stable shapes allocates nothing after
/// the first iteration. On destruction the tape cursor rewinds; callers must
/// not hold Vars created inside the scope beyond its lifetime. Scopes nest
/// (each rewinds to its entry point) and are per-thread, so shard workers
/// each get their own pool.
class TapeScope {
 public:
  TapeScope();
  ~TapeScope();
  TapeScope(const TapeScope&) = delete;
  TapeScope& operator=(const TapeScope&) = delete;

 private:
  std::size_t base_;
};

/// RAII scope that redirects gradient accumulation for specific leaf
/// variables into caller-owned buffers. Thread-local: during data-parallel
/// training each shard worker installs a redirect from the shared parameters
/// to its private gradient buffers, so backward never writes shared state.
/// The map must outlive the scope and the buffers must match the parameter
/// shapes; entries are scanned linearly (parameter lists are short).
class GradRedirectScope {
 public:
  using Map = std::vector<std::pair<Variable*, Tensor*>>;
  explicit GradRedirectScope(const Map* map);
  ~GradRedirectScope();
  GradRedirectScope(const GradRedirectScope&) = delete;
  GradRedirectScope& operator=(const GradRedirectScope&) = delete;

 private:
  const Map* prev_;
};

/// Runs backpropagation from a scalar root (seeds d(root)/d(root) = 1).
/// Traversal state is pooled per thread; marking uses per-thread epochs on
/// non-leaf nodes only (leaves are shared across shard workers and are never
/// written during traversal).
void Backward(const Var& root);

/// Zeroes gradients of the given parameters.
void ZeroGrad(const std::vector<Var>& params);

// --- Ops -------------------------------------------------------------------

/// Matrix product: (m x k) @ (k x n) -> (m x n).
Var MatMul(const Var& a, const Var& b);

/// Elementwise add. If b is (1 x n) and a is (m x n), b broadcasts over
/// rows (bias add).
Var Add(const Var& a, const Var& b);

/// Elementwise subtract (same-shape only).
Var Sub(const Var& a, const Var& b);

/// Elementwise (Hadamard) product, same shape.
Var Mul(const Var& a, const Var& b);

/// Scales by a constant.
Var Scale(const Var& a, float s);

Var Sigmoid(const Var& a);
Var Tanh(const Var& a);
Var Relu(const Var& a);

/// Row gather: selects rows of `table` ((V x d)) by index; index -1 yields
/// a zero row (padding). Gradient accumulates into the gathered rows.
Var Rows(const Var& table, const std::vector<int>& indices);

/// Horizontal concat of (r x c_i) slabs -> (r x sum c_i).
Var ConcatCols(const std::vector<Var>& parts);

/// Column slice: (r x c) -> (r x len) starting at column `start`.
Var SliceCols(const Var& a, int start, int len);

/// Max over time: (T x K) -> (1 x K); gradient routes to the argmax row.
Var MaxOverTime(const Var& a);

/// Mean over all elements -> (1 x 1) scalar.
Var Mean(const Var& a);

/// Inverted dropout at rate `p` (a training-step op: inference paths run
/// the nn::infer kernels without it); identity when p == 0.
Var Dropout(const Var& a, float p, Rng* rng);

/// Per-row blend used for padded LSTM batches:
/// out_row_i = mask[i] ? a_row_i : b_row_i.
Var BlendRows(const Var& a, const Var& b, const std::vector<bool>& mask);

/// im2col for 1-D convolution over a (T x d) sequence with window m:
/// output ((T-m+1) x m*d); requires T >= m.
Var Unfold(const Var& a, int window);

// --- Losses (return (1 x 1) scalars, averaged over the batch) -------------

/// Softmax cross-entropy for logits (B x C) against integer labels.
/// If `probs_out` is non-null it receives the (B x C) softmax.
Var SoftmaxCrossEntropy(const Var& logits, const std::vector<int>& labels,
                        Tensor* probs_out = nullptr);

/// Huber loss (Eq. A.1/A.2) of predictions (B x 1) against targets.
Var HuberLoss(const Var& pred, const std::vector<float>& targets,
              float delta = 1.0f);

/// Squared error loss of predictions (B x 1) against targets (for the
/// loss-function ablation).
Var SquaredLoss(const Var& pred, const std::vector<float>& targets);

// --- Tape internals shared with the fused ops ------------------------------

namespace detail {
/// Allocates a node: recycled from the thread-local tape when a TapeScope is
/// active, freshly heap-allocated otherwise.
Var AllocNode();
/// Sets op/parents and propagates requires_grad; demotes to a leaf (parents
/// dropped) when no parent needs gradients, matching the closure-era
/// behavior of not retaining the graph for inference-only subtrees.
void FinalizeOp(const Var& v, Op op, std::initializer_list<Var> parents);
void FinalizeOp(const Var& v, Op op, const std::vector<Var>& parents);
}  // namespace detail

}  // namespace sqlfacil::nn

#endif  // SQLFACIL_NN_AUTOGRAD_H_
