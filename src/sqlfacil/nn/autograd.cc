#include "sqlfacil/nn/autograd.h"

#include <algorithm>
#include <cmath>

#include "sqlfacil/nn/infer.h"
#include "sqlfacil/nn/simd.h"
#include "sqlfacil/util/logging.h"
#include "sqlfacil/util/thread_pool.h"

namespace sqlfacil::nn {

namespace {

// Minimum work per ParallelFor chunk. Elementwise grain is in floats,
// matmul grain in multiply-adds; both keep small graphs (LSTM steps over
// batch 16) on the serial path where dispatch overhead would dominate.
constexpr size_t kElementwiseGrain = 1 << 15;
constexpr size_t kMatMulFlopGrain = 1 << 18;
// Backward kernels have lower arithmetic intensity per row than the zero-
// skipping forward saxpy, so they amortize dispatch sooner: a 64x64x64
// backward splits into ~4 chunks at this grain while 32x32 stays serial.
constexpr size_t kMatMulBwdFlopGrain = 1 << 16;

size_t RowGrainForFlops(size_t flop_grain, int k, int n) {
  const size_t flops_per_row =
      std::max<size_t>(1, static_cast<size_t>(k) * static_cast<size_t>(n));
  size_t grain = std::max<size_t>(1, flop_grain / flops_per_row);
  // With vector kernels each row finishes ~4x faster, so a chunk needs ~4x
  // the rows to outweigh dispatch overhead (the small-CnnForward shapes:
  // 64-window conv rows are cheap). Grain only moves chunk boundaries of
  // row-independent kernels, so results are unchanged.
  if (simd::GetLevel() != simd::Level::kScalar) grain *= 4;
  return grain;
}

// Row-range grain for an (m x k) @ (k x n) product.
size_t MatMulRowGrain(int k, int n) {
  return RowGrainForFlops(kMatMulFlopGrain, k, n);
}

size_t MatMulBwdRowGrain(int k, int n) {
  return RowGrainForFlops(kMatMulBwdFlopGrain, k, n);
}

// --- Thread-local tape / redirect / traversal state -------------------------

struct Tape {
  std::vector<Var> nodes;
  size_t cursor = 0;
  int active = 0;  // nesting depth; 0 = pooling off
};

thread_local Tape t_tape;
thread_local const GradRedirectScope::Map* t_redirect = nullptr;
// Per-thread Backward epoch. Only non-leaf nodes are marked, and those are
// created on this thread's tape, so marks never race across shard workers.
thread_local std::uint64_t t_backward_epoch = 0;
thread_local std::vector<std::pair<Variable*, size_t>> t_dfs_stack;
thread_local std::vector<Variable*> t_order;

}  // namespace

namespace detail {

Var AllocNode() {
  if (t_tape.active > 0) {
    if (t_tape.cursor == t_tape.nodes.size()) {
      t_tape.nodes.push_back(std::make_shared<Variable>());
    }
    Var v = t_tape.nodes[t_tape.cursor++];
    v->op = Op::kLeaf;
    v->requires_grad = false;
    v->grad_ready = false;
    v->parents.clear();  // keeps capacity
    v->paux[0] = v->paux[1] = v->paux[2] = nullptr;
    return v;
  }
  return std::make_shared<Variable>();
}

void FinalizeOp(const Var& v, Op op, const std::vector<Var>& parents) {
  bool needs_grad = false;
  for (const auto& p : parents) needs_grad |= p->requires_grad;
  if (needs_grad) {
    v->op = op;
    v->requires_grad = true;
    v->parents.assign(parents.begin(), parents.end());
  } else {
    v->op = Op::kLeaf;
    v->requires_grad = false;
    v->parents.clear();
  }
}

void FinalizeOp(const Var& v, Op op, std::initializer_list<Var> parents) {
  bool needs_grad = false;
  for (const auto& p : parents) needs_grad |= p->requires_grad;
  if (needs_grad) {
    v->op = op;
    v->requires_grad = true;
    v->parents.assign(parents.begin(), parents.end());
  } else {
    v->op = Op::kLeaf;
    v->requires_grad = false;
    v->parents.clear();
  }
}

// Defined in lstm_fused.cc.
void LstmSequenceBackward(Variable& node);

}  // namespace detail

TapeScope::TapeScope() : base_(t_tape.cursor) { ++t_tape.active; }

TapeScope::~TapeScope() {
  t_tape.cursor = base_;
  --t_tape.active;
}

GradRedirectScope::GradRedirectScope(const Map* map) : prev_(t_redirect) {
  t_redirect = map;
}

GradRedirectScope::~GradRedirectScope() { t_redirect = prev_; }

Tensor& Variable::EnsureGrad() {
  // Redirect only ever applies to leaves (parameters); op nodes carry
  // parents and skip the scan, so their grads stay thread-confined.
  if (t_redirect != nullptr && requires_grad && parents.empty()) {
    for (const auto& [var, buf] : *t_redirect) {
      if (var == this) return *buf;
    }
  }
  if (!grad_ready || !grad.SameShape(value)) {
    grad.ResetShape(value.shape());
    grad_ready = true;
  }
  return grad;
}

Var MakeParam(Tensor value) {
  auto v = std::make_shared<Variable>();
  v->value = std::move(value);
  v->requires_grad = true;
  return v;
}

Var MakeConst(Tensor value) {
  Var v = detail::AllocNode();
  if (t_tape.active > 0) {
    v->value.CopyFrom(value);
  } else {
    v->value = std::move(value);
  }
  return v;
}

Var ZerosConst(const std::vector<int>& shape) {
  Var v = detail::AllocNode();
  v->value.ResetShape(shape);
  return v;
}

// ---------------------------------------------------------------------------
// Backward dispatch
// ---------------------------------------------------------------------------

namespace {

void MatMulBackward(Variable& node) {
  Variable* a = node.parents[0].get();
  Variable* b = node.parents[1].get();
  const int m = node.value.rows();
  const int n = node.value.cols();
  const int k = a->value.cols();
  const float* G = node.grad.data();
  if (a->requires_grad) {
    // dA = G @ B^T: row i of dA is a set of dot products against rows of
    // B — contiguous reads, disjoint writes per chunk. simd::Dot fixes the
    // reduction decomposition, so any chunking/SIMD combination yields
    // identical bits.
    float* dA = a->EnsureGrad().data();
    const float* B = b->value.data();
    ParallelForChunks(0, static_cast<size_t>(m), MatMulBwdRowGrain(k, n),
                      [&](size_t, size_t rb, size_t re) {
                        simd::MatMulGradARows(G, B, dA, rb, re, k, n);
                      });
  }
  if (b->requires_grad) {
    // dB = A^T @ G: one MatMulGradBRows call over every row of dB, or
    // chunks of dB rows in parallel. Each dB element accumulates over i
    // ascending in any chunk, so results are bit-identical regardless of
    // which path runs.
    float* dB = b->EnsureGrad().data();
    const float* A = a->value.data();
    const size_t kk_grain = MatMulBwdRowGrain(m, n);
    if (NumChunks(0, static_cast<size_t>(k), kk_grain) <= 1 ||
        ThreadPool::InWorker()) {
      simd::MatMulGradBRows(A, G, dB, m, 0, static_cast<size_t>(k), k, n);
    } else {
      ParallelForChunks(0, static_cast<size_t>(k), kk_grain,
                        [&](size_t, size_t kb, size_t ke) {
                          simd::MatMulGradBRows(A, G, dB, m, kb, ke, k, n);
                        });
    }
  }
}

void AddBackward(Variable& node) {
  Variable* a = node.parents[0].get();
  Variable* b = node.parents[1].get();
  const int rows = node.value.rows();
  const int cols = node.value.cols();
  const bool broadcast = b->value.rows() == 1 && rows > 1;
  const float* G = node.grad.data();
  if (a->requires_grad) {
    float* dA = a->EnsureGrad().data();
    ParallelFor(0, node.grad.size(), kElementwiseGrain,
                [&](size_t b_, size_t e_) {
                  simd::AddAcc(dA + b_, G + b_, e_ - b_);
                });
  }
  if (b->requires_grad) {
    // Broadcast grad is a row reduction (i ascending per element at any
    // chunking), so it stays serial.
    float* dB = b->EnsureGrad().data();
    for (int i = 0; i < rows; ++i) {
      simd::AddAcc(dB + (broadcast ? 0 : i) * static_cast<size_t>(cols),
                   G + static_cast<size_t>(i) * cols,
                   static_cast<size_t>(cols));
    }
  }
}

void SubBackward(Variable& node) {
  Variable* a = node.parents[0].get();
  Variable* b = node.parents[1].get();
  if (a->requires_grad) {
    simd::AddAcc(a->EnsureGrad().data(), node.grad.data(), node.grad.size());
  }
  if (b->requires_grad) {
    simd::SubAcc(b->EnsureGrad().data(), node.grad.data(), node.grad.size());
  }
}

void MulBackward(Variable& node) {
  Variable* a = node.parents[0].get();
  Variable* b = node.parents[1].get();
  const float* G = node.grad.data();
  if (a->requires_grad) {
    float* dA = a->EnsureGrad().data();
    const float* BV = b->value.data();
    ParallelFor(0, node.grad.size(), kElementwiseGrain,
                [&](size_t b_, size_t e_) {
                  simd::MulAcc(dA + b_, G + b_, BV + b_, e_ - b_);
                });
  }
  if (b->requires_grad) {
    float* dB = b->EnsureGrad().data();
    const float* AV = a->value.data();
    ParallelFor(0, node.grad.size(), kElementwiseGrain,
                [&](size_t b_, size_t e_) {
                  simd::MulAcc(dB + b_, G + b_, AV + b_, e_ - b_);
                });
  }
}

void ScaleBackward(Variable& node) {
  Variable* a = node.parents[0].get();
  if (!a->requires_grad) return;
  simd::Axpy(a->EnsureGrad().data(), node.grad.data(), node.farg,
             node.grad.size());
}

// Pointwise grads read the forward output straight from node.value (it IS
// the op output), which removed the per-node output copy the closure design
// carried.
void SigmoidBackward(Variable& node) {
  Variable* a = node.parents[0].get();
  if (!a->requires_grad) return;
  float* dA = a->EnsureGrad().data();
  const float* G = node.grad.data();
  const float* O = node.value.data();
  ParallelFor(0, node.grad.size(), kElementwiseGrain,
              [&](size_t b, size_t e) {
                simd::SigmoidGradAcc(dA + b, G + b, O + b, e - b);
              });
}

void TanhBackward(Variable& node) {
  Variable* a = node.parents[0].get();
  if (!a->requires_grad) return;
  float* dA = a->EnsureGrad().data();
  const float* G = node.grad.data();
  const float* O = node.value.data();
  ParallelFor(0, node.grad.size(), kElementwiseGrain,
              [&](size_t b, size_t e) {
                simd::TanhGradAcc(dA + b, G + b, O + b, e - b);
              });
}

void ReluBackward(Variable& node) {
  Variable* a = node.parents[0].get();
  if (!a->requires_grad) return;
  float* dA = a->EnsureGrad().data();
  const float* G = node.grad.data();
  const float* O = node.value.data();
  ParallelFor(0, node.grad.size(), kElementwiseGrain,
              [&](size_t b, size_t e) {
                simd::ReluGradAcc(dA + b, G + b, O + b, e - b);
              });
}

void RowsBackward(Variable& node) {
  Variable* table = node.parents[0].get();
  if (!table->requires_grad) return;
  const int d = node.value.cols();
  // Scatter into the table: rows can repeat, so the i-loop stays serial
  // (ascending i fixes the accumulation order per table row).
  Tensor& dT = table->EnsureGrad();
  const float* G = node.grad.data();
  for (size_t i = 0; i < node.iaux.size(); ++i) {
    const int idx = node.iaux[i];
    if (idx < 0) continue;
    simd::AddAcc(dT.data() + static_cast<size_t>(idx) * d,
                 G + i * static_cast<size_t>(d), static_cast<size_t>(d));
  }
}

void ConcatColsBackward(Variable& node) {
  const int rows = node.value.rows();
  const int total_cols = node.value.cols();
  int offset = 0;
  for (const auto& p : node.parents) {
    const int c = p->value.cols();
    if (p->requires_grad) {
      Tensor& dp = p->EnsureGrad();
      for (int i = 0; i < rows; ++i) {
        simd::AddAcc(dp.data() + static_cast<size_t>(i) * c,
                     node.grad.data() +
                         static_cast<size_t>(i) * total_cols + offset,
                     static_cast<size_t>(c));
      }
    }
    offset += c;
  }
}

void SliceColsBackward(Variable& node) {
  Variable* a = node.parents[0].get();
  if (!a->requires_grad) return;
  const int rows = node.value.rows();
  const int len = node.value.cols();
  const int start = node.iarg0;
  const int in_cols = a->value.cols();
  Tensor& dA = a->EnsureGrad();
  for (int i = 0; i < rows; ++i) {
    simd::AddAcc(dA.data() + static_cast<size_t>(i) * in_cols + start,
                 node.grad.data() + static_cast<size_t>(i) * len,
                 static_cast<size_t>(len));
  }
}

void MaxOverTimeBackward(Variable& node) {
  Variable* a = node.parents[0].get();
  if (!a->requires_grad) return;
  const int k = node.value.cols();
  Tensor& dA = a->EnsureGrad();
  for (int j = 0; j < k; ++j) {
    dA.at(node.iaux[j], j) += node.grad.at(0, j);
  }
}

void MeanBackward(Variable& node) {
  Variable* a = node.parents[0].get();
  if (!a->requires_grad) return;
  const size_t n = a->value.size();
  const float g = node.grad.at(0, 0) / static_cast<float>(n);
  float* dA = a->EnsureGrad().data();
  for (size_t i = 0; i < n; ++i) dA[i] += g;
}

void DropoutBackward(Variable& node) {
  Variable* a = node.parents[0].get();
  if (!a->requires_grad) return;
  float* dA = a->EnsureGrad().data();
  simd::MulAcc(dA, node.grad.data(), node.faux.data(), node.grad.size());
}

void BlendRowsBackward(Variable& node) {
  Variable* a = node.parents[0].get();
  Variable* b = node.parents[1].get();
  const int cols = node.value.cols();
  for (size_t i = 0; i < node.iaux.size(); ++i) {
    Variable* target = node.iaux[i] != 0 ? a : b;
    if (!target->requires_grad) continue;
    simd::AddAcc(target->EnsureGrad().data() + i * static_cast<size_t>(cols),
                 node.grad.data() + i * static_cast<size_t>(cols),
                 static_cast<size_t>(cols));
  }
}

void UnfoldBackward(Variable& node) {
  Variable* a = node.parents[0].get();
  if (!a->requires_grad) return;
  const int window = node.iarg0;
  const int d = a->value.cols();
  const int out_rows = node.value.rows();
  // Scatter: output row i covers the window*d contiguous input floats from
  // row i on, and input row r receives from up to `window` output rows —
  // overlapping writes, so this stays serial (i ascending fixes each input
  // element's accumulation order).
  float* dA = a->EnsureGrad().data();
  const size_t row_floats = static_cast<size_t>(window) * d;
  for (int i = 0; i < out_rows; ++i) {
    simd::AddAcc(dA + static_cast<size_t>(i) * d,
                 node.grad.data() + static_cast<size_t>(i) * row_floats,
                 row_floats);
  }
}

void SoftmaxCrossEntropyBackward(Variable& node) {
  Variable* logits = node.parents[0].get();
  if (!logits->requires_grad) return;
  const int b = logits->value.rows();
  const int c = logits->value.cols();
  const float g = node.grad.at(0, 0) / static_cast<float>(b);
  Tensor& dL = logits->EnsureGrad();
  const float* P = node.aux.data();
  // dL += g * probs, then the label column subtracts g (the indicator).
  for (int i = 0; i < b; ++i) {
    float* dl_row = dL.data() + static_cast<size_t>(i) * c;
    simd::Axpy(dl_row, P + static_cast<size_t>(i) * c, g,
               static_cast<size_t>(c));
    dl_row[node.iaux[i]] -= g;
  }
}

void HuberLossBackward(Variable& node) {
  Variable* pred = node.parents[0].get();
  if (!pred->requires_grad) return;
  const int b = static_cast<int>(node.faux.size());
  const float delta = node.farg;
  const float g = node.grad.at(0, 0) / static_cast<float>(b);
  Tensor& dP = pred->EnsureGrad();
  for (int i = 0; i < b; ++i) {
    const float r = node.faux[i];
    const float dr =
        (std::fabs(r) <= delta) ? r : (r > 0 ? delta : -delta);
    dP.at(i, 0) += g * dr;
  }
}

void SquaredLossBackward(Variable& node) {
  Variable* pred = node.parents[0].get();
  if (!pred->requires_grad) return;
  const int b = static_cast<int>(node.faux.size());
  const float g = node.grad.at(0, 0) / static_cast<float>(b);
  Tensor& dP = pred->EnsureGrad();
  for (int i = 0; i < b; ++i) dP.at(i, 0) += g * node.faux[i];
}

void RunBackward(Variable& node) {
  switch (node.op) {
    case Op::kLeaf:
      break;
    case Op::kMatMul:
      MatMulBackward(node);
      break;
    case Op::kAdd:
      AddBackward(node);
      break;
    case Op::kSub:
      SubBackward(node);
      break;
    case Op::kMul:
      MulBackward(node);
      break;
    case Op::kScale:
      ScaleBackward(node);
      break;
    case Op::kSigmoid:
      SigmoidBackward(node);
      break;
    case Op::kTanh:
      TanhBackward(node);
      break;
    case Op::kRelu:
      ReluBackward(node);
      break;
    case Op::kRows:
      RowsBackward(node);
      break;
    case Op::kConcatCols:
      ConcatColsBackward(node);
      break;
    case Op::kSliceCols:
      SliceColsBackward(node);
      break;
    case Op::kMaxOverTime:
      MaxOverTimeBackward(node);
      break;
    case Op::kMean:
      MeanBackward(node);
      break;
    case Op::kDropout:
      DropoutBackward(node);
      break;
    case Op::kBlendRows:
      BlendRowsBackward(node);
      break;
    case Op::kUnfold:
      UnfoldBackward(node);
      break;
    case Op::kSoftmaxCrossEntropy:
      SoftmaxCrossEntropyBackward(node);
      break;
    case Op::kHuberLoss:
      HuberLossBackward(node);
      break;
    case Op::kSquaredLoss:
      SquaredLossBackward(node);
      break;
    case Op::kLstmSequence:
      detail::LstmSequenceBackward(node);
      break;
  }
}

}  // namespace

void Backward(const Var& root) {
  SQLFACIL_CHECK(root->value.size() == 1)
      << "Backward requires a scalar root";
  const std::uint64_t epoch = ++t_backward_epoch;
  auto& stack = t_dfs_stack;
  auto& order = t_order;
  stack.clear();
  order.clear();
  // Iterative topological sort (deep LSTM graphs overflow recursion). Only
  // op nodes enter the order: leaves have no backward, and skipping them
  // avoids epoch-marking shared parameters from shard worker threads.
  if (root->requires_grad && !root->parents.empty()) {
    root->visit_epoch = epoch;
    stack.emplace_back(root.get(), 0);
  }
  while (!stack.empty()) {
    auto& top = stack.back();
    Variable* node = top.first;
    if (top.second < node->parents.size()) {
      Variable* parent = node->parents[top.second++].get();
      if (parent->requires_grad && !parent->parents.empty() &&
          parent->visit_epoch != epoch) {
        parent->visit_epoch = epoch;
        stack.emplace_back(parent, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  root->EnsureGrad().Fill(1.0f);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    RunBackward(**it);
  }
}

void ZeroGrad(const std::vector<Var>& params) {
  for (const auto& p : params) {
    p->EnsureGrad();
    p->grad.Fill(0.0f);
  }
}

// ---------------------------------------------------------------------------
// Ops
// ---------------------------------------------------------------------------

Var MatMul(const Var& a, const Var& b) {
  const int m = a->value.rows();
  const int k = a->value.cols();
  const int n = b->value.cols();
  SQLFACIL_CHECK(b->value.rows() == k)
      << "MatMul shape mismatch: (" << m << "x" << k << ") @ ("
      << b->value.rows() << "x" << n << ")";
  Var v = detail::AllocNode();
  v->value.ResetShape({m, n});
  const float* A = a->value.data();
  const float* B = b->value.data();
  float* C = v->value.data();
  // Row-partitioned: each chunk owns a disjoint slice of C, and per output
  // element the accumulation order matches the serial loop exactly.
  ParallelFor(0, static_cast<size_t>(m), MatMulRowGrain(k, n),
              [&](size_t rb, size_t re) {
                simd::MatMulRows(A, B, C, rb, re, k, n);
              });
  detail::FinalizeOp(v, Op::kMatMul, {a, b});
  return v;
}

Var Add(const Var& a, const Var& b) {
  const bool broadcast =
      b->value.rows() == 1 && a->value.rows() > 1 &&
      a->value.cols() == b->value.cols();
  SQLFACIL_CHECK(broadcast || a->value.SameShape(b->value))
      << "Add shape mismatch";
  Var v = detail::AllocNode();
  v->value.CopyFrom(a->value);
  const int rows = v->value.rows(), cols = v->value.cols();
  const size_t row_grain =
      std::max<size_t>(1, kElementwiseGrain / std::max(1, cols));
  const float* B = b->value.data();
  float* O = v->value.data();
  ParallelFor(0, static_cast<size_t>(rows), row_grain,
              [&](size_t rb, size_t re) {
                for (size_t i = rb; i < re; ++i) {
                  simd::AddAcc(O + i * static_cast<size_t>(cols),
                               B + (broadcast ? 0 : i) *
                                       static_cast<size_t>(cols),
                               static_cast<size_t>(cols));
                }
              });
  detail::FinalizeOp(v, Op::kAdd, {a, b});
  return v;
}

Var Sub(const Var& a, const Var& b) {
  SQLFACIL_CHECK(a->value.SameShape(b->value)) << "Sub shape mismatch";
  Var v = detail::AllocNode();
  v->value.CopyFrom(a->value);
  simd::SubAcc(v->value.data(), b->value.data(), v->value.size());
  detail::FinalizeOp(v, Op::kSub, {a, b});
  return v;
}

Var Mul(const Var& a, const Var& b) {
  SQLFACIL_CHECK(a->value.SameShape(b->value)) << "Mul shape mismatch";
  Var v = detail::AllocNode();
  v->value.CopyFrom(a->value);
  float* o = v->value.data();
  const float* B = b->value.data();
  ParallelFor(0, v->value.size(), kElementwiseGrain,
              [&](size_t b_, size_t e_) {
                simd::Mul(o + b_, B + b_, e_ - b_);
              });
  detail::FinalizeOp(v, Op::kMul, {a, b});
  return v;
}

Var Scale(const Var& a, float s) {
  Var v = detail::AllocNode();
  v->value.CopyFrom(a->value);
  simd::Scale(v->value.data(), s, v->value.size());
  v->farg = s;
  detail::FinalizeOp(v, Op::kScale, {a});
  return v;
}

Var Sigmoid(const Var& a) {
  Var v = detail::AllocNode();
  v->value.CopyFrom(a->value);
  float* o = v->value.data();
  ParallelFor(0, v->value.size(), kElementwiseGrain,
              [&](size_t b, size_t e) { simd::SigmoidInPlace(o + b, e - b); });
  detail::FinalizeOp(v, Op::kSigmoid, {a});
  return v;
}

Var Tanh(const Var& a) {
  Var v = detail::AllocNode();
  v->value.CopyFrom(a->value);
  float* o = v->value.data();
  ParallelFor(0, v->value.size(), kElementwiseGrain,
              [&](size_t b, size_t e) { simd::TanhInPlace(o + b, e - b); });
  detail::FinalizeOp(v, Op::kTanh, {a});
  return v;
}

Var Relu(const Var& a) {
  Var v = detail::AllocNode();
  v->value.CopyFrom(a->value);
  float* o = v->value.data();
  ParallelFor(0, v->value.size(), kElementwiseGrain,
              [&](size_t b, size_t e) { simd::Relu(o + b, e - b); });
  detail::FinalizeOp(v, Op::kRelu, {a});
  return v;
}

Var Rows(const Var& table, const std::vector<int>& indices) {
  const int d = table->value.cols();
  Var v = detail::AllocNode();
  v->value.ResetShape({static_cast<int>(indices.size()), d});
  Tensor& out = v->value;
  const size_t row_grain =
      std::max<size_t>(1, kElementwiseGrain / std::max(1, d));
  ParallelFor(0, indices.size(), row_grain, [&](size_t rb, size_t re) {
    for (size_t i = rb; i < re; ++i) {
      const int idx = indices[i];
      if (idx < 0) continue;  // padding: zero row
      SQLFACIL_CHECK(idx < table->value.rows());
      for (int j = 0; j < d; ++j) {
        out.at(static_cast<int>(i), j) = table->value.at(idx, j);
      }
    }
  });
  v->iaux.assign(indices.begin(), indices.end());
  detail::FinalizeOp(v, Op::kRows, {table});
  return v;
}

Var ConcatCols(const std::vector<Var>& parts) {
  SQLFACIL_CHECK(!parts.empty());
  const int rows = parts[0]->value.rows();
  int total_cols = 0;
  for (const auto& p : parts) {
    SQLFACIL_CHECK(p->value.rows() == rows) << "ConcatCols row mismatch";
    total_cols += p->value.cols();
  }
  Var v = detail::AllocNode();
  v->value.ResetShape({rows, total_cols});
  Tensor& out = v->value;
  int offset = 0;
  for (const auto& p : parts) {
    const int c = p->value.cols();
    for (int i = 0; i < rows; ++i) {
      for (int j = 0; j < c; ++j) out.at(i, offset + j) = p->value.at(i, j);
    }
    offset += c;
  }
  detail::FinalizeOp(v, Op::kConcatCols, parts);
  return v;
}

Var SliceCols(const Var& a, int start, int len) {
  const int rows = a->value.rows();
  const int cols = a->value.cols();
  SQLFACIL_CHECK(start >= 0 && len >= 0 && start + len <= cols);
  Var v = detail::AllocNode();
  v->value.ResetShape({rows, len});
  Tensor& out = v->value;
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < len; ++j) out.at(i, j) = a->value.at(i, start + j);
  }
  v->iarg0 = start;
  v->iarg1 = len;
  detail::FinalizeOp(v, Op::kSliceCols, {a});
  return v;
}

Var MaxOverTime(const Var& a) {
  const int t = a->value.rows();
  const int k = a->value.cols();
  SQLFACIL_CHECK(t >= 1);
  Var v = detail::AllocNode();
  v->value.ResetShape({1, k});
  v->iaux.resize(static_cast<size_t>(k));
  simd::MaxOverTime(a->value.data(), 0, static_cast<size_t>(t), k,
                    v->value.data(), v->iaux.data());
  detail::FinalizeOp(v, Op::kMaxOverTime, {a});
  return v;
}

Var Mean(const Var& a) {
  const size_t n = a->value.size();
  SQLFACIL_CHECK(n > 0);
  Var v = detail::AllocNode();
  v->value.ResetShape({1, 1});
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += a->value.data()[i];
  v->value.at(0, 0) = static_cast<float>(sum / static_cast<double>(n));
  detail::FinalizeOp(v, Op::kMean, {a});
  return v;
}

Var Dropout(const Var& a, float p, Rng* rng) {
  if (p <= 0.0f) return a;
  SQLFACIL_CHECK(p < 1.0f);
  SQLFACIL_CHECK(rng != nullptr);
  const float keep = 1.0f - p;
  Var v = detail::AllocNode();
  v->value.CopyFrom(a->value);
  v->faux.resize(v->value.size());
  for (size_t i = 0; i < v->value.size(); ++i) {
    const float m = rng->Bernoulli(keep) ? 1.0f / keep : 0.0f;
    v->faux[i] = m;
    v->value.data()[i] *= m;
  }
  detail::FinalizeOp(v, Op::kDropout, {a});
  return v;
}

Var BlendRows(const Var& a, const Var& b, const std::vector<bool>& mask) {
  SQLFACIL_CHECK(a->value.SameShape(b->value));
  SQLFACIL_CHECK(static_cast<int>(mask.size()) == a->value.rows());
  Var v = detail::AllocNode();
  v->value.CopyFrom(a->value);
  const int cols = v->value.cols();
  v->iaux.resize(mask.size());
  for (size_t i = 0; i < mask.size(); ++i) {
    v->iaux[i] = mask[i] ? 1 : 0;
    if (!mask[i]) {
      for (int j = 0; j < cols; ++j) {
        v->value.at(static_cast<int>(i), j) =
            b->value.at(static_cast<int>(i), j);
      }
    }
  }
  detail::FinalizeOp(v, Op::kBlendRows, {a, b});
  return v;
}

Var Unfold(const Var& a, int window) {
  const int t = a->value.rows();
  const int d = a->value.cols();
  SQLFACIL_CHECK(window >= 1 && t >= window)
      << "Unfold: sequence shorter than window";
  const int out_rows = t - window + 1;
  Var v = detail::AllocNode();
  v->value.ResetShape({out_rows, window * d});
  infer::Unfold(a->value.data(), t, d, window, v->value.data());
  v->iarg0 = window;
  detail::FinalizeOp(v, Op::kUnfold, {a});
  return v;
}

Var SoftmaxCrossEntropy(const Var& logits, const std::vector<int>& labels,
                        Tensor* probs_out) {
  const int b = logits->value.rows();
  const int c = logits->value.cols();
  SQLFACIL_CHECK(static_cast<int>(labels.size()) == b);
  Var v = detail::AllocNode();
  v->aux.ResetShape({b, c});
  const float loss = infer::SoftmaxCrossEntropy(logits->value.data(), b, c,
                                                labels.data(), v->aux.data());
  if (probs_out != nullptr) probs_out->CopyFrom(v->aux);
  v->value.ResetShape({1, 1});
  v->value.at(0, 0) = loss;
  v->iaux.assign(labels.begin(), labels.end());
  detail::FinalizeOp(v, Op::kSoftmaxCrossEntropy, {logits});
  return v;
}

Var HuberLoss(const Var& pred, const std::vector<float>& targets,
              float delta) {
  const int b = pred->value.rows();
  SQLFACIL_CHECK(pred->value.cols() == 1);
  SQLFACIL_CHECK(static_cast<int>(targets.size()) == b);
  Var v = detail::AllocNode();
  v->faux.resize(static_cast<size_t>(b));
  const float loss = infer::HuberLoss(pred->value.data(), targets.data(), b,
                                      delta, v->faux.data());
  v->value.ResetShape({1, 1});
  v->value.at(0, 0) = loss;
  v->farg = delta;
  detail::FinalizeOp(v, Op::kHuberLoss, {pred});
  return v;
}

Var SquaredLoss(const Var& pred, const std::vector<float>& targets) {
  const int b = pred->value.rows();
  SQLFACIL_CHECK(pred->value.cols() == 1);
  SQLFACIL_CHECK(static_cast<int>(targets.size()) == b);
  Var v = detail::AllocNode();
  v->faux.resize(static_cast<size_t>(b));
  const float loss = infer::SquaredLoss(pred->value.data(), targets.data(), b,
                                        v->faux.data());
  v->value.ResetShape({1, 1});
  v->value.at(0, 0) = loss;
  detail::FinalizeOp(v, Op::kSquaredLoss, {pred});
  return v;
}

}  // namespace sqlfacil::nn
