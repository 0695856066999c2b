#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "sqlfacil/nn/arena.h"
#include "sqlfacil/nn/autograd.h"
#include "sqlfacil/nn/data_parallel.h"
#include "sqlfacil/nn/infer.h"
#include "sqlfacil/nn/layers.h"
#include "sqlfacil/nn/lstm_fused.h"
#include "sqlfacil/nn/optim.h"
#include "sqlfacil/nn/simd.h"
#include "sqlfacil/nn/tensor.h"

namespace sqlfacil::nn {
namespace {

// ---------------------------------------------------------------------------
// Tensor
// ---------------------------------------------------------------------------

TEST(TensorTest, ShapeAndAccess) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  t.at(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(t.at(1, 2), 5.0f);
  EXPECT_FLOAT_EQ(t.at(0, 0), 0.0f);
}

TEST(TensorTest, FullAndFill) {
  Tensor t = Tensor::Full({2, 2}, 3.0f);
  EXPECT_FLOAT_EQ(t.at(1, 1), 3.0f);
  t.Fill(0.0f);
  EXPECT_FLOAT_EQ(t.at(0, 0), 0.0f);
}

TEST(TensorTest, GlorotBounded) {
  Rng rng(3);
  Tensor t = Tensor::Glorot(100, 100, &rng);
  const float bound = std::sqrt(6.0f / 200.0f);
  for (size_t i = 0; i < t.size(); ++i) {
    EXPECT_LE(std::fabs(t.data()[i]), bound);
  }
}

// ---------------------------------------------------------------------------
// Numerical gradient checking
// ---------------------------------------------------------------------------

// Checks d(loss)/d(param) against central finite differences for every
// element of `param`, where `forward` rebuilds the graph and returns the
// scalar loss Var.
void CheckGradient(const Var& param, const std::function<Var()>& forward,
                   float tol = 2e-2f) {
  Var loss = forward();
  ZeroGrad({param});
  Backward(loss);
  Tensor analytic = param->grad;

  const float eps = 1e-2f;
  for (size_t i = 0; i < param->value.size(); ++i) {
    const float orig = param->value.data()[i];
    param->value.data()[i] = orig + eps;
    const float up = forward()->value.at(0);
    param->value.data()[i] = orig - eps;
    const float down = forward()->value.at(0);
    param->value.data()[i] = orig;
    const float numeric = (up - down) / (2.0f * eps);
    EXPECT_NEAR(analytic.data()[i], numeric,
                tol * std::max(1.0f, std::fabs(numeric)))
        << "param element " << i;
  }
}

TEST(AutogradTest, MatMulGradient) {
  Rng rng(1);
  Var a = MakeParam(Tensor::RandomUniform({3, 4}, 1.0f, &rng));
  Var b = MakeParam(Tensor::RandomUniform({4, 2}, 1.0f, &rng));
  CheckGradient(a, [&] { return Mean(MatMul(a, b)); });
  CheckGradient(b, [&] { return Mean(MatMul(a, b)); });
}

TEST(AutogradTest, AddBroadcastGradient) {
  Rng rng(2);
  Var a = MakeParam(Tensor::RandomUniform({3, 4}, 1.0f, &rng));
  Var bias = MakeParam(Tensor::RandomUniform({1, 4}, 1.0f, &rng));
  CheckGradient(bias, [&] { return Mean(Tanh(Add(a, bias))); });
}

TEST(AutogradTest, MulSubScaleGradient) {
  Rng rng(3);
  Var a = MakeParam(Tensor::RandomUniform({2, 3}, 1.0f, &rng));
  Var b = MakeParam(Tensor::RandomUniform({2, 3}, 1.0f, &rng));
  CheckGradient(a, [&] { return Mean(Mul(a, b)); });
  CheckGradient(a, [&] { return Mean(Sub(a, b)); });
  CheckGradient(a, [&] { return Mean(Scale(a, 2.5f)); });
}

TEST(AutogradTest, ActivationGradients) {
  Rng rng(4);
  Var a = MakeParam(Tensor::RandomUniform({2, 5}, 1.5f, &rng));
  CheckGradient(a, [&] { return Mean(Sigmoid(a)); });
  CheckGradient(a, [&] { return Mean(Tanh(a)); });
  // Relu is non-differentiable at 0; values away from 0 via offset.
  Var offset = MakeConst(Tensor::Full({2, 5}, 0.3f));
  CheckGradient(a, [&] { return Mean(Relu(Add(a, offset))); });
}

TEST(AutogradTest, RowsGradientAccumulates) {
  Rng rng(5);
  Var table = MakeParam(Tensor::RandomUniform({4, 3}, 1.0f, &rng));
  std::vector<int> idx = {1, 1, -1, 2};
  CheckGradient(table, [&] { return Mean(Rows(table, idx)); });
  // Padding rows contribute zero values.
  Var out = Rows(table, idx);
  EXPECT_FLOAT_EQ(out->value.at(2, 0), 0.0f);
}

TEST(AutogradTest, ConcatAndSliceGradient) {
  Rng rng(6);
  Var a = MakeParam(Tensor::RandomUniform({2, 2}, 1.0f, &rng));
  Var b = MakeParam(Tensor::RandomUniform({2, 3}, 1.0f, &rng));
  CheckGradient(a, [&] { return Mean(ConcatCols({a, b})); });
  CheckGradient(b, [&] { return Mean(SliceCols(ConcatCols({a, b}), 1, 3)); });
}

TEST(AutogradTest, MaxOverTimeGradient) {
  Rng rng(7);
  Var a = MakeParam(Tensor::RandomUniform({5, 3}, 1.0f, &rng));
  CheckGradient(a, [&] { return Mean(MaxOverTime(a)); });
}

TEST(AutogradTest, UnfoldGradient) {
  Rng rng(8);
  Var a = MakeParam(Tensor::RandomUniform({6, 2}, 1.0f, &rng));
  CheckGradient(a, [&] { return Mean(Unfold(a, 3)); });
  Var u = Unfold(a, 3);
  EXPECT_EQ(u->value.rows(), 4);
  EXPECT_EQ(u->value.cols(), 6);
  // Window content matches the source.
  EXPECT_FLOAT_EQ(u->value.at(1, 0), a->value.at(1, 0));
  EXPECT_FLOAT_EQ(u->value.at(1, 5), a->value.at(3, 1));
}

TEST(AutogradTest, BlendRowsGradient) {
  Rng rng(9);
  Var a = MakeParam(Tensor::RandomUniform({3, 2}, 1.0f, &rng));
  Var b = MakeParam(Tensor::RandomUniform({3, 2}, 1.0f, &rng));
  std::vector<bool> mask = {true, false, true};
  CheckGradient(a, [&] { return Mean(BlendRows(a, b, mask)); });
  CheckGradient(b, [&] { return Mean(BlendRows(a, b, mask)); });
  Var out = BlendRows(a, b, mask);
  EXPECT_FLOAT_EQ(out->value.at(1, 0), b->value.at(1, 0));
  EXPECT_FLOAT_EQ(out->value.at(0, 0), a->value.at(0, 0));
}

TEST(AutogradTest, SoftmaxCrossEntropyGradient) {
  Rng rng(10);
  Var logits = MakeParam(Tensor::RandomUniform({3, 4}, 1.0f, &rng));
  std::vector<int> labels = {0, 2, 3};
  CheckGradient(logits, [&] { return SoftmaxCrossEntropy(logits, labels); });
}

TEST(AutogradTest, SoftmaxProbsSumToOne) {
  Rng rng(11);
  Var logits = MakeParam(Tensor::RandomUniform({2, 5}, 2.0f, &rng));
  Tensor probs;
  SoftmaxCrossEntropy(logits, {1, 3}, &probs);
  for (int i = 0; i < 2; ++i) {
    float sum = 0.0f;
    for (int j = 0; j < 5; ++j) sum += probs.at(i, j);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(AutogradTest, HuberLossGradient) {
  Rng rng(12);
  Var pred = MakeParam(Tensor::RandomUniform({4, 1}, 3.0f, &rng));
  std::vector<float> targets = {0.0f, 1.0f, -2.0f, 5.0f};
  CheckGradient(pred, [&] { return HuberLoss(pred, targets); });
}

TEST(AutogradTest, HuberIsL2InsideDeltaL1Outside) {
  Var pred = MakeParam(Tensor::Full({1, 1}, 0.5f));
  Var loss_small = HuberLoss(pred, {0.0f}, 1.0f);
  EXPECT_NEAR(loss_small->value.at(0), 0.5f * 0.25f, 1e-6f);
  Var pred2 = MakeParam(Tensor::Full({1, 1}, 3.0f));
  Var loss_large = HuberLoss(pred2, {0.0f}, 1.0f);
  EXPECT_NEAR(loss_large->value.at(0), 3.0f - 0.5f, 1e-6f);
}

TEST(AutogradTest, SquaredLossGradient) {
  Rng rng(13);
  Var pred = MakeParam(Tensor::RandomUniform({3, 1}, 2.0f, &rng));
  std::vector<float> targets = {1.0f, -1.0f, 0.5f};
  CheckGradient(pred, [&] { return SquaredLoss(pred, targets); });
}

TEST(AutogradTest, DropoutIdentityInEval) {
  Rng rng(14);
  Var a = MakeParam(Tensor::Full({2, 3}, 1.0f));
  Var out = Dropout(a, 0.5f, /*training=*/false, &rng);
  EXPECT_EQ(out.get(), a.get());
}

TEST(AutogradTest, DropoutPreservesExpectation) {
  Rng rng(15);
  Var a = MakeConst(Tensor::Full({1, 10000}, 1.0f));
  Var out = Dropout(a, 0.4f, /*training=*/true, &rng);
  double sum = 0.0;
  for (size_t i = 0; i < out->value.size(); ++i) sum += out->value.data()[i];
  EXPECT_NEAR(sum / 10000.0, 1.0, 0.05);
}

TEST(AutogradTest, GradAccumulatesAcrossSharedUse) {
  // f = mean(a + a) -> df/da = 2/n per element.
  Var a = MakeParam(Tensor::Full({2, 2}, 1.0f));
  Var loss = Mean(Add(a, a));
  ZeroGrad({a});
  Backward(loss);
  EXPECT_NEAR(a->grad.at(0, 0), 2.0f / 4.0f, 1e-6f);
}

TEST(AutogradTest, DeepChainDoesNotOverflow) {
  // 10k-node chain exercises the iterative topological sort.
  Var x = MakeParam(Tensor::Full({1, 1}, 0.01f));
  Var y = x;
  for (int i = 0; i < 10000; ++i) y = Scale(y, 1.0001f);
  Backward(Mean(y));
  EXPECT_GT(x->grad.at(0), 0.0f);
}

// ---------------------------------------------------------------------------
// Layers
// ---------------------------------------------------------------------------

TEST(LayersTest, LinearShapes) {
  Rng rng(20);
  Linear lin(4, 3, &rng);
  Var x = MakeConst(Tensor::Full({2, 4}, 1.0f));
  Var y = lin.Apply(x);
  EXPECT_EQ(y->value.rows(), 2);
  EXPECT_EQ(y->value.cols(), 3);
  EXPECT_EQ(lin.Params().size(), 2u);
}

TEST(LayersTest, EmbeddingLookup) {
  Rng rng(21);
  Embedding emb(10, 4, &rng);
  Var out = emb.Lookup({3, 7, -1});
  EXPECT_EQ(out->value.rows(), 3);
  EXPECT_EQ(out->value.cols(), 4);
  EXPECT_FLOAT_EQ(out->value.at(2, 0), 0.0f);
  EXPECT_FLOAT_EQ(out->value.at(0, 1), emb.table->value.at(3, 1));
}

TEST(LayersTest, LstmStepShapesAndStateMasking) {
  Rng rng(22);
  LstmLayer layer(4, 6, &rng);
  auto state = layer.InitialState(3);
  Var x = MakeConst(Tensor::Full({3, 4}, 0.5f));
  auto next = layer.Step(x, state, {true, true, false});
  EXPECT_EQ(next.h->value.rows(), 3);
  EXPECT_EQ(next.h->value.cols(), 6);
  // Inactive row 2 keeps its zero initial state.
  for (int j = 0; j < 6; ++j) {
    EXPECT_FLOAT_EQ(next.h->value.at(2, j), 0.0f);
    EXPECT_NE(next.h->value.at(0, j), 0.0f);
  }
}

TEST(LayersTest, LstmForgetBiasInitialized) {
  Rng rng(23);
  LstmLayer layer(2, 3, &rng);
  // Gate block order: u, f, o, g. Forget block = columns [3, 6).
  EXPECT_FLOAT_EQ(layer.input_map.bias->value.at(0, 4), 1.0f);
  EXPECT_FLOAT_EQ(layer.input_map.bias->value.at(0, 0), 0.0f);
}

TEST(LayersTest, LstmStackRuns) {
  Rng rng(24);
  LstmStack stack(4, 5, 3, &rng);
  EXPECT_EQ(stack.layers.size(), 3u);
  EXPECT_EQ(stack.Params().size(), 9u);
  std::vector<Var> steps = {MakeConst(Tensor::Full({2, 4}, 0.1f)),
                            MakeConst(Tensor::Full({2, 4}, 0.2f))};
  std::vector<std::vector<bool>> active = {{true, true}, {true, false}};
  Var h = stack.Run(steps, active);
  EXPECT_EQ(h->value.rows(), 2);
  EXPECT_EQ(h->value.cols(), 5);
}

TEST(LayersTest, LstmGradientFlowsToEmbedding) {
  Rng rng(25);
  Embedding emb(8, 4, &rng);
  LstmStack stack(4, 5, 2, &rng);
  std::vector<Var> steps;
  std::vector<std::vector<bool>> active;
  for (int t = 0; t < 3; ++t) {
    steps.push_back(emb.Lookup({t, t + 1}));
    active.push_back({true, true});
  }
  Var h = stack.Run(steps, active);
  Var loss = Mean(h);
  auto params = stack.Params();
  params.push_back(emb.table);
  ZeroGrad(params);
  Backward(loss);
  double norm = 0.0;
  for (size_t i = 0; i < emb.table->grad.size(); ++i) {
    norm += std::fabs(emb.table->grad.data()[i]);
  }
  EXPECT_GT(norm, 0.0);
}

// ---------------------------------------------------------------------------
// Optimizers
// ---------------------------------------------------------------------------

// Minimizes (w - 3)^2 with each optimizer; all should converge near 3.
template <typename Opt, typename... Args>
float Optimize(int steps, Args... args) {
  Var w = MakeParam(Tensor::Zeros({1, 1}));
  Opt opt({w}, args...);
  for (int i = 0; i < steps; ++i) {
    opt.ZeroGrad();
    Var loss = SquaredLoss(w, {3.0f});
    Backward(loss);
    opt.Step();
  }
  return w->value.at(0);
}

TEST(OptimTest, SgdConverges) {
  EXPECT_NEAR(Optimize<Sgd>(200, 0.5f), 3.0f, 1e-2f);
}

TEST(OptimTest, AdamConverges) {
  EXPECT_NEAR(Optimize<Adam>(800, 0.05f), 3.0f, 5e-2f);
}

TEST(OptimTest, AdaMaxConverges) {
  EXPECT_NEAR(Optimize<AdaMax>(800, 0.05f), 3.0f, 5e-2f);
}

TEST(OptimTest, WeightDecayShrinksWeights) {
  Var w = MakeParam(Tensor::Full({1, 1}, 1.0f));
  Sgd opt({w}, 0.1f, /*weight_decay=*/0.5f);
  opt.ZeroGrad();  // zero gradient: only decay acts
  opt.Step();
  EXPECT_LT(w->value.at(0), 1.0f);
}

TEST(OptimTest, ClipGradNorm) {
  Var w = MakeParam(Tensor::Full({1, 4}, 0.0f));
  w->EnsureGrad().Fill(3.0f);  // norm = 6
  const float norm = ClipGradNorm({w}, 1.0f);
  EXPECT_NEAR(norm, 6.0f, 1e-4f);
  double clipped = 0.0;
  for (int i = 0; i < 4; ++i) {
    clipped += static_cast<double>(w->grad.at(i)) * w->grad.at(i);
  }
  EXPECT_NEAR(std::sqrt(clipped), 1.0f, 1e-3f);
}

TEST(OptimTest, ClipDisabledWhenMaxNormZero) {
  Var w = MakeParam(Tensor::Full({1, 2}, 0.0f));
  w->EnsureGrad().Fill(5.0f);
  ClipGradNorm({w}, 0.0f);
  EXPECT_FLOAT_EQ(w->grad.at(0), 5.0f);
}

// ---------------------------------------------------------------------------
// End-to-end: tiny classifier learns a separable problem
// ---------------------------------------------------------------------------

TEST(TrainingTest, TinyMlpLearnsXorLikeTask) {
  Rng rng(30);
  Linear l1(2, 8, &rng);
  Linear l2(8, 2, &rng);
  std::vector<Var> params;
  for (auto& p : l1.Params()) params.push_back(p);
  for (auto& p : l2.Params()) params.push_back(p);
  Adam opt(params, 0.05f);

  // XOR data.
  Tensor x({4, 2});
  x.at(0, 0) = 0;
  x.at(0, 1) = 0;
  x.at(1, 0) = 0;
  x.at(1, 1) = 1;
  x.at(2, 0) = 1;
  x.at(2, 1) = 0;
  x.at(3, 0) = 1;
  x.at(3, 1) = 1;
  std::vector<int> y = {0, 1, 1, 0};

  float final_loss = 1e9f;
  for (int step = 0; step < 500; ++step) {
    opt.ZeroGrad();
    Var logits = l2.Apply(Tanh(l1.Apply(MakeConst(x))));
    Var loss = SoftmaxCrossEntropy(logits, y);
    Backward(loss);
    opt.Step();
    final_loss = loss->value.at(0);
  }
  EXPECT_LT(final_loss, 0.1f);
}

TEST(TrainingTest, LstmLearnsToCountTokens) {
  // Sequences of token 1 repeated k times (k in 1..4); predict k-1.
  Rng rng(31);
  Embedding emb(3, 4, &rng);
  LstmStack stack(4, 8, 1, &rng);
  Linear head(8, 4, &rng);
  std::vector<Var> params = stack.Params();
  for (auto& p : emb.Params()) params.push_back(p);
  for (auto& p : head.Params()) params.push_back(p);
  AdaMax opt(params, 0.02f);

  float final_loss = 1e9f;
  for (int step = 0; step < 300; ++step) {
    // Batch of 4 sequences, padded to length 4.
    std::vector<std::vector<bool>> active(4, std::vector<bool>(4));
    std::vector<Var> steps;
    std::vector<int> labels = {0, 1, 2, 3};
    for (int t = 0; t < 4; ++t) {
      std::vector<int> ids(4);
      for (int s = 0; s < 4; ++s) {
        const bool a = t <= s;
        active[t][s] = a;
        ids[s] = a ? 1 : -1;
      }
      steps.push_back(emb.Lookup(ids));
    }
    opt.ZeroGrad();
    Var h = stack.Run(steps, active);
    Var loss = SoftmaxCrossEntropy(head.Apply(h), labels);
    Backward(loss);
    ClipGradNorm(params, 5.0f);
    opt.Step();
    final_loss = loss->value.at(0);
  }
  EXPECT_LT(final_loss, 0.25f);
}

// ---------------------------------------------------------------------------
// Fused LSTM op
// ---------------------------------------------------------------------------

// The fused LstmSequence op must agree with the layer-by-layer autograd
// graph: same forward values, same parameter gradients (up to accumulation
// order), on a variable-length padded batch with multiple layers.
TEST(LstmFusedTest, MatchesLayerByLayerForwardAndGradients) {
  Rng rng(31);
  Embedding emb(10, 4, &rng);
  LstmStack stack(4, 6, 2, &rng);
  const std::vector<std::vector<int>> seqs = {{1, 2, 3}, {4, 5}};
  const int max_len = 3;
  const int batch = 2;

  auto params = stack.Params();
  params.push_back(emb.table);

  // Layer-by-layer reference.
  ZeroGrad(params);
  std::vector<Var> steps;
  std::vector<std::vector<bool>> active;
  for (int t = 0; t < max_len; ++t) {
    std::vector<int> ids(batch);
    std::vector<bool> act(batch);
    for (int b = 0; b < batch; ++b) {
      const bool a = t < static_cast<int>(seqs[b].size());
      act[b] = a;
      ids[b] = a ? seqs[b][t] : -1;
    }
    steps.push_back(emb.Lookup(ids));
    active.push_back(act);
  }
  Var h_ref = stack.Run(steps, active);
  Var loss_ref = Mean(h_ref);
  Backward(loss_ref);
  const Tensor h_ref_value = h_ref->value;
  std::vector<Tensor> ref_grads;
  for (const auto& p : params) ref_grads.push_back(p->grad);

  // Fused op.
  ZeroGrad(params);
  std::vector<int> step_ids(static_cast<size_t>(max_len) * batch, -1);
  std::vector<int> lens(batch);
  for (int b = 0; b < batch; ++b) {
    lens[b] = static_cast<int>(seqs[b].size());
    for (size_t t = 0; t < seqs[b].size(); ++t) {
      step_ids[t * batch + b] = seqs[b][t];
    }
  }
  Var h_fused = LstmSequence(emb.table, stack, step_ids, lens, max_len);
  Var loss_fused = Mean(h_fused);
  Backward(loss_fused);
  ThreadLocalTrainArena().Reset();

  ASSERT_TRUE(h_fused->value.SameShape(h_ref_value));
  for (size_t i = 0; i < h_ref_value.size(); ++i) {
    EXPECT_NEAR(h_fused->value.data()[i], h_ref_value.data()[i], 1e-6f)
        << "hidden element " << i;
  }
  for (size_t pi = 0; pi < params.size(); ++pi) {
    const Tensor& ref = ref_grads[pi];
    const Tensor& fused = params[pi]->grad;
    ASSERT_TRUE(fused.SameShape(ref)) << "param " << pi;
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_NEAR(fused.data()[i], ref.data()[i],
                  1e-4f * std::max(1.0f, std::fabs(ref.data()[i])))
          << "param " << pi << " element " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Graph-free inference kernels
// ---------------------------------------------------------------------------

// The Kim-CNN forward (embedding -> unfold -> conv -> Relu -> max-over-time
// -> concat -> head) through the nn::infer kernels that serve and validate
// CnnModel must reproduce the autograd graph its training step builds, bit
// for bit, under either SIMD dispatch. Sequences include -1 padding (zero
// rows) and lengths that equal the widest window.
TEST(InferTest, KimCnnForwardMatchesAutogradBitwise) {
  const bool saved_simd = simd::Enabled();
  const int vocab = 20, d = 5, outputs = 3;
  const std::vector<int> widths = {2, 3, 4};
  const std::vector<std::vector<int>> queries = {
      {1, 4, 7, 2, 9, 3, 0, 11},
      {5, -1, -1, -1},
      {8, 8, 19, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 17, 8, 8, 8, 8, 8, 8, 8, 8, 2}};
  // 6 kernels run only the scalar column tail of the AVX2 conv matmul; 20
  // also run two 8-column register groups.
  for (const int kernels : {6, 20}) {
    Rng rng(41);
    const int feat_dim = static_cast<int>(widths.size()) * kernels;
    Embedding emb(vocab, d, &rng);
    std::vector<Linear> convs;
    for (int w : widths) convs.emplace_back(w * d, kernels, &rng);
    Linear head(feat_dim, outputs, &rng);
    for (bool simd_on : {false, true}) {
      if (simd_on && !simd::HasAvx2()) continue;
      simd::SetEnabled(simd_on);
      for (const auto& ids : queries) {
        const Var e = emb.Lookup(ids);
        std::vector<Var> pooled;
        for (size_t w = 0; w < widths.size(); ++w) {
          pooled.push_back(MaxOverTime(
              Relu(convs[w].Apply(Unfold(e, widths[w])))));
        }
        const Var graph = head.Apply(ConcatCols(pooled));

        const int t = static_cast<int>(ids.size());
        std::vector<float> x(static_cast<size_t>(t) * d);
        infer::GatherRows(emb.table->value.data(), d, ids.data(), t,
                          x.data());
        std::vector<float> features(feat_dim);
        for (size_t w = 0; w < widths.size(); ++w) {
          const int rows = t - widths[w] + 1;
          const int wd = widths[w] * d;
          std::vector<float> windows(static_cast<size_t>(rows) * wd);
          infer::Unfold(x.data(), t, d, widths[w], windows.data());
          std::vector<float> conv(static_cast<size_t>(rows) * kernels);
          infer::MatMul(windows.data(), convs[w].weight->value.data(),
                        conv.data(), rows, wd, kernels);
          infer::BiasAdd(conv.data(), convs[w].bias->value.data(), rows,
                         kernels);
          simd::Relu(conv.data(), conv.size());
          simd::MaxOverTime(conv.data(), 0, static_cast<size_t>(rows),
                            kernels, features.data() + w * kernels, nullptr);
        }
        std::vector<float> logits(outputs);
        infer::MatMul(features.data(), head.weight->value.data(),
                      logits.data(), 1, feat_dim, outputs);
        infer::BiasAdd(logits.data(), head.bias->value.data(), 1, outputs);

        ASSERT_EQ(graph->value.size(), logits.size());
        for (int j = 0; j < outputs; ++j) {
          EXPECT_EQ(graph->value.data()[j], logits[j])
              << "logit " << j << " simd=" << simd_on << " length " << t
              << " kernels " << kernels;
        }
      }
    }
  }
  simd::SetEnabled(saved_simd);
}

// ---------------------------------------------------------------------------
// Tape pooling and sharded training steps
// ---------------------------------------------------------------------------

// Nodes built inside a TapeScope are recycled by the next scope on the same
// thread: the steady-state training step allocates no graph nodes.
TEST(TapeTest, ScopeRecyclesNodes) {
  Var a = MakeParam(Tensor::Full({2, 3}, 0.5f));
  const Variable* first_node = nullptr;
  float first_value = 0.0f;
  {
    TapeScope tape;
    Var s = Sigmoid(a);
    first_node = s.get();
    first_value = s->value.at(0, 0);
  }
  {
    TapeScope tape;
    Var s = Sigmoid(a);
    EXPECT_EQ(s.get(), first_node) << "node was not recycled";
    EXPECT_FLOAT_EQ(s->value.at(0, 0), first_value);
    // Recycled node must behave like a fresh one in backward.
    ZeroGrad({a});
    Backward(Mean(s));
    double norm = 0.0;
    for (size_t i = 0; i < a->grad.size(); ++i) {
      norm += std::fabs(a->grad.data()[i]);
    }
    EXPECT_GT(norm, 0.0);
  }
}

// A sharded training step must produce the same gradients and loss as one
// full-batch graph (up to float accumulation order).
TEST(DataParallelTest, ShardedStepMatchesFullBatchGradients) {
  Rng rng(17);
  const int batch = 10;
  const int dim = 6;
  Var w = MakeParam(Tensor::Glorot(dim, 1, &rng));
  Tensor x = Tensor::RandomUniform({batch, dim}, 1.0f, &rng);
  std::vector<float> targets;
  for (int i = 0; i < batch; ++i) {
    targets.push_back(std::sin(static_cast<float>(i)));
  }
  const std::vector<Var> params = {w};

  // Full-batch reference.
  ZeroGrad(params);
  Var full_loss = SquaredLoss(MatMul(MakeConst(x), w), targets);
  Backward(full_loss);
  const Tensor ref_grad = w->grad;
  const float ref_loss = full_loss->value.at(0, 0);

  // Sharded step: 4 shards over 10 rows.
  GradShards shards;
  shards.Prepare(params, 4);
  ZeroGrad(params);
  const double sharded_loss = ShardedTrainStep(
      params, &shards, batch, 4, [&](size_t, size_t b, size_t e) {
        const int rows = static_cast<int>(e - b);
        Tensor slice({rows, dim});
        std::vector<float> slice_targets;
        for (int r = 0; r < rows; ++r) {
          for (int c = 0; c < dim; ++c) {
            slice.at(r, c) = x.at(static_cast<int>(b) + r, c);
          }
          slice_targets.push_back(targets[b + r]);
        }
        Var loss = SquaredLoss(MatMul(MakeConst(slice), w), slice_targets);
        return Scale(loss, static_cast<float>(rows) / batch);
      });

  EXPECT_NEAR(sharded_loss, ref_loss, 1e-5);
  for (size_t i = 0; i < ref_grad.size(); ++i) {
    EXPECT_NEAR(w->grad.data()[i], ref_grad.data()[i],
                1e-5f * std::max(1.0f, std::fabs(ref_grad.data()[i])))
        << "grad element " << i;
  }
}

}  // namespace
}  // namespace sqlfacil::nn
