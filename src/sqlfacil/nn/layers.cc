#include "sqlfacil/nn/layers.h"

#include "sqlfacil/nn/arena.h"
#include "sqlfacil/nn/infer.h"
#include "sqlfacil/util/logging.h"

namespace sqlfacil::nn {

Linear::Linear(int in, int out, Rng* rng)
    : weight(MakeParam(Tensor::Glorot(in, out, rng))),
      bias(MakeParam(Tensor::Zeros({1, out}))) {}

Var Linear::Apply(const Var& x) const { return Add(MatMul(x, weight), bias); }

float* Linear::Apply(const float* x, int rows, Arena* arena) const {
  const int in = weight->value.rows();
  const int out = weight->value.cols();
  float* y = arena->Alloc(static_cast<size_t>(rows) * out);
  infer::MatMul(x, weight->value.data(), y, rows, in, out);
  infer::BiasAdd(y, bias->value.data(), rows, out);
  return y;
}

Embedding::Embedding(int vocab, int dim, Rng* rng)
    : table(MakeParam(Tensor::RandomUniform({vocab, dim}, 0.1f, rng))) {}

Var Embedding::Lookup(const std::vector<int>& token_ids) const {
  return Rows(table, token_ids);
}

LstmLayer::LstmLayer(int input_dim, int hidden_dim_in, Rng* rng)
    : hidden_dim(hidden_dim_in),
      input_map(input_dim, 4 * hidden_dim_in, rng),
      hidden_map(hidden_dim_in, 4 * hidden_dim_in, rng) {
  // Forget-gate bias init to 1 (standard trick for gradient flow). The
  // fused bias lives in input_map; hidden_map's bias is redundant but kept
  // zero-initialized (its gradient stays tied to the same gate block).
  for (int j = hidden_dim; j < 2 * hidden_dim; ++j) {
    input_map.bias->value.at(0, j) = 1.0f;
  }
}

LstmLayer::State LstmLayer::InitialState(int batch) const {
  // Pooled zero constants: no per-batch allocation once the tape warms up.
  return State{ZerosConst({batch, hidden_dim}),
               ZerosConst({batch, hidden_dim})};
}

std::vector<Var> SplitGates(const Var& fused, int hidden_dim) {
  std::vector<Var> gates;
  gates.reserve(4);
  for (int g = 0; g < 4; ++g) {
    gates.push_back(SliceCols(fused, g * hidden_dim, hidden_dim));
  }
  return gates;
}

LstmLayer::State LstmLayer::Step(const Var& x, const State& prev,
                                 const std::vector<bool>& active) const {
  // Fused gate pre-activations: x @ Wx + h @ Wh + b.
  Var fused = Add(input_map.Apply(x), MatMul(prev.h, hidden_map.weight));
  auto gates = SplitGates(fused, hidden_dim);
  Var gamma_u = Sigmoid(gates[0]);
  Var gamma_f = Sigmoid(gates[1]);
  Var gamma_o = Sigmoid(gates[2]);
  Var candidate = Tanh(gates[3]);
  Var c_new = Add(Mul(gamma_u, candidate), Mul(gamma_f, prev.c));
  Var h_new = Mul(gamma_o, Tanh(c_new));
  // Padded rows retain their previous state.
  bool all_active = true;
  for (bool a : active) all_active &= a;
  if (all_active) return State{h_new, c_new};
  return State{BlendRows(h_new, prev.h, active),
               BlendRows(c_new, prev.c, active)};
}

std::vector<Var> LstmLayer::Params() const {
  return {input_map.weight, input_map.bias, hidden_map.weight};
}

LstmStack::LstmStack(int input_dim, int hidden_dim, int num_layers,
                     Rng* rng) {
  SQLFACIL_CHECK(num_layers >= 1);
  layers.reserve(num_layers);
  for (int l = 0; l < num_layers; ++l) {
    layers.emplace_back(l == 0 ? input_dim : hidden_dim, hidden_dim, rng);
  }
}

Var LstmStack::Run(const std::vector<Var>& steps,
                   const std::vector<std::vector<bool>>& active) const {
  SQLFACIL_CHECK(!steps.empty());
  SQLFACIL_CHECK(steps.size() == active.size());
  const int batch = steps[0]->value.rows();
  std::vector<LstmLayer::State> states;
  states.reserve(layers.size());
  for (const auto& layer : layers) {
    states.push_back(layer.InitialState(batch));
  }
  for (size_t t = 0; t < steps.size(); ++t) {
    Var input = steps[t];
    for (size_t l = 0; l < layers.size(); ++l) {
      states[l] = layers[l].Step(input, states[l], active[t]);
      input = states[l].h;
    }
  }
  return states.back().h;
}

std::vector<Var> LstmStack::Params() const {
  std::vector<Var> params;
  for (const auto& layer : layers) {
    for (const auto& p : layer.Params()) params.push_back(p);
  }
  return params;
}

}  // namespace sqlfacil::nn
