#ifndef SQLFACIL_NN_LAYERS_H_
#define SQLFACIL_NN_LAYERS_H_

#include <vector>

#include "sqlfacil/nn/autograd.h"

namespace sqlfacil::nn {

class Arena;

/// Affine map x @ W + b with W (in x out), b (1 x out), Glorot init.
struct Linear {
  Linear() = default;
  Linear(int in, int out, Rng* rng);

  Var Apply(const Var& x) const;
  /// Graph-free Apply on `rows` row-major inputs: the (rows x out) result
  /// in `arena`, bit-identical to Apply's value (nn::infer kernels).
  float* Apply(const float* x, int rows, Arena* arena) const;
  std::vector<Var> Params() const { return {weight, bias}; }

  Var weight;
  Var bias;
};

/// Token embedding table (vocab x dim), Uniform(-0.1, 0.1) init. Index -1
/// (padding) maps to a zero row with no gradient.
struct Embedding {
  Embedding() = default;
  Embedding(int vocab, int dim, Rng* rng);

  Var Lookup(const std::vector<int>& token_ids) const;
  std::vector<Var> Params() const { return {table}; }

  Var table;
};

/// One LSTM layer (Appendix A.2 formulation from [58]): gates computed from
/// the concatenated (x, h_prev) slab via a single fused affine map.
struct LstmLayer {
  LstmLayer() = default;
  LstmLayer(int input_dim, int hidden_dim, Rng* rng);

  struct State {
    Var h;
    Var c;
  };

  /// Initial zero state for a batch of b rows.
  State InitialState(int batch) const;

  /// One step over a (batch x input_dim) slab; `active` marks rows that
  /// carry a real (non-pad) token this step — padded rows keep their state.
  State Step(const Var& x, const State& prev,
             const std::vector<bool>& active) const;

  std::vector<Var> Params() const;

  int hidden_dim = 0;
  // Gate order: [update(i), forget(f), output(o), candidate(g)].
  Linear input_map;   // (input_dim x 4H)
  Linear hidden_map;  // (hidden_dim x 4H), bias folded into input_map
};

/// A stack of LSTM layers; layer l feeds layer l+1 (Figure 18).
struct LstmStack {
  LstmStack() = default;
  LstmStack(int input_dim, int hidden_dim, int num_layers, Rng* rng);

  /// Runs the stack over an embedded batch: steps[t] is the (B x d) slab at
  /// time t, active[t][i] tells whether sample i has a token at t. Returns
  /// the top layer's final hidden state (B x H).
  Var Run(const std::vector<Var>& steps,
          const std::vector<std::vector<bool>>& active) const;

  std::vector<Var> Params() const;

  std::vector<LstmLayer> layers;
};

/// Slices the gate block [4H] produced by the fused affine map into the
/// four (B x H) gate slabs. Exposed for tests.
std::vector<Var> SplitGates(const Var& fused, int hidden_dim);

}  // namespace sqlfacil::nn

#endif  // SQLFACIL_NN_LAYERS_H_
