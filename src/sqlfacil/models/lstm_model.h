#ifndef SQLFACIL_MODELS_LSTM_MODEL_H_
#define SQLFACIL_MODELS_LSTM_MODEL_H_

#include "sqlfacil/models/model.h"
#include "sqlfacil/models/train_state.h"
#include "sqlfacil/models/vocab.h"
#include "sqlfacil/nn/layers.h"
#include "sqlfacil/nn/lstm_fused.h"
#include "sqlfacil/nn/optim.h"

namespace sqlfacil::nn {
class Arena;
}  // namespace sqlfacil::nn

namespace sqlfacil::models {

/// The three-layer LSTM of Section 5.2 (Figure 18): token embeddings fed
/// through a stacked LSTM; the top layer's final hidden state is the query
/// representation, mapped by a linear unit to class logits (softmax +
/// cross-entropy) or a scalar (Huber). Trained with AdaMax; batches are
/// length-bucketed and padded with state masking. Outside training, layer
/// 0's embedding and input transform are one exact token -> gate table
/// (nn::BuildLstmXTable) that the model rebuilds whenever its weights
/// change and both inference tiers read.
class LstmModel : public Model {
 public:
  struct Config {
    sql::Granularity granularity = sql::Granularity::kChar;
    size_t max_vocab = 5000;
    size_t max_len_char = 160;
    size_t max_len_word = 56;
    int embed_dim = 12;
    int hidden_dim = 32;
    int num_layers = 3;
    float lr = 2e-3f;
    float clip_norm = 0.25f;
    int epochs = 3;
    int batch_size = 16;
    float huber_delta = 1.0f;
    /// Upper bound on microbatch shards per training step. Shard boundaries
    /// depend only on (batch size, this cap), so trained weights are
    /// bit-identical at any SQLFACIL_THREADS setting.
    int train_shards = 8;
    /// Crash-safe training snapshots (empty dir disables).
    SnapshotOptions snapshot;
  };

  explicit LstmModel(Config config) : config_(std::move(config)) {}

  std::string name() const override {
    return config_.granularity == sql::Granularity::kChar ? "clstm" : "wlstm";
  }
  void Fit(const Dataset& train, const Dataset& valid, Rng* rng) override;
  std::vector<float> Predict(const std::string& statement,
                             double opt_cost) const override;
  /// Batched fast path: queries are length-bucketed (stable sort by encoded
  /// length, fixed bucket size), so every bucket holds its rows in
  /// ascending length order, and each bucket runs a fused graph-free
  /// forward with all temporaries in a per-thread arena. The forward steps
  /// each distinct token prefix of a bucket once (nn::LstmForward's plan):
  /// rows that share a prefix share its state, and no padded step is ever
  /// computed. Predict is a batch of one; the bucket partition never
  /// changes a result because every state is a function of its row's
  /// prefix alone.
  std::vector<std::vector<float>> PredictBatch(
      std::span<const std::string> statements,
      std::span<const double> opt_costs = {}) const override;
  size_t vocab_size() const override { return vocab_.size(); }
  size_t num_parameters() const override;
  /// Builds the int8 tier (nn/lstm_fused.h QuantLstmStack): runs the fp32
  /// inference path over `calibration` to find max|h| (one shared u8 hidden
  /// scale) and quantizes the recurrent, stacked, and head weights; layer
  /// 0's input transform stays the exact token -> gate table. Fit drops the
  /// tier.
  Status Quantize(std::span<const std::string> calibration) override;
  /// True when the int8 tier is built, i.e. when Predict serves int8.
  bool quantized() const { return quant_.ready(); }
  /// max|h| / 127 from the last calibration (0 when unquantized).
  float hidden_scale() const { return hidden_scale_; }
  /// Validation-loss trajectory of the last Fit (one entry per epoch).
  const std::vector<double>& valid_history() const { return valid_history_; }
  Status SaveTo(std::ostream& out) const override;
  Status LoadFrom(std::istream& in) override;

 private:
  size_t MaxLen() const {
    return config_.granularity == sql::Granularity::kChar
               ? config_.max_len_char
               : config_.max_len_word;
  }
  /// The graph-free forward of one bucket up to the logits: seqs[0..batch)
  /// are encoded statements (>= 1 token each) in ascending length order
  /// (ForEachBucket's order), and the (batch x outputs_) row-major logits
  /// land in `logits`; temporaries come from `arena` (caller resets it).
  /// Runs nn::LstmForward on the fp32 weights, or nn::LstmInt8Forward on
  /// the int8 tier (quant_ must be ready); both step each distinct prefix
  /// once and read x_table_ for layer 0. When `max_abs_h` is non-null, the
  /// fp32 forward also accumulates max|h| over every computed hidden state
  /// (all layers, all steps) — the int8 tier's activation calibration.
  void BucketLogits(const std::vector<int>* const* seqs, int batch, bool int8,
                    nn::Arena* arena, float* logits,
                    float* max_abs_h = nullptr) const;
  /// Refolds x_table_ from the current embedding and layer-0 weights.
  void RebuildXTable();
  std::vector<nn::Var> Params() const;
  /// Mean validation loss from BucketLogits on the fp32 tier.
  double ValidLoss(const Dataset& valid,
                   const std::vector<std::vector<int>>& encoded) const;

  Config config_;
  TaskKind kind_ = TaskKind::kClassification;
  int outputs_ = 1;
  Vocabulary vocab_;
  nn::Embedding embedding_;
  nn::LstmStack stack_;
  nn::Linear head_;
  /// Layer 0's token -> gate table (vocab x 4H) for the current weights.
  std::vector<float> x_table_;
  std::vector<double> valid_history_;
  nn::QuantLstmStack quant_;
  float hidden_scale_ = 0.0f;
};

}  // namespace sqlfacil::models

#endif  // SQLFACIL_MODELS_LSTM_MODEL_H_
