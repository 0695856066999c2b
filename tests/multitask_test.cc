#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "sqlfacil/models/cnn_model.h"
#include "sqlfacil/models/multitask_model.h"

namespace sqlfacil::models {
namespace {

// Statements whose class, cpu, and answer labels are all decided by the
// same underlying signal (the table mentioned) — the correlated-label
// regime that motivates multi-task learning.
MultiTaskDataset MakeMultiSet(int n, Rng* rng) {
  MultiTaskDataset d;
  d.num_error_classes = 2;
  for (int i = 0; i < n; ++i) {
    const bool big = rng->Bernoulli(0.5);
    std::string stmt =
        big ? "SELECT * FROM Galaxy WHERE r < " + std::to_string(i % 30)
            : "SELECT objid FROM Star WHERE objid = " + std::to_string(i);
    d.statements.push_back(std::move(stmt));
    d.error_labels.push_back(big ? 1 : 0);
    d.cpu_targets.push_back(big ? 4.0f : 1.0f);
    d.answer_targets.push_back(big ? 6.0f : 0.0f);
  }
  return d;
}

MultiTaskCnnModel::Config SmallConfig() {
  MultiTaskCnnModel::Config config;
  config.epochs = 6;
  config.lr = 0.02f;
  config.kernels_per_width = 12;
  config.embed_dim = 8;
  return config;
}

TEST(MultiTaskTest, LearnsAllThreeTasks) {
  Rng rng(1);
  auto train = MakeMultiSet(160, &rng);
  auto valid = MakeMultiSet(40, &rng);
  MultiTaskCnnModel model(SmallConfig());
  model.Fit(train, valid, &rng);

  int correct = 0;
  double cpu_err = 0, answer_err = 0;
  for (size_t i = 0; i < valid.size(); ++i) {
    auto pred = model.Predict(valid.statements[i]);
    const int argmax = pred.error_probs[1] > pred.error_probs[0] ? 1 : 0;
    correct += (argmax == valid.error_labels[i]);
    cpu_err += std::fabs(pred.cpu - valid.cpu_targets[i]);
    answer_err += std::fabs(pred.answer - valid.answer_targets[i]);
  }
  EXPECT_GT(correct, 36);  // > 90% of 40
  EXPECT_LT(cpu_err / valid.size(), 0.8);
  EXPECT_LT(answer_err / valid.size(), 1.5);
}

TEST(MultiTaskTest, MissingLabelsSkipped) {
  Rng rng(2);
  auto train = MakeMultiSet(80, &rng);
  // Blank out labels for half the rows; training must still work.
  for (size_t i = 0; i < train.size(); i += 2) {
    train.error_labels[i] = -1;
    train.cpu_targets[i] = std::nanf("");
  }
  auto valid = MakeMultiSet(20, &rng);
  MultiTaskCnnModel::Config config = SmallConfig();
  config.epochs = 2;
  MultiTaskCnnModel model(config);
  model.Fit(train, valid, &rng);
  auto pred = model.Predict("SELECT * FROM Galaxy WHERE r < 5");
  EXPECT_EQ(pred.error_probs.size(), 2u);
  EXPECT_NEAR(pred.error_probs[0] + pred.error_probs[1], 1.0, 1e-4);
}

TEST(MultiTaskTest, SharedEncoderSmallerThanThreeSingles) {
  Rng rng(3);
  auto train = MakeMultiSet(60, &rng);
  MultiTaskCnnModel::Config config = SmallConfig();
  config.epochs = 1;
  MultiTaskCnnModel multi(config);
  multi.Fit(train, train, &rng);

  CnnModel::Config single_config;
  single_config.epochs = 1;
  single_config.kernels_per_width = config.kernels_per_width;
  single_config.embed_dim = config.embed_dim;
  Dataset single;
  single.kind = TaskKind::kClassification;
  single.num_classes = 2;
  single.statements = train.statements;
  single.labels = train.error_labels;
  single.opt_costs.assign(train.size(), 0.0);
  CnnModel one(single_config);
  one.Fit(single, single, &rng);

  EXPECT_LT(multi.num_parameters(), 3 * one.num_parameters());
  EXPECT_GT(multi.num_parameters(), one.num_parameters());
}

// Predict is a batch of one through the graph-free trunk forward, so every
// slot of a two-slice batch must match it bit for bit: empty statements,
// statements past max_len, statements shorter than the widest window and
// duplicates included. The validation split holds rows with some and with
// all labels absent, and the best epoch's ValidLoss must be the mean over
// all rows of each row's summed present-task losses.
TEST(MultiTaskTest, PredictMatchesPredictBatchAndValidLossSkipsAbsentLabels) {
  Rng rng(5);
  auto train = MakeMultiSet(60, &rng);
  auto valid = MakeMultiSet(20, &rng);
  for (size_t i = 0; i < valid.size(); i += 3) valid.error_labels[i] = -1;
  for (size_t i = 1; i < valid.size(); i += 4) {
    valid.cpu_targets[i] = std::nanf("");
  }
  for (size_t i = 2; i < valid.size(); i += 5) {
    valid.answer_targets[i] = std::nanf("");
  }
  valid.error_labels[7] = -1;
  valid.cpu_targets[7] = std::nanf("");
  valid.answer_targets[7] = std::nanf("");
  MultiTaskCnnModel::Config config = SmallConfig();
  config.epochs = 2;
  config.max_len = 40;
  MultiTaskCnnModel model(config);
  model.Fit(train, valid, &rng);

  std::vector<std::string> batch = valid.statements;
  batch.push_back("");
  batch.push_back("SE");  // shorter than the widest window (5)
  batch.push_back(std::string(3 * config.max_len, 'x'));
  batch.push_back("SELECT * FROM Galaxy WHERE r < 3 AND objid IN (" +
                  std::string(2 * config.max_len, '7') + ")");
  for (int i = 0; i < 16; ++i) batch.push_back(valid.statements[i % 4]);
  ASSERT_GT(batch.size(), 32u);
  const auto preds = model.PredictBatch(batch);
  ASSERT_EQ(preds.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const auto one = model.Predict(batch[i]);
    ASSERT_EQ(one.error_probs.size(), 2u);
    ASSERT_EQ(preds[i].error_probs.size(), 2u);
    EXPECT_EQ(0, std::memcmp(one.error_probs.data(),
                             preds[i].error_probs.data(),
                             2 * sizeof(float)))
        << "slot " << i;
    EXPECT_EQ(0, std::memcmp(&one.cpu, &preds[i].cpu, sizeof(float)))
        << "slot " << i;
    EXPECT_EQ(0, std::memcmp(&one.answer, &preds[i].answer, sizeof(float)))
        << "slot " << i;
  }

  auto huber = [&](double r) {
    const double ar = std::fabs(r);
    const double delta = config.huber_delta;
    return ar <= delta ? 0.5 * r * r : delta * (ar - 0.5 * delta);
  };
  double total = 0.0;
  for (size_t i = 0; i < valid.size(); ++i) {
    if (valid.error_labels[i] >= 0) {
      total -= std::log(std::max(
          1e-12, double{preds[i].error_probs[valid.error_labels[i]]}));
    }
    if (!std::isnan(valid.cpu_targets[i])) {
      total += huber(preds[i].cpu - valid.cpu_targets[i]);
    }
    if (!std::isnan(valid.answer_targets[i])) {
      total += huber(preds[i].answer - valid.answer_targets[i]);
    }
  }
  const auto& history = model.valid_history();
  ASSERT_EQ(history.size(), 2u);
  const double best = *std::min_element(history.begin(), history.end());
  EXPECT_NEAR(best, total / static_cast<double>(valid.size()), 1e-4 * best);
}

// ---------------------------------------------------------------------------
// CnnModel::FineTune (transfer learning support)
// ---------------------------------------------------------------------------

// Runs once per precision tier: the int8 pass quantizes after Fit, and again
// after FineTune, which drops the tier built from the source weights.
TEST(FineTuneTest, ImprovesOnShiftedTask) {
  for (bool int8 : {false, true}) {
    SCOPED_TRACE(int8 ? "int8 tier" : "fp32 tier");
    Rng rng(4);
    // Source: targets {1, 3}. Target domain: same text signal, shifted
    // targets {2, 6}.
    Dataset source, target_train, target_valid;
    for (Dataset* d : {&source, &target_train, &target_valid}) {
      d->kind = TaskKind::kRegression;
    }
    auto fill = [&](Dataset* d, int n, float lo, float hi) {
      for (int i = 0; i < n; ++i) {
        const bool big = rng.Bernoulli(0.5);
        d->statements.push_back(
            big ? "SELECT * FROM Galaxy WHERE r < " + std::to_string(i % 20)
                : "SELECT objid FROM Star WHERE objid = " +
                      std::to_string(i));
        d->targets.push_back(big ? hi : lo);
        d->opt_costs.push_back(0);
      }
    };
    fill(&source, 200, 1.0f, 3.0f);
    fill(&target_train, 40, 2.0f, 6.0f);
    fill(&target_valid, 40, 2.0f, 6.0f);

    CnnModel::Config config;
    config.epochs = 6;
    config.lr = 0.02f;
    config.kernels_per_width = 12;
    config.embed_dim = 8;
    CnnModel model(config);
    model.Fit(source, source, &rng);
    if (int8) {
      ASSERT_TRUE(model.Quantize({}).ok());
    }

    auto mae = [&](const CnnModel& m) {
      double total = 0;
      for (size_t i = 0; i < target_valid.size(); ++i) {
        total += std::fabs(m.Predict(target_valid.statements[i], 0)[0] -
                           target_valid.targets[i]);
      }
      return total / target_valid.size();
    };
    const double before = mae(model);
    model.FineTune(target_train, target_valid, 6, &rng);
    if (int8) {
      ASSERT_TRUE(model.Quantize({}).ok());
    }
    const double after = mae(model);
    EXPECT_LT(after, before);
    EXPECT_LT(after, 1.0);
  }
}

}  // namespace
}  // namespace sqlfacil::models
