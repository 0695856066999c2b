// Teacher-student distillation: soft-target loss correctness (one-hot
// equivalence with hard-label cross-entropy, finite-difference gradients),
// MakeSoftDataset blending/temperature properties, and end-to-end accuracy
// of distilled students vs from-scratch baselines on noisy labels.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "sqlfacil/models/cnn_model.h"
#include "sqlfacil/models/distill.h"
#include "sqlfacil/models/lstm_model.h"
#include "sqlfacil/models/tfidf_model.h"
#include "sqlfacil/nn/autograd.h"
#include "sqlfacil/util/random.h"
#include "sqlfacil/util/thread_pool.h"
#include "tiers.h"

namespace sqlfacil {
namespace {

using models::Dataset;
using models::DistillConfig;
using models::TaskKind;

/// Two-class SQL workload; `noise` flips that fraction of labels so a small
/// from-scratch student can overfit wrong labels while a teacher trained on
/// clean data provides a better signal.
Dataset SyntheticClassification(size_t n, uint64_t seed, double noise = 0.0) {
  Dataset data;
  data.kind = TaskKind::kClassification;
  data.num_classes = 2;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const bool agg = rng.Bernoulli(0.5);
    const int64_t id = rng.UniformInt(1, 500);
    data.statements.push_back(
        agg ? "SELECT COUNT(*) FROM photoobj WHERE objid = " +
                  std::to_string(id)
            : "SELECT ra, dec FROM specobj WHERE specobjid = " +
                  std::to_string(id));
    int label = agg ? 1 : 0;
    if (noise > 0.0 && rng.Bernoulli(noise)) label = 1 - label;
    data.labels.push_back(label);
    data.opt_costs.push_back(rng.Uniform(1.0, 100.0));
  }
  return data;
}

double Accuracy(const models::Model& model, const Dataset& data) {
  const auto preds = model.PredictBatch(data.statements);
  size_t correct = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    const auto& p = preds[i];
    const int arg = static_cast<int>(
        std::max_element(p.begin(), p.end()) - p.begin());
    if (arg == data.labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

// --- loss-level tests ------------------------------------------------------

TEST(DistillTest, SoftCrossEntropyMatchesHardLossOnOneHot) {
  Rng rng(11);
  const int b = 5, c = 4;
  nn::Tensor logits_t({b, c});
  for (int i = 0; i < b * c; ++i) {
    logits_t.data()[i] = static_cast<float>(rng.Uniform(-2.0, 2.0));
  }
  std::vector<int> labels = {0, 3, 1, 2, 3};
  std::vector<float> one_hot(static_cast<size_t>(b) * c, 0.0f);
  for (int i = 0; i < b; ++i) one_hot[i * c + labels[i]] = 1.0f;

  nn::Var hard_in = nn::MakeParam(logits_t);
  nn::Var hard = nn::SoftmaxCrossEntropy(hard_in, labels);
  nn::Backward(hard);
  nn::Var soft_in = nn::MakeParam(logits_t);
  nn::Var soft = nn::SoftCrossEntropy(soft_in, one_hot);
  nn::Backward(soft);

  EXPECT_NEAR(hard->value.at(0, 0), soft->value.at(0, 0), 1e-6f);
  for (int i = 0; i < b * c; ++i) {
    EXPECT_NEAR(hard_in->grad.data()[i], soft_in->grad.data()[i], 1e-6f)
        << "grad element " << i;
  }
}

TEST(DistillTest, SoftCrossEntropyFiniteDifferenceGradient) {
  Rng rng(23);
  const int b = 3, c = 5;
  nn::Tensor logits_t({b, c});
  for (int i = 0; i < b * c; ++i) {
    logits_t.data()[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  // Random target distributions (rows normalized to 1).
  std::vector<float> targets(static_cast<size_t>(b) * c);
  for (int i = 0; i < b; ++i) {
    float sum = 0.0f;
    for (int j = 0; j < c; ++j) {
      targets[i * c + j] = static_cast<float>(rng.Uniform(0.05, 1.0));
      sum += targets[i * c + j];
    }
    for (int j = 0; j < c; ++j) targets[i * c + j] /= sum;
  }
  nn::Var in = nn::MakeParam(logits_t);
  nn::Var loss = nn::SoftCrossEntropy(in, targets);
  nn::Backward(loss);
  const float eps = 1e-3f;
  for (int i = 0; i < b * c; ++i) {
    nn::Tensor bumped = logits_t;
    bumped.data()[i] += eps;
    nn::Var up = nn::SoftCrossEntropy(nn::MakeParam(bumped), targets);
    bumped.data()[i] -= 2.0f * eps;
    nn::Var dn = nn::SoftCrossEntropy(nn::MakeParam(bumped), targets);
    const float fd = (up->value.at(0, 0) - dn->value.at(0, 0)) / (2.0f * eps);
    EXPECT_NEAR(in->grad.data()[i], fd, 5e-3f) << "element " << i;
  }
}

// --- dataset-level tests ---------------------------------------------------

TEST(DistillTest, MakeSoftDatasetBlendsTeacherAndOneHot) {
  ThreadPool::SetGlobalThreads(2);
  const Dataset train = SyntheticClassification(40, 71);
  const Dataset valid = SyntheticClassification(16, 72);
  models::LstmModel::Config tconfig;
  tconfig.embed_dim = 8;
  tconfig.hidden_dim = 12;
  tconfig.num_layers = 1;
  tconfig.epochs = 1;
  models::LstmModel teacher(tconfig);
  Rng rng(3);
  teacher.Fit(train, valid, &rng);

  OnBothTiers(teacher, Calibration(train, valid), [&] {
    DistillConfig config;
    config.alpha = 0.5f;
    config.temperature = 2.0f;
    const Dataset soft = models::MakeSoftDataset(teacher, train, config);
    ASSERT_EQ(soft.soft_labels.size(), train.size());
    EXPECT_EQ(soft.labels, train.labels);  // hard labels preserved
    const auto teacher_probs = teacher.PredictBatch(train.statements);
    for (size_t i = 0; i < soft.size(); ++i) {
      const auto& row = soft.soft_labels[i];
      ASSERT_EQ(static_cast<int>(row.size()), train.num_classes);
      float sum = 0.0f;
      for (float t : row) {
        EXPECT_GE(t, 0.0f);
        sum += t;
      }
      EXPECT_NEAR(sum, 1.0f, 1e-4f) << "row " << i;
      // Softening with T=2 takes sqrt of probs before renormalizing; check
      // the blend explicitly for class 0.
      const double p0 =
          std::sqrt(std::max(1e-12, double{teacher_probs[i][0]}));
      const double p1 =
          std::sqrt(std::max(1e-12, double{teacher_probs[i][1]}));
      const double softened0 = p0 / (p0 + p1);
      const double expect0 =
          0.5 * softened0 + 0.5 * (train.labels[i] == 0 ? 1.0 : 0.0);
      EXPECT_NEAR(row[0], expect0, 1e-4) << "row " << i;
    }

    // alpha = 0 recovers pure one-hot rows (from-scratch training).
    DistillConfig hard_cfg;
    hard_cfg.alpha = 0.0f;
    const Dataset hard = models::MakeSoftDataset(teacher, train, hard_cfg);
    for (size_t i = 0; i < hard.size(); ++i) {
      for (int j = 0; j < train.num_classes; ++j) {
        EXPECT_FLOAT_EQ(hard.soft_labels[i][j],
                        j == train.labels[i] ? 1.0f : 0.0f);
      }
    }
  });
}

TEST(DistillTest, DistillValidatesInputs) {
  const Dataset train = SyntheticClassification(10, 5);
  const Dataset valid = SyntheticClassification(4, 6);
  models::CnnModel::Config sconfig;
  models::CnnModel student(sconfig);
  models::LstmModel::Config tconfig;
  models::LstmModel teacher(tconfig);
  Rng rng(1);
  EXPECT_FALSE(models::Distill(teacher, nullptr, train, valid, &rng).ok());
  Dataset empty;
  EXPECT_FALSE(models::Distill(teacher, &student, empty, valid, &rng).ok());
  DistillConfig bad_alpha;
  bad_alpha.alpha = 1.5f;
  EXPECT_FALSE(
      models::Distill(teacher, &student, train, valid, &rng, bad_alpha).ok());
  DistillConfig bad_temp;
  bad_temp.temperature = 0.0f;
  EXPECT_FALSE(
      models::Distill(teacher, &student, train, valid, &rng, bad_temp).ok());
}

// --- end-to-end: distilled students vs from-scratch baselines --------------
//
// Each comparison runs on both tiers: after the fp32 pass the teacher is
// quantized, the students distill from its int8 answers, and the CNN
// students are quantized before they are evaluated.

struct DistillBenchSets {
  Dataset teacher_train;  // large, clean
  Dataset student_train;  // small, noisy labels
  Dataset valid;          // clean
  Dataset test;           // clean
};

DistillBenchSets MakeBenchSets() {
  DistillBenchSets s;
  s.teacher_train = SyntheticClassification(160, 101);
  s.student_train = SyntheticClassification(48, 102, /*noise=*/0.25);
  s.valid = SyntheticClassification(32, 103);
  s.test = SyntheticClassification(64, 104);
  return s;
}

models::LstmModel TrainTeacher(const DistillBenchSets& s) {
  models::LstmModel::Config config;
  config.embed_dim = 8;
  config.hidden_dim = 16;
  config.num_layers = 1;
  config.epochs = 10;
  models::LstmModel teacher(config);
  Rng rng(7);
  teacher.Fit(s.teacher_train, s.valid, &rng);
  return teacher;
}

TEST(DistillTest, DistilledCnnBeatsFromScratchOnNoisyLabels) {
  ThreadPool::SetGlobalThreads(4);
  const DistillBenchSets s = MakeBenchSets();
  models::LstmModel teacher = TrainTeacher(s);
  OnBothTiers(teacher, Calibration(s.teacher_train, s.valid), [&] {
    const double teacher_acc = Accuracy(teacher, s.test);

    models::CnnModel::Config sconfig;
    sconfig.embed_dim = 8;
    sconfig.kernels_per_width = 8;
    sconfig.epochs = 3;

    models::CnnModel scratch(sconfig);
    Rng scratch_rng(19);
    scratch.Fit(s.student_train, s.valid, &scratch_rng);
    if (teacher.quantized()) {
      ASSERT_TRUE(scratch.Quantize({}).ok());
    }
    const double scratch_acc = Accuracy(scratch, s.test);

    models::CnnModel distilled(sconfig);
    Rng distill_rng(19);
    ASSERT_TRUE(models::Distill(teacher, &distilled, s.student_train, s.valid,
                                &distill_rng)
                    .ok());
    if (teacher.quantized()) {
      ASSERT_TRUE(distilled.Quantize({}).ok());
    }
    const double distilled_acc = Accuracy(distilled, s.test);

    // The teacher must actually have learned the task for the comparison
    // to mean anything, and the distilled student should not lose to
    // training on the noisy hard labels alone.
    EXPECT_GT(teacher_acc, 0.9);
    EXPECT_GE(distilled_acc, scratch_acc)
        << "scratch=" << scratch_acc << " distilled=" << distilled_acc;
  });
}

TEST(DistillTest, DistilledTfidfBeatsFromScratchOnNoisyLabels) {
  ThreadPool::SetGlobalThreads(4);
  const DistillBenchSets s = MakeBenchSets();
  models::LstmModel teacher = TrainTeacher(s);
  OnBothTiers(teacher, Calibration(s.teacher_train, s.valid), [&] {
    // Soft targets have smaller margins than one-hot rows, so the linear
    // student needs more epochs to cross the decision threshold; scratch
    // and distilled get the same budget.
    models::TfidfModel::Config sconfig;
    sconfig.epochs = 30;

    models::TfidfModel scratch(sconfig);
    Rng scratch_rng(29);
    scratch.Fit(s.student_train, s.valid, &scratch_rng);
    const double scratch_acc = Accuracy(scratch, s.test);

    models::TfidfModel distilled(sconfig);
    Rng distill_rng(29);
    ASSERT_TRUE(models::Distill(teacher, &distilled, s.student_train, s.valid,
                                &distill_rng)
                    .ok());
    const double distilled_acc = Accuracy(distilled, s.test);

    EXPECT_GE(distilled_acc, scratch_acc)
        << "scratch=" << scratch_acc << " distilled=" << distilled_acc;
  });
}

}  // namespace
}  // namespace sqlfacil
