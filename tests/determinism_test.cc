// Verifies the parallelism determinism contract: training, prediction, and
// workload generation produce bit-identical results at any thread count and
// with the SIMD kernels enabled or disabled.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sqlfacil/models/cnn_model.h"
#include "sqlfacil/models/lstm_model.h"
#include "sqlfacil/models/tfidf_model.h"
#include "sqlfacil/nn/simd.h"
#include "sqlfacil/util/random.h"
#include "sqlfacil/util/thread_pool.h"
#include "sqlfacil/workload/sdss.h"

namespace sqlfacil {
namespace {

using models::Dataset;
using models::TaskKind;

Dataset SyntheticClassification(size_t n, uint64_t seed) {
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
    data.labels.push_back(agg ? 1 : 0);
    data.opt_costs.push_back(rng.Uniform(1.0, 100.0));
  }
  return data;
}

template <typename Model>
std::vector<std::vector<float>> FitAndPredict(Model model,
                                              const Dataset& train,
                                              const Dataset& valid,
                                              int threads) {
  ThreadPool::SetGlobalThreads(threads);
  Rng rng(7);
  model.Fit(train, valid, &rng);
  std::vector<std::vector<float>> preds;
  for (size_t i = 0; i < valid.size(); ++i) {
    preds.push_back(model.Predict(valid.statements[i], valid.opt_costs[i]));
  }
  return preds;
}

TEST(DeterminismTest, TfidfModelBitIdenticalAcrossThreadCounts) {
  const Dataset train = SyntheticClassification(80, 11);
  const Dataset valid = SyntheticClassification(20, 22);
  models::TfidfModel::Config config;
  config.epochs = 3;
  config.granularity = sql::Granularity::kWord;
  const auto serial =
      FitAndPredict(models::TfidfModel(config), train, valid, 1);
  const auto parallel =
      FitAndPredict(models::TfidfModel(config), train, valid, 8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].size(), parallel[i].size());
    for (size_t c = 0; c < serial[i].size(); ++c) {
      EXPECT_EQ(serial[i][c], parallel[i][c]) << "example " << i;
    }
  }
}

TEST(DeterminismTest, LstmModelBitIdenticalAcrossThreadCounts) {
  const Dataset train = SyntheticClassification(40, 33);
  const Dataset valid = SyntheticClassification(10, 44);
  models::LstmModel::Config config;
  config.granularity = sql::Granularity::kWord;
  config.embed_dim = 4;
  config.hidden_dim = 8;
  config.num_layers = 1;
  config.epochs = 2;
  config.batch_size = 8;
  const auto serial =
      FitAndPredict(models::LstmModel(config), train, valid, 1);
  const auto parallel =
      FitAndPredict(models::LstmModel(config), train, valid, 8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].size(), parallel[i].size());
    for (size_t c = 0; c < serial[i].size(); ++c) {
      EXPECT_EQ(serial[i][c], parallel[i][c]) << "example " << i;
    }
  }
}

// Restores the SIMD dispatch state a test toggled.
class SimdGuard {
 public:
  SimdGuard() : saved_(nn::simd::Enabled()) {}
  ~SimdGuard() { nn::simd::SetEnabled(saved_); }

 private:
  bool saved_;
};

// The full contract sweep: every (simd, threads) combination must reproduce
// the reference run bit for bit — training AND both prediction paths.
template <typename Model, typename Config>
void SweepSimdAndThreads(const Config& config, const Dataset& train,
                         const Dataset& valid) {
  SimdGuard guard;
  std::vector<std::vector<float>> reference;
  std::vector<std::vector<float>> reference_batch;
  bool have_reference = false;
  for (bool simd_on : {false, true}) {
    if (simd_on && !nn::simd::HasAvx2()) continue;
    nn::simd::SetEnabled(simd_on);
    for (int threads : {1, 2, 8}) {
      ThreadPool::SetGlobalThreads(threads);
      Model model(config);
      Rng rng(7);
      model.Fit(train, valid, &rng);
      std::vector<std::vector<float>> preds;
      for (size_t i = 0; i < valid.size(); ++i) {
        preds.push_back(
            model.Predict(valid.statements[i], valid.opt_costs[i]));
      }
      const auto batch =
          model.PredictBatch(valid.statements, valid.opt_costs);
      if (!have_reference) {
        reference = preds;
        reference_batch = batch;
        have_reference = true;
        continue;
      }
      ASSERT_EQ(reference.size(), preds.size());
      for (size_t i = 0; i < reference.size(); ++i) {
        ASSERT_EQ(reference[i].size(), preds[i].size());
        for (size_t c = 0; c < reference[i].size(); ++c) {
          EXPECT_EQ(reference[i][c], preds[i][c])
              << "simd=" << simd_on << " threads=" << threads << " example "
              << i;
          EXPECT_EQ(reference_batch[i][c], batch[i][c])
              << "simd=" << simd_on << " threads=" << threads
              << " batch example " << i;
        }
      }
    }
  }
  ThreadPool::SetGlobalThreads(1);
}

TEST(DeterminismTest, CnnModelBitIdenticalAcrossSimdAndThreads) {
  const Dataset train = SyntheticClassification(30, 55);
  const Dataset valid = SyntheticClassification(10, 66);
  models::CnnModel::Config config;
  config.granularity = sql::Granularity::kWord;
  config.embed_dim = 4;
  config.widths = {2, 3};
  config.epochs = 1;
  config.batch_size = 8;
  // 4 kernels run only the scalar column tail of the AVX2 matmuls; 20 also
  // run two 8-column register groups.
  for (int kernels : {4, 20}) {
    SCOPED_TRACE("kernels_per_width=" + std::to_string(kernels));
    config.kernels_per_width = kernels;
    SweepSimdAndThreads<models::CnnModel>(config, train, valid);
  }
}

TEST(DeterminismTest, LstmModelBitIdenticalAcrossSimdAndThreads) {
  const Dataset train = SyntheticClassification(24, 77);
  const Dataset valid = SyntheticClassification(8, 88);
  models::LstmModel::Config config;
  config.granularity = sql::Granularity::kWord;
  config.embed_dim = 4;
  config.hidden_dim = 8;
  config.num_layers = 1;
  config.epochs = 1;
  config.batch_size = 8;
  SweepSimdAndThreads<models::LstmModel>(config, train, valid);
}

Dataset SyntheticRegression(size_t n, uint64_t seed) {
  Dataset data;
  data.kind = TaskKind::kRegression;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const int64_t joins = rng.UniformInt(0, 3);
    std::string stmt = "SELECT objid FROM photoobj";
    for (int64_t j = 0; j < joins; ++j) {
      stmt += " JOIN specobj ON photoobj.objid = specobj.objid";
    }
    data.statements.push_back(stmt);
    data.targets.push_back(static_cast<float>(joins) +
                           static_cast<float>(rng.Uniform(0.0, 0.1)));
    data.opt_costs.push_back(rng.Uniform(1.0, 100.0));
  }
  return data;
}

// The training sweep: final weights (serialized bytes) and the per-epoch
// validation-loss trajectory must be bit-identical across every
// (simd, threads) combination — the shard boundaries, reduction order, and
// loss sums depend only on the batch size and the shard cap.
template <typename Model, typename Config>
void TrainingSweep(const Config& config, const Dataset& train,
                   const Dataset& valid) {
  SimdGuard guard;
  std::string ref_bytes;
  std::vector<double> ref_history;
  bool have_reference = false;
  for (bool simd_on : {false, true}) {
    if (simd_on && !nn::simd::HasAvx2()) continue;
    nn::simd::SetEnabled(simd_on);
    for (int threads : {1, 2, 8}) {
      ThreadPool::SetGlobalThreads(threads);
      Model model(config);
      Rng rng(7);
      model.Fit(train, valid, &rng);
      std::ostringstream out;
      ASSERT_TRUE(model.SaveTo(out).ok());
      const std::string bytes = out.str();
      const std::vector<double> history = model.valid_history();
      if (!have_reference) {
        ref_bytes = bytes;
        ref_history = history;
        have_reference = true;
        continue;
      }
      EXPECT_EQ(ref_bytes, bytes)
          << "trained weights diverged at simd=" << simd_on
          << " threads=" << threads;
      ASSERT_EQ(ref_history.size(), history.size());
      for (size_t e = 0; e < ref_history.size(); ++e) {
        EXPECT_EQ(ref_history[e], history[e])
            << "valid loss diverged at epoch " << e << " simd=" << simd_on
            << " threads=" << threads;
      }
    }
  }
  ThreadPool::SetGlobalThreads(1);
}

TEST(DeterminismTest, TfidfTrainingSweepBitIdentical) {
  const Dataset train = SyntheticClassification(40, 101);
  const Dataset valid = SyntheticClassification(12, 102);
  models::TfidfModel::Config config;
  config.granularity = sql::Granularity::kWord;
  config.epochs = 3;
  config.batch_size = 8;
  TrainingSweep<models::TfidfModel>(config, train, valid);
}

TEST(DeterminismTest, CnnTrainingSweepBitIdentical) {
  const Dataset train = SyntheticClassification(20, 103);
  const Dataset valid = SyntheticClassification(8, 104);
  models::CnnModel::Config config;
  config.granularity = sql::Granularity::kWord;
  config.embed_dim = 4;
  config.widths = {2, 3};
  config.epochs = 2;
  config.batch_size = 6;  // uneven final batch exercises ragged shards
  // As in CnnModelBitIdenticalAcrossSimdAndThreads: 20 kernels reach the
  // register groups of the forward and backward matmuls.
  for (int kernels : {4, 20}) {
    SCOPED_TRACE("kernels_per_width=" + std::to_string(kernels));
    config.kernels_per_width = kernels;
    TrainingSweep<models::CnnModel>(config, train, valid);
  }
}

TEST(DeterminismTest, LstmTrainingSweepBitIdentical) {
  const Dataset train = SyntheticClassification(20, 105);
  const Dataset valid = SyntheticClassification(8, 106);
  models::LstmModel::Config config;
  config.granularity = sql::Granularity::kWord;
  config.embed_dim = 4;
  config.hidden_dim = 8;
  config.num_layers = 2;  // covers the fused op's inter-layer backward
  config.epochs = 2;
  config.batch_size = 6;
  TrainingSweep<models::LstmModel>(config, train, valid);
}

TEST(DeterminismTest, LstmRegressionTrainingSweepBitIdentical) {
  const Dataset train = SyntheticRegression(18, 107);
  const Dataset valid = SyntheticRegression(6, 108);
  models::LstmModel::Config config;
  config.granularity = sql::Granularity::kWord;
  config.embed_dim = 4;
  config.hidden_dim = 8;
  config.num_layers = 1;
  config.epochs = 2;
  config.batch_size = 5;
  TrainingSweep<models::LstmModel>(config, train, valid);
}

TEST(DeterminismTest, SdssWorkloadBitIdenticalAcrossThreadCounts) {
  workload::SdssWorkloadConfig config;
  config.num_sessions = 250;
  config.catalog.photoobj_rows = 1500;
  config.catalog.phototag_rows = 1500;
  config.catalog.specobj_rows = 300;
  config.catalog.specphoto_rows = 300;
  config.catalog.galaxy_rows = 900;
  config.catalog.star_rows = 700;

  ThreadPool::SetGlobalThreads(1);
  const auto serial = workload::BuildSdssWorkload(config);
  ThreadPool::SetGlobalThreads(8);
  const auto parallel = workload::BuildSdssWorkload(config);

  ASSERT_EQ(serial.workload.queries.size(), parallel.workload.queries.size());
  EXPECT_EQ(serial.num_session_samples, parallel.num_session_samples);
  EXPECT_EQ(serial.statement_repetitions, parallel.statement_repetitions);
  for (size_t i = 0; i < serial.workload.queries.size(); ++i) {
    const auto& a = serial.workload.queries[i];
    const auto& b = parallel.workload.queries[i];
    EXPECT_EQ(a.statement, b.statement) << "query " << i;
    EXPECT_EQ(a.error_class, b.error_class) << "query " << i;
    EXPECT_EQ(a.session_class, b.session_class) << "query " << i;
    EXPECT_EQ(a.answer_size, b.answer_size) << "query " << i;
    EXPECT_EQ(a.cpu_time, b.cpu_time) << "query " << i;
    EXPECT_EQ(a.opt_cost, b.opt_cost) << "query " << i;
  }
}

}  // namespace
}  // namespace sqlfacil
