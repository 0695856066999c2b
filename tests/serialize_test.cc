#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "sqlfacil/core/facilitator.h"
#include "sqlfacil/core/model_zoo.h"
#include "sqlfacil/models/baselines.h"
#include "sqlfacil/models/cnn_model.h"
#include "sqlfacil/models/lstm_model.h"
#include "sqlfacil/models/serialize_util.h"
#include "sqlfacil/models/tfidf_model.h"
#include "tiers.h"

namespace sqlfacil {
namespace {

using models::Dataset;
using models::TaskKind;

// ---------------------------------------------------------------------------
// Primitive round trips
// ---------------------------------------------------------------------------

TEST(SerializeUtilTest, PrimitivesRoundTrip) {
  std::stringstream ss;
  models::serialize::WriteU64(ss, 1234567890123ULL);
  models::serialize::WriteI32(ss, -42);
  models::serialize::WriteF32(ss, 3.25f);
  models::serialize::WriteF64(ss, -1e100);
  models::serialize::WriteString(ss, "hello\tworld\n\x1f");
  EXPECT_EQ(*models::serialize::ReadU64(ss), 1234567890123ULL);
  EXPECT_EQ(*models::serialize::ReadI32(ss), -42);
  EXPECT_EQ(*models::serialize::ReadF32(ss), 3.25f);
  EXPECT_EQ(*models::serialize::ReadF64(ss), -1e100);
  EXPECT_EQ(*models::serialize::ReadString(ss), "hello\tworld\n\x1f");
}

TEST(SerializeUtilTest, TensorRoundTrip) {
  Rng rng(1);
  nn::Tensor t = nn::Tensor::RandomUniform({3, 5}, 2.0f, &rng);
  std::stringstream ss;
  models::serialize::WriteTensor(ss, t);
  auto back = models::serialize::ReadTensor(ss);
  ASSERT_TRUE(back.ok());
  ASSERT_TRUE(back->SameShape(t));
  for (size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back->data()[i], t.data()[i]);
  }
}

TEST(SerializeUtilTest, TruncatedInputFails) {
  std::stringstream ss;
  models::serialize::WriteU64(ss, 100);  // claims a long string follows
  EXPECT_FALSE(models::serialize::ReadString(ss).ok());
}

TEST(SerializeUtilTest, TagMismatchFails) {
  std::stringstream ss;
  models::serialize::WriteTag(ss, "alpha");
  EXPECT_FALSE(models::serialize::ExpectTag(ss, "beta").ok());
}

// ---------------------------------------------------------------------------
// Model round trips: saved model must predict identically.
// ---------------------------------------------------------------------------

Dataset TinyClassificationSet(Rng* rng) {
  Dataset d;
  d.kind = TaskKind::kClassification;
  d.num_classes = 2;
  for (int i = 0; i < 60; ++i) {
    const bool cls = rng->Bernoulli(0.5);
    d.statements.push_back(
        cls ? "SELECT ra FROM Galaxy WHERE r < " + std::to_string(i)
            : "SELECT objid FROM Star WHERE g > " + std::to_string(i));
    d.labels.push_back(cls ? 1 : 0);
    d.opt_costs.push_back(0);
  }
  return d;
}

Dataset TinyRegressionSet(Rng* rng) {
  Dataset d;
  d.kind = TaskKind::kRegression;
  for (int i = 0; i < 60; ++i) {
    const bool big = rng->Bernoulli(0.5);
    d.statements.push_back(big ? "SELECT * FROM Galaxy"
                               : "SELECT objid FROM Star WHERE objid = 1");
    d.targets.push_back(big ? 5.0f : 1.0f);
    d.opt_costs.push_back(big ? 5000.0 : 5.0);
  }
  return d;
}

const std::vector<std::string>& ProbeStatements() {
  static const auto* kProbes = new std::vector<std::string>{
      "SELECT ra FROM Galaxy WHERE r < 20",
      "SELECT objid FROM Star WHERE g > 3",
      "completely unseen text 42",
  };
  return *kProbes;
}

void ExpectSamePredictions(const models::Model& a, const models::Model& b) {
  for (const auto& probe : ProbeStatements()) {
    const auto pa = a.Predict(probe, 123.0);
    const auto pb = b.Predict(probe, 123.0);
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i], pb[i]) << a.name() << " probe '" << probe << "'";
    }
  }
}

template <typename M>
void RoundTrip(const M& trained, M* empty) {
  std::stringstream ss;
  ASSERT_TRUE(trained.SaveTo(ss).ok());
  ASSERT_TRUE(empty->LoadFrom(ss).ok());
  if constexpr (HasInt8Tier<M>) {
    EXPECT_EQ(empty->quantized(), trained.quantized());
  }
  ExpectSamePredictions(trained, *empty);
}

TEST(ModelSerializeTest, Mfreq) {
  Rng rng(2);
  auto train = TinyClassificationSet(&rng);
  models::MfreqModel trained;
  trained.Fit(train, train, &rng);
  models::MfreqModel empty;
  RoundTrip(trained, &empty);
}

TEST(ModelSerializeTest, MedianAndOpt) {
  Rng rng(3);
  auto train = TinyRegressionSet(&rng);
  models::MedianModel median;
  median.Fit(train, train, &rng);
  models::MedianModel median_empty;
  RoundTrip(median, &median_empty);

  models::OptModel opt;
  opt.Fit(train, train, &rng);
  models::OptModel opt_empty;
  RoundTrip(opt, &opt_empty);
}

TEST(ModelSerializeTest, Tfidf) {
  Rng rng(4);
  auto train = TinyClassificationSet(&rng);
  models::TfidfModel::Config config;
  config.epochs = 2;
  models::TfidfModel trained(config);
  trained.Fit(train, train, &rng);
  models::TfidfModel empty(config);
  RoundTrip(trained, &empty);
}

TEST(ModelSerializeTest, Cnn) {
  Rng rng(5);
  auto train = TinyClassificationSet(&rng);
  models::CnnModel::Config config;
  config.epochs = 1;
  config.kernels_per_width = 8;
  config.embed_dim = 6;
  models::CnnModel trained(config);
  trained.Fit(train, train, &rng);
  // The empty model is built with a *different* architecture config; the
  // checkpoint must fully restore the stored architecture, and the int8
  // tier when the trained model has one.
  models::CnnModel::Config other;
  other.kernels_per_width = 4;
  other.embed_dim = 4;
  OnBothTiers(trained, {}, [&] {
    models::CnnModel empty(other);
    RoundTrip(trained, &empty);
  });
}

TEST(ModelSerializeTest, Lstm) {
  Rng rng(6);
  auto train = TinyRegressionSet(&rng);
  models::LstmModel::Config config;
  config.epochs = 1;
  config.hidden_dim = 8;
  config.embed_dim = 6;
  config.num_layers = 2;
  models::LstmModel trained(config);
  trained.Fit(train, train, &rng);
  models::LstmModel::Config other;
  other.hidden_dim = 4;
  other.num_layers = 1;
  OnBothTiers(trained, Calibration(train, train), [&] {
    models::LstmModel empty(other);
    RoundTrip(trained, &empty);
  });
}

TEST(ModelSerializeTest, LoadRejectsWrongModelKind) {
  Rng rng(7);
  auto train = TinyRegressionSet(&rng);
  models::MedianModel median;
  median.Fit(train, train, &rng);
  std::stringstream ss;
  ASSERT_TRUE(median.SaveTo(ss).ok());
  models::MfreqModel mfreq;
  EXPECT_FALSE(mfreq.LoadFrom(ss).ok());
}

// ---------------------------------------------------------------------------
// File-level helpers and the facilitator checkpoint.
// ---------------------------------------------------------------------------

TEST(ModelFileTest, SaveLoadThroughZoo) {
  Rng rng(8);
  auto train = TinyClassificationSet(&rng);
  core::ZooConfig zoo;
  zoo.epochs = 1;
  auto model = core::MakeModel("ctfidf", zoo);
  model->Fit(train, train, &rng);

  const std::string path = testing::TempDir() + "/model_roundtrip.bin";
  ASSERT_TRUE(core::SaveModelToFile(*model, path).ok());
  auto loaded = core::LoadModelFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->name(), "ctfidf");
  ExpectSamePredictions(*model, **loaded);
  std::remove(path.c_str());
}

TEST(ModelFileTest, MissingFileIsNotFound) {
  auto loaded = core::LoadModelFromFile("/nonexistent/m.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(FacilitatorCheckpointTest, SaveLoadRoundTrip) {
  // A tiny workload with error + cpu labels only.
  workload::QueryWorkload w;
  w.name = "tiny";
  Rng rng(9);
  for (int i = 0; i < 80; ++i) {
    workload::LabeledQuery q;
    const bool garbage = i % 10 == 0;
    q.statement = garbage ? "random words " + std::to_string(i)
                          : "SELECT a FROM t WHERE x = " + std::to_string(i);
    q.error_class = garbage ? workload::ErrorClass::kSevere
                            : workload::ErrorClass::kSuccess;
    q.has_error_class = true;
    q.cpu_time = garbage ? 0.0 : 0.1 * i;
    q.has_cpu_time = true;
    w.queries.push_back(std::move(q));
  }

  core::QueryFacilitator::Options options;
  options.model_name = "ctfidf";
  options.zoo.epochs = 2;
  core::QueryFacilitator trained(options);
  trained.Train(w);

  const std::string path = testing::TempDir() + "/facilitator.bin";
  ASSERT_TRUE(trained.Save(path).ok());

  core::QueryFacilitator restored(options);
  ASSERT_TRUE(restored.Load(path).ok());
  EXPECT_TRUE(restored.trained());

  for (const char* probe :
       {"SELECT a FROM t WHERE x = 999", "some random words"}) {
    const auto a = trained.Analyze(probe);
    const auto b = restored.Analyze(probe);
    EXPECT_EQ(a.has_error, b.has_error);
    EXPECT_EQ(a.error_class, b.error_class);
    EXPECT_EQ(a.has_cpu_time, b.has_cpu_time);
    EXPECT_DOUBLE_EQ(a.cpu_time_seconds, b.cpu_time_seconds);
    EXPECT_FALSE(b.has_session);  // labels absent in the workload
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sqlfacil
