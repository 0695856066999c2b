// Fault-tolerance tests (ISSUE 4): the failpoint framework, hardened
// checkpoint framing (bit flips and truncation always yield a typed Status),
// the circuit breaker, the ResilientModel degradation chain, and a
// faults-enabled determinism sweep.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sqlfacil/core/model_zoo.h"
#include "sqlfacil/models/baselines.h"
#include "sqlfacil/models/checkpoint.h"
#include "sqlfacil/models/cnn_model.h"
#include "sqlfacil/models/lstm_model.h"
#include "sqlfacil/models/multitask_model.h"
#include "sqlfacil/models/serialize_util.h"
#include "sqlfacil/models/tfidf_model.h"
#include "sqlfacil/nn/simd.h"
#include "sqlfacil/serving/resilient_model.h"
#include "sqlfacil/engine/catalog.h"
#include "sqlfacil/engine/executor.h"
#include "sqlfacil/sql/parser.h"
#include "sqlfacil/util/failpoint.h"
#include "sqlfacil/util/random.h"
#include "sqlfacil/util/thread_pool.h"
#include "sqlfacil/workload/labeler.h"
#include "sqlfacil/workload/querygen.h"
#include "sqlfacil/workload/sdss_catalog.h"
#include "simd_levels.h"
#include "tiers.h"

namespace sqlfacil {
namespace {

using models::Dataset;
using models::MultiTaskDataset;
using models::TaskKind;
using serving::CircuitBreaker;
using serving::ResilientModel;
using serving::ResilientOptions;
using serving::Tier;

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

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- Failpoint framework ---------------------------------------------------

TEST(FailpointTest, OffByDefaultAndAfterClear) {
  failpoint::Clear();
  EXPECT_FALSE(failpoint::AnyActive());
  EXPECT_EQ(failpoint::Eval("anything"), failpoint::Mode::kOff);
  EXPECT_NO_THROW(failpoint::MaybeFail("anything"));
}

TEST(FailpointTest, EveryNthTriggerCountsHitsDeterministically) {
  failpoint::ScopedFailpoints fp("x:throw@n2");
  // Hits 1, 3, 5 pass; hits 2, 4 fire.
  EXPECT_NO_THROW(failpoint::MaybeFail("x"));
  EXPECT_THROW(failpoint::MaybeFail("x"), failpoint::FailpointError);
  EXPECT_NO_THROW(failpoint::MaybeFail("x"));
  EXPECT_THROW(failpoint::MaybeFail("x"), failpoint::FailpointError);
  EXPECT_NO_THROW(failpoint::MaybeFail("x"));
  EXPECT_EQ(failpoint::HitCount("x"), 5u);
  EXPECT_EQ(failpoint::FireCount("x"), 2u);
  // An unconfigured name still evaluates to kOff.
  EXPECT_EQ(failpoint::Eval("y"), failpoint::Mode::kOff);
}

TEST(FailpointTest, ProbabilisticTriggerIsSeededAndReproducible) {
  auto pattern = [] {
    failpoint::ScopedFailpoints fp("p:error@p0.5/1234");
    std::string fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(failpoint::Eval("p") == failpoint::Mode::kError ? '1'
                                                                      : '0');
    }
    return fired;
  };
  const std::string a = pattern();
  const std::string b = pattern();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find('1'), std::string::npos) << "p=0.5 never fired in 64";
  EXPECT_NE(a.find('0'), std::string::npos) << "p=0.5 always fired in 64";
}

TEST(FailpointTest, DelayModeReturnsAfterSleeping) {
  failpoint::ScopedFailpoints fp("d:delay(1)");
  EXPECT_EQ(failpoint::Eval("d"), failpoint::Mode::kDelay);
  EXPECT_NO_THROW(failpoint::MaybeFail("d"));
}

TEST(FailpointTest, ScopedRestoresPreviousConfiguration) {
  failpoint::Clear();
  {
    failpoint::ScopedFailpoints outer("a:error");
    EXPECT_EQ(failpoint::Eval("a"), failpoint::Mode::kError);
    {
      failpoint::ScopedFailpoints inner("b:throw");
      EXPECT_EQ(failpoint::Eval("a"), failpoint::Mode::kOff);
      EXPECT_THROW(failpoint::MaybeFail("b"), failpoint::FailpointError);
    }
    EXPECT_EQ(failpoint::Eval("a"), failpoint::Mode::kError);
  }
  EXPECT_FALSE(failpoint::AnyActive());
}

TEST(FailpointTest, MalformedEntriesAreSkippedNotFatal) {
  failpoint::ScopedFailpoints fp("bad_no_mode;x:nonsense;ok:error");
  EXPECT_EQ(failpoint::Eval("ok"), failpoint::Mode::kError);
  EXPECT_EQ(failpoint::Eval("x"), failpoint::Mode::kOff);
}

// Predict is a batch of one on every tier, so a model.predict fault reaches
// single-query callers exactly as it reaches batched ones.
TEST(FailpointTest, PredictFailsLikePredictBatchOnEveryTier) {
  const Dataset train = SyntheticClassification(24, 71);
  models::CnnModel::Config cnn_config;
  cnn_config.embed_dim = 4;
  cnn_config.kernels_per_width = 4;
  cnn_config.epochs = 1;
  models::CnnModel cnn(cnn_config);
  models::LstmModel::Config lstm_config;
  lstm_config.embed_dim = 4;
  lstm_config.hidden_dim = 8;
  lstm_config.num_layers = 1;
  lstm_config.epochs = 1;
  models::LstmModel lstm(lstm_config);
  models::TfidfModel::Config tfidf_config;
  tfidf_config.max_features = 512;
  tfidf_config.epochs = 1;
  models::TfidfModel tfidf(tfidf_config);
  Rng rng(7);
  cnn.Fit(train, train, &rng);
  lstm.Fit(train, train, &rng);
  tfidf.Fit(train, train, &rng);
  const std::vector<std::string> one = {train.statements[0]};
  for (bool int8 : {false, true}) {
    if (int8) {
      ASSERT_TRUE(cnn.Quantize({}).ok());
      ASSERT_TRUE(lstm.Quantize(Calibration(train, train)).ok());
    }
    ASSERT_EQ(cnn.quantized(), int8);
    ASSERT_EQ(lstm.quantized(), int8);
    std::vector<const models::Model*> models = {&cnn, &lstm};
    if (!int8) models.push_back(&tfidf);  // ctfidf has no int8 tier
    for (const models::Model* model : models) {
      const std::string where = model->name() + (int8 ? " int8" : " fp32");
      failpoint::ScopedFailpoints fp("model.predict:throw");
      EXPECT_THROW(model->PredictBatch(one), failpoint::FailpointError)
          << where;
      EXPECT_THROW(model->Predict(one[0], 0.0), failpoint::FailpointError)
          << where;
    }
  }
}

// --- Checkpoint framing ----------------------------------------------------

TEST(CheckpointTest, FrameRoundTrip) {
  const std::string payload = "hello checkpoint payload";
  const std::string framed = models::FrameCheckpoint(payload);
  auto parsed = models::ParseCheckpoint(framed);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->version, models::kCheckpointVersion);
  EXPECT_EQ(parsed->payload, payload);
}

TEST(CheckpointTest, UnknownVersionYieldsVersionMismatch) {
  std::string framed = models::FrameCheckpoint("payload");
  framed[8] = 99;  // version field follows the 8-byte magic
  auto parsed = models::ParseCheckpoint(framed);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kVersionMismatch);
}

TEST(CheckpointTest, PayloadBitFlipFailsCrc) {
  std::string framed = models::FrameCheckpoint("0123456789");
  framed[20 + 3] ^= 0x10;  // inside the payload region
  auto parsed = models::ParseCheckpoint(framed);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruptCheckpoint);
}

class CheckpointCorruptionTest : public ::testing::Test {
 protected:
  // Trains a small model of the given zoo name and saves it with the v2
  // framing; returns the checkpoint path.
  std::string SaveTrained(const std::string& name) {
    core::ZooConfig zc;
    zc.epochs = 1;
    zc.batch_size = 8;
    zc.embed_dim = 4;
    zc.lstm_hidden = 8;
    zc.lstm_layers = 1;
    zc.tfidf_max_features = 512;
    zc.neural_max_vocab = 128;
    config_ = zc;
    auto model = core::MakeModel(name, zc);
    const Dataset train = SyntheticClassification(24, 13);
    const Dataset valid = SyntheticClassification(8, 14);
    Rng rng(7);
    model->Fit(train, valid, &rng);
    const std::string path = testing::TempDir() + "/ckpt_" + name + ".bin";
    Status s = core::SaveModelToFile(*model, path);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return path;
  }

  // Attempts to load a (possibly damaged) checkpoint file; returns the
  // typed load status. The default goes through the model zoo; the
  // multitask sweep substitutes its own loader.
  using Loader = std::function<Status(const std::string& path)>;

  Loader ZooLoader() {
    return [this](const std::string& path) {
      auto loaded = core::LoadModelFromFile(path, config_);
      return loaded.ok() ? Status::Ok() : loaded.status();
    };
  }

  // Every truncation length must load as a typed error, never OK and never
  // an abort. Byte-granular up to `dense_prefix`, strided afterwards (the
  // stride still crosses every serialized field boundary of these models).
  void ExpectTruncationsDetected(const std::string& path, Loader loader = {}) {
    if (!loader) loader = ZooLoader();
    const std::string bytes = ReadFile(path);
    ASSERT_GT(bytes.size(), 32u);
    const std::string mutated = path + ".mut";
    const size_t dense_prefix = 64;
    for (size_t len = 0; len < bytes.size();
         len += (len < dense_prefix ? 1 : 97)) {
      WriteFile(mutated, bytes.substr(0, len));
      const Status loaded = loader(mutated);
      ASSERT_FALSE(loaded.ok()) << "truncation at " << len << " loaded OK";
      EXPECT_EQ(loaded.code(), StatusCode::kCorruptCheckpoint)
          << "truncation at " << len << ": " << loaded.ToString();
    }
    std::remove(mutated.c_str());
  }

  // Every single-bit flip must load as kCorruptCheckpoint (payload, size,
  // magic, CRC damage) or kVersionMismatch (version-field damage).
  void ExpectBitFlipsDetected(const std::string& path, Loader loader = {}) {
    if (!loader) loader = ZooLoader();
    const std::string bytes = ReadFile(path);
    const std::string mutated = path + ".mut";
    const size_t dense_prefix = 64;
    for (size_t pos = 0; pos < bytes.size();
         pos += (pos < dense_prefix ? 1 : 97)) {
      std::string flipped = bytes;
      flipped[pos] = static_cast<char>(flipped[pos] ^ 0x01);
      WriteFile(mutated, flipped);
      const Status loaded = loader(mutated);
      ASSERT_FALSE(loaded.ok()) << "bit flip at " << pos << " loaded OK";
      const StatusCode code = loaded.code();
      EXPECT_TRUE(code == StatusCode::kCorruptCheckpoint ||
                  code == StatusCode::kVersionMismatch)
          << "bit flip at " << pos << ": " << loaded.ToString();
    }
    std::remove(mutated.c_str());
  }

  core::ZooConfig config_;
};

TEST_F(CheckpointCorruptionTest, TfidfTruncationAtEveryBoundaryDetected) {
  ExpectTruncationsDetected(SaveTrained("wtfidf"));
}

TEST_F(CheckpointCorruptionTest, TfidfSingleBitFlipsDetected) {
  ExpectBitFlipsDetected(SaveTrained("wtfidf"));
}

TEST_F(CheckpointCorruptionTest, LstmTruncationAtEveryBoundaryDetected) {
  ExpectTruncationsDetected(SaveTrained("wlstm"));
}

TEST_F(CheckpointCorruptionTest, LstmSingleBitFlipsDetected) {
  ExpectBitFlipsDetected(SaveTrained("wlstm"));
}

TEST_F(CheckpointCorruptionTest, CnnTruncationAtEveryBoundaryDetected) {
  ExpectTruncationsDetected(SaveTrained("wcnn"));
}

TEST_F(CheckpointCorruptionTest, CnnSingleBitFlipsDetected) {
  ExpectBitFlipsDetected(SaveTrained("wcnn"));
}

// The multitask model serializes outside the zoo (it is not a zoo name);
// its checkpoints go through the same framing and must reject damage with
// the same typed statuses.
class MultitaskCorruptionTest : public CheckpointCorruptionTest {
 protected:
  std::string SaveTrainedMultitask() {
    mt_config_.embed_dim = 4;
    mt_config_.kernels_per_width = 4;
    mt_config_.widths = {2, 3};
    mt_config_.epochs = 1;
    MultiTaskDataset data;
    data.num_error_classes = 2;
    Rng gen(15);
    for (int i = 0; i < 24; ++i) {
      const bool big = gen.Bernoulli(0.5);
      data.statements.push_back(
          big ? "SELECT * FROM Galaxy WHERE r < " + std::to_string(i % 30)
              : "SELECT objid FROM Star WHERE objid = " + std::to_string(i));
      data.error_labels.push_back(big ? 1 : 0);
      data.cpu_targets.push_back(big ? 4.0f : 1.0f);
      data.answer_targets.push_back(big ? 6.0f : 0.0f);
    }
    models::MultiTaskCnnModel model(mt_config_);
    Rng rng(7);
    model.Fit(data, data, &rng);
    std::ostringstream payload;
    EXPECT_TRUE(model.SaveTo(payload).ok());
    const std::string path = testing::TempDir() + "/ckpt_mtcnn.bin";
    Status s = models::WriteCheckpointFile(path, std::move(payload).str());
    EXPECT_TRUE(s.ok()) << s.ToString();
    return path;
  }

  Loader MultitaskLoader() {
    return [this](const std::string& path) {
      auto ckpt = models::ReadCheckpointFile(path);
      if (!ckpt.ok()) return ckpt.status();
      std::istringstream in(ckpt->payload);
      models::MultiTaskCnnModel model(mt_config_);
      return model.LoadFrom(in);
    };
  }

  models::MultiTaskCnnModel::Config mt_config_;
};

TEST_F(MultitaskCorruptionTest, TruncationAtEveryBoundaryDetected) {
  ExpectTruncationsDetected(SaveTrainedMultitask(), MultitaskLoader());
}

TEST_F(MultitaskCorruptionTest, SingleBitFlipsDetected) {
  ExpectBitFlipsDetected(SaveTrainedMultitask(), MultitaskLoader());
}

TEST_F(MultitaskCorruptionTest, IntactCheckpointRoundTrips) {
  const std::string path = SaveTrainedMultitask();
  EXPECT_TRUE(MultitaskLoader()(path).ok());
}

TEST_F(CheckpointCorruptionTest, IntactCheckpointRoundTrips) {
  const std::string path = SaveTrained("wtfidf");
  auto loaded = core::LoadModelFromFile(path, config_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->name(), "wtfidf");
}

TEST_F(CheckpointCorruptionTest, LegacyV1UnframedCheckpointStillLoads) {
  core::ZooConfig zc;
  zc.epochs = 1;
  zc.tfidf_max_features = 512;
  config_ = zc;
  auto model = core::MakeModel("wtfidf", zc);
  const Dataset train = SyntheticClassification(24, 13);
  const Dataset valid = SyntheticClassification(8, 14);
  Rng rng(7);
  model->Fit(train, valid, &rng);
  // A v1 file is the raw payload with no frame: tag + name + model state.
  std::ostringstream payload;
  models::serialize::WriteTag(payload, "sqlfacil_model.v1");
  models::serialize::WriteString(payload, model->name());
  ASSERT_TRUE(model->SaveTo(payload).ok());
  const std::string path = testing::TempDir() + "/legacy_v1.bin";
  WriteFile(path, payload.str());
  auto loaded = core::LoadModelFromFile(path, config_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::string q = "SELECT COUNT(*) FROM photoobj WHERE objid = 3";
  EXPECT_EQ((*loaded)->Predict(q, 0.0), model->Predict(q, 0.0));
}

// Legacy v1 files carry no CRC, so the model readers are their only check.
// A header dimension patched out of step with the stored tensors (a ccnn
// `outputs` of 64 over a two-class head once loaded OK and sent the next
// PredictBatch out of bounds) must load as kCorruptCheckpoint.
TEST_F(CheckpointCorruptionTest, LegacyV1HeaderOutOfStepWithTensorsRejected) {
  for (const std::string name : {"ccnn", "clstm"}) {
    auto parsed = models::ParseCheckpoint(ReadFile(SaveTrained(name)));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const std::string& payload = parsed->payload;
    // The payload is the file tag, the model name and the model tag (each a
    // u64 length + bytes), then the model's i32 header: kind, outputs,
    // granularity, embed_dim, then kernels per width (ccnn) or the hidden
    // width (clstm).
    const std::string file_tag = "sqlfacil_model.v1";
    const std::string model_tag =
        name == "ccnn" ? "cnn_model.v2" : "lstm_model.v2";
    const size_t header = 3 * sizeof(uint64_t) + file_tag.size() +
                          name.size() + model_tag.size();
    ASSERT_EQ(payload.substr(header - model_tag.size(), model_tag.size()),
              model_tag);
    auto field = [&](int index) {
      int32_t v = 0;
      std::memcpy(&v, payload.data() + header + 4 * index, sizeof(v));
      return v;
    };
    const std::vector<std::pair<int, int32_t>> patches = {
        {0, 2},                                         // kind
        {1, 64}, {1, 0}, {1, field(1) + 1},             // outputs
        {3, field(3) + 1}, {3, 0},                      // embed_dim
        {4, field(4) + 1}, {4, -3}};                    // kernels / hidden
    const std::string path = testing::TempDir() + "/legacy_patched.bin";
    for (const auto& [index, value] : patches) {
      std::string patched = payload;
      std::memcpy(patched.data() + header + 4 * index, &value, sizeof(value));
      WriteFile(path, patched);
      auto loaded = core::LoadModelFromFile(path, config_);
      ASSERT_FALSE(loaded.ok())
          << name << " field " << index << " = " << value << " loaded OK";
      EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptCheckpoint)
          << name << " field " << index << " = " << value << ": "
          << loaded.status().ToString();
    }
    std::remove(path.c_str());
  }
}

TEST_F(CheckpointCorruptionTest, WriteFailpointLeavesExistingFileIntact) {
  const std::string path = SaveTrained("wtfidf");
  const std::string before = ReadFile(path);
  {
    failpoint::ScopedFailpoints fp("checkpoint.write:error");
    Status s = models::WriteCheckpointFile(path, "replacement payload");
    EXPECT_FALSE(s.ok());
  }
  EXPECT_EQ(ReadFile(path), before) << "failed save clobbered the file";
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good()) << "temp file left behind";
}

TEST_F(CheckpointCorruptionTest, WriteCorruptFailpointIsCaughtOnLoad) {
  core::ZooConfig zc;
  zc.epochs = 1;
  zc.tfidf_max_features = 512;
  config_ = zc;
  auto model = core::MakeModel("wtfidf", zc);
  const Dataset train = SyntheticClassification(24, 13);
  Rng rng(7);
  model->Fit(train, train, &rng);
  const std::string path = testing::TempDir() + "/write_corrupt.bin";
  {
    failpoint::ScopedFailpoints fp("checkpoint.write:corrupt");
    ASSERT_TRUE(core::SaveModelToFile(*model, path).ok());
  }
  auto loaded = core::LoadModelFromFile(path, config_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptCheckpoint);
}

TEST_F(CheckpointCorruptionTest, ReadCorruptFailpointYieldsTypedError) {
  const std::string path = SaveTrained("wtfidf");
  failpoint::ScopedFailpoints fp("checkpoint.read:corrupt");
  auto loaded = core::LoadModelFromFile(path, config_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptCheckpoint);
}

// --- Circuit breaker -------------------------------------------------------

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailures) {
  CircuitBreaker breaker(/*failure_threshold=*/3, /*cooldown_requests=*/2);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordSuccess();  // success resets the consecutive count
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
}

TEST(CircuitBreakerTest, CooldownThenHalfOpenProbe) {
  CircuitBreaker breaker(1, /*cooldown_requests=*/3);
  breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  // The cool-down rejects exactly `cooldown_requests` calls.
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_FALSE(breaker.AllowRequest());
  // The next call is the half-open probe.
  EXPECT_TRUE(breaker.AllowRequest());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  // Probe failure re-opens for a fresh cool-down.
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_TRUE(breaker.AllowRequest());
  // Probe success closes.
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.AllowRequest());
}

// --- ResilientModel degradation chain --------------------------------------

// Fits an mfreq baseline, then `primary` (one Rng, in that order), and
// serves them.
std::unique_ptr<ResilientModel> TrainAndServe(
    std::unique_ptr<models::Model> primary, const Dataset& train,
    const Dataset& valid, ResilientOptions options = {}) {
  auto baseline = std::make_unique<models::MfreqModel>();
  Rng rng(7);
  baseline->Fit(train, valid, &rng);
  primary->Fit(train, valid, &rng);
  return std::make_unique<ResilientModel>(std::move(primary),
                                          std::move(baseline), options);
}

class ResilientModelTest : public ::testing::Test {
 protected:
  std::unique_ptr<ResilientModel> MakeServing(ResilientOptions options = {}) {
    models::TfidfModel::Config config;
    config.granularity = sql::Granularity::kWord;
    config.epochs = 2;
    return TrainAndServe(std::make_unique<models::TfidfModel>(config), train_,
                         valid_, options);
  }

  std::vector<std::string> Queries(size_t n, uint64_t seed) const {
    return SyntheticClassification(n, seed).statements;
  }

  const Dataset train_ = SyntheticClassification(40, 21);
  const Dataset valid_ = SyntheticClassification(10, 22);
};

TEST_F(ResilientModelTest, HealthyPrimaryServesPrimaryTier) {
  auto serving = MakeServing();
  const auto queries = Queries(6, 31);
  const auto batch = serving->PredictBatch(queries);
  ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();
  ASSERT_EQ(batch.predictions.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batch.provenance[i], Tier::kPrimary);
    EXPECT_FALSE(batch.predictions[i].empty());
  }
  EXPECT_EQ(serving->tier_counts().primary, queries.size());
}

TEST_F(ResilientModelTest, ThrowingPrimaryFallsBackToStaleCacheThenBaseline) {
  auto serving = MakeServing();
  const auto warm = Queries(6, 31);
  ASSERT_TRUE(serving->PredictBatch(warm).status.ok());  // populates cache

  failpoint::ScopedFailpoints fp("model.predict:throw");
  // Seen statements come from the stale cache, bit-identical to the warm
  // answers; unseen ones fall through to the baseline.
  auto mixed = warm;
  const auto fresh = Queries(3, 77);
  mixed.insert(mixed.end(), fresh.begin(), fresh.end());
  const auto batch = serving->PredictBatch(mixed);
  ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();
  for (size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(batch.provenance[i], Tier::kStaleCache) << "query " << i;
  }
  for (size_t i = warm.size(); i < mixed.size(); ++i) {
    EXPECT_EQ(batch.provenance[i], Tier::kBaseline) << "query " << i;
    EXPECT_FALSE(batch.predictions[i].empty());
  }
}

TEST_F(ResilientModelTest, BreakerOpensAndRecoversViaHalfOpenProbe) {
  ResilientOptions options;
  options.breaker_failure_threshold = 2;
  options.breaker_cooldown_requests = 3;
  auto serving = MakeServing(options);
  const auto queries = Queries(4, 41);
  {
    failpoint::ScopedFailpoints fp("model.predict:throw");
    serving->PredictBatch(queries);
    EXPECT_EQ(serving->breaker_state(), CircuitBreaker::State::kClosed);
    serving->PredictBatch(queries);
    EXPECT_EQ(serving->breaker_state(), CircuitBreaker::State::kOpen);

    // While open, the primary is not attempted at all.
    const uint64_t fires_before = failpoint::FireCount("model.predict");
    for (int i = 0; i < options.breaker_cooldown_requests; ++i) {
      const auto batch = serving->PredictBatch(queries);
      EXPECT_EQ(batch.provenance[0], Tier::kBaseline);
    }
    EXPECT_EQ(failpoint::FireCount("model.predict"), fires_before);

    // Cool-down elapsed: the next request probes the (still failing)
    // primary and re-opens.
    serving->PredictBatch(queries);
    EXPECT_GT(failpoint::FireCount("model.predict"), fires_before);
    EXPECT_EQ(serving->breaker_state(), CircuitBreaker::State::kOpen);
  }
  // Fault cleared: after the cool-down the probe succeeds and serving
  // returns to the primary tier.
  for (int i = 0; i < options.breaker_cooldown_requests; ++i) {
    serving->PredictBatch(queries);
  }
  const auto batch = serving->PredictBatch(queries);
  EXPECT_EQ(batch.provenance[0], Tier::kPrimary);
  EXPECT_EQ(serving->breaker_state(), CircuitBreaker::State::kClosed);
}

TEST_F(ResilientModelTest, SlowPrimaryTripsBatchDeadline) {
  ResilientOptions options;
  options.batch_deadline_ms = 5.0;
  auto serving = MakeServing(options);
  failpoint::ScopedFailpoints fp("model.predict:delay(50)");
  const auto batch = serving->PredictBatch(Queries(3, 51));
  EXPECT_TRUE(batch.deadline_exceeded);
  ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();
  for (Tier t : batch.provenance) {
    EXPECT_NE(t, Tier::kPrimary) << "late primary result was served";
    EXPECT_NE(t, Tier::kFailed);
    // Never served before: the late answers must not have been cached and
    // come back as stale entries of an "earlier successful" call.
    EXPECT_EQ(t, Tier::kBaseline);
  }
  EXPECT_EQ(serving->cache_stats().size, 0u);
}

TEST_F(ResilientModelTest, FailingCacheDegradesToBaselineNotCrash) {
  auto serving = MakeServing();
  ASSERT_TRUE(serving->PredictBatch(Queries(4, 61)).status.ok());
  // Both the primary and the cache are broken: every answer must still
  // arrive, from the baseline tier.
  failpoint::ScopedFailpoints fp("model.predict:throw;cache.get:throw");
  const auto batch = serving->PredictBatch(Queries(4, 61));
  ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();
  for (Tier t : batch.provenance) EXPECT_EQ(t, Tier::kBaseline);
}

TEST_F(ResilientModelTest, AllTiersFailingYieldsTypedStatusNotAbort) {
  // No primary at all (the posture after a failed checkpoint load) and a
  // failing baseline: the response is a typed error, never an abort.
  auto baseline = std::make_unique<models::MfreqModel>();
  Rng rng(7);
  baseline->Fit(train_, valid_, &rng);
  ResilientModel serving(nullptr, std::move(baseline));
  failpoint::ScopedFailpoints fp("baseline.predict:throw");
  const auto batch = serving.PredictBatch(Queries(3, 71));
  ASSERT_FALSE(batch.status.ok());
  EXPECT_EQ(batch.status.code(), StatusCode::kInternal);
  for (Tier t : batch.provenance) EXPECT_EQ(t, Tier::kFailed);
}

// --- End-to-end under failpoints -------------------------------------------

// Run under the CI failpoint matrix (SQLFACIL_FAILPOINTS set in the
// environment): whatever faults are configured, every query gets either a
// provenance-tagged answer or a typed error — never an abort. The primary
// goes through a full checkpoint cycle, so checkpoint faults degrade
// serving to the baseline tier instead of failing the test.
TEST(ResilienceEndToEndTest, EndToEndUnderEnvFailpoints) {
  failpoint::ConfigureFromEnv();
  const Dataset train = SyntheticClassification(40, 91);
  const Dataset valid = SyntheticClassification(10, 92);
  core::ZooConfig zc;
  zc.epochs = 2;
  zc.tfidf_max_features = 512;
  auto trained = core::MakeModel("wtfidf", zc);
  Rng rng(7);
  try {
    trained->Fit(train, valid, &rng);  // may fail under model.fit faults
  } catch (...) {
    trained.reset();
  }

  // Checkpoint cycle: a failed save or a corrupt/unreadable load leaves the
  // serving chain without a primary — exactly the degraded start posture.
  models::ModelPtr primary;
  if (trained != nullptr) {
    const std::string path = testing::TempDir() + "/e2e_primary.bin";
    Status saved = Status::Ok();
    try {
      saved = core::SaveModelToFile(*trained, path);
    } catch (...) {
      saved = Status::Internal("save threw");
    }
    if (saved.ok()) {
      try {
        auto loaded = core::LoadModelFromFile(path, zc);
        if (loaded.ok()) primary = std::move(*loaded);
      } catch (...) {
      }
    }
  }

  auto baseline = std::make_unique<models::MfreqModel>();
  baseline->Fit(train, valid, &rng);
  ResilientModel serving(std::move(primary), std::move(baseline));

  Rng qrng(17);
  workload::QueryGenerator gen(&qrng);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::string> queries;
    for (int i = 0; i < 5; ++i) {
      queries.push_back(gen.Generate(
          static_cast<workload::SessionClass>(i % workload::kNumSessionClasses)));
    }
    const auto batch = serving.PredictBatch(queries);
    ASSERT_EQ(batch.predictions.size(), queries.size());
    ASSERT_EQ(batch.provenance.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      if (batch.provenance[i] == Tier::kFailed) {
        EXPECT_FALSE(batch.status.ok());
      } else {
        EXPECT_FALSE(batch.predictions[i].empty());
      }
    }
  }
  failpoint::Clear();
}

// With the primary hard-failing end to end, every answer must come from a
// degraded tier and still be a valid probability vector.
TEST(ResilienceEndToEndTest, ForcedPrimaryOutageServesBaselineAnswers) {
  models::TfidfModel::Config config;
  config.granularity = sql::Granularity::kWord;
  const Dataset train = SyntheticClassification(40, 93);
  const auto serving = TrainAndServe(
      std::make_unique<models::TfidfModel>(config), train, train);

  failpoint::ScopedFailpoints fp("model.predict:throw");
  const auto queries = SyntheticClassification(12, 94).statements;
  const auto batch = serving->PredictBatch(queries);
  ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(batch.provenance[i] == Tier::kBaseline ||
                batch.provenance[i] == Tier::kStaleCache);
    ASSERT_EQ(batch.predictions[i].size(), 2u);
    float sum = 0.0f;
    for (float p : batch.predictions[i]) sum += p;
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
  }
  EXPECT_EQ(serving->tier_counts().primary, 0u);
}

// --- Determinism under faults ----------------------------------------------

// The PR 1-3 contract extended to fault handling: with a fixed failpoint
// configuration, the tier chosen for every query and the bits of every
// prediction are identical across thread counts and SIMD dispatch. The
// forced failpoints sit at batch entry (outside parallel sections), so hit
// indices are thread-count-invariant.
TEST(FaultDeterminismTest, DegradedServingBitIdenticalAcrossSimdAndThreads) {
  const Dataset train = SyntheticClassification(40, 111);
  const Dataset valid = SyntheticClassification(10, 112);
  const auto batch_a = SyntheticClassification(8, 113).statements;
  const auto batch_b = SyntheticClassification(8, 114).statements;

  SimdLevelGuard guard;
  std::vector<Tier> ref_tiers;
  std::vector<std::vector<float>> ref_preds;
  bool have_reference = false;
  for (const nn::simd::Level level : SupportedSimdLevels()) {
    nn::simd::SetLevel(level);
    for (int threads : {1, 2, 8}) {
      ThreadPool::SetGlobalThreads(threads);
      models::TfidfModel::Config config;
      config.granularity = sql::Granularity::kWord;
      config.epochs = 2;
      const auto serving = TrainAndServe(
          std::make_unique<models::TfidfModel>(config), train, valid);

      // Counters reset with each configuration: the fault schedule is the
      // same for every (simd, threads) combination.
      failpoint::ScopedFailpoints fp("model.predict:throw@n2");
      std::vector<Tier> tiers;
      std::vector<std::vector<float>> preds;
      for (int round = 0; round < 6; ++round) {
        const auto& queries = (round % 2 == 0) ? batch_a : batch_b;
        const auto batch = serving->PredictBatch(queries);
        ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();
        tiers.insert(tiers.end(), batch.provenance.begin(),
                     batch.provenance.end());
        preds.insert(preds.end(), batch.predictions.begin(),
                     batch.predictions.end());
      }
      if (!have_reference) {
        ref_tiers = tiers;
        ref_preds = preds;
        have_reference = true;
        continue;
      }
      ASSERT_EQ(ref_tiers.size(), tiers.size());
      for (size_t i = 0; i < ref_tiers.size(); ++i) {
        EXPECT_EQ(ref_tiers[i], tiers[i])
            << "tier diverged at " << SimdLevelTag(level)
            << " threads=" << threads << " response " << i;
      }
      ASSERT_EQ(ref_preds.size(), preds.size());
      for (size_t i = 0; i < ref_preds.size(); ++i) {
        ASSERT_EQ(ref_preds[i].size(), preds[i].size());
        for (size_t c = 0; c < ref_preds[i].size(); ++c) {
          EXPECT_EQ(ref_preds[i][c], preds[i][c])
              << "prediction diverged at " << SimdLevelTag(level)
              << " threads=" << threads << " response " << i;
        }
      }
    }
  }
  ThreadPool::SetGlobalThreads(1);
}

// --- Disk storage engine under fault injection -----------------------------
//
// The catalog loads (and its pages reach disk) BEFORE any failpoint is
// active, so injected read/evict faults exercise the query path against
// known-good data: every fault must surface as a typed Status and the data
// must read back intact once the faults clear — no torn pages.

class StorageResilienceTest : public ::testing::Test {
 protected:
  static engine::Catalog* BuildDiskCatalog() {
    const char* prev_mode = getenv("SQLFACIL_STORAGE");
    const std::string saved_mode = prev_mode == nullptr ? "" : prev_mode;
    const char* prev_pool = getenv("SQLFACIL_BUFFER_POOL_PAGES");
    const std::string saved_pool = prev_pool == nullptr ? "" : prev_pool;
    setenv("SQLFACIL_STORAGE", "disk", 1);
    setenv("SQLFACIL_BUFFER_POOL_PAGES", "48", 1);  // small: queries page

    workload::SdssCatalogConfig config;
    config.photoobj_rows = 2500;
    config.phototag_rows = 2500;
    config.specobj_rows = 350;
    config.specphoto_rows = 350;
    config.galaxy_rows = 1200;
    config.star_rows = 900;
    Rng rng(11);
    auto* catalog =
        new engine::Catalog(workload::BuildSdssCatalog(config, &rng));

    if (saved_mode.empty()) {
      unsetenv("SQLFACIL_STORAGE");
    } else {
      setenv("SQLFACIL_STORAGE", saved_mode.c_str(), 1);
    }
    if (saved_pool.empty()) {
      unsetenv("SQLFACIL_BUFFER_POOL_PAGES");
    } else {
      setenv("SQLFACIL_BUFFER_POOL_PAGES", saved_pool.c_str(), 1);
    }
    return catalog;
  }

  static const engine::Catalog& Catalog() {
    static engine::Catalog* catalog = BuildDiskCatalog();
    return *catalog;
  }

  static std::vector<std::string> PagingQueries() {
    return {
        "SELECT COUNT(*) FROM PhotoObj WHERE ra BETWEEN 50 AND 250",
        "SELECT * FROM PhotoObj WHERE objid = 77",
        "SELECT objid, type FROM PhotoObj WHERE type > 4 ORDER BY objid",
        "SELECT TOP 40 * FROM Galaxy ORDER BY objid",
        "SELECT AVG(z) FROM SpecObj WHERE z > 0.2",
        "SELECT type, COUNT(*) FROM PhotoObj GROUP BY type",
    };
  }

  /// Runs every paging query; returns per-query (ok, answer_rows) and
  /// asserts any failure carries a storage-typed code.
  static std::vector<std::pair<bool, size_t>> RunAll() {
    std::vector<std::pair<bool, size_t>> out;
    for (const auto& text : PagingQueries()) {
      auto stmt = sql::ParseStatement(text);
      EXPECT_TRUE(stmt.ok()) << text;
      engine::Executor executor(&Catalog());
      auto result = executor.Execute(*stmt->select);
      if (result.ok()) {
        out.emplace_back(true, result->answer_rows);
        continue;
      }
      const StatusCode code = result.status().code();
      EXPECT_TRUE(code == StatusCode::kIoError ||
                  code == StatusCode::kDataCorruption ||
                  code == StatusCode::kResourceExhausted)
          << text << " -> " << result.status().ToString();
      out.emplace_back(false, 0);
    }
    return out;
  }
};

TEST_F(StorageResilienceTest, FaultSweepYieldsTypedErrorsAndNoTornPages) {
  const auto reference = RunAll();  // fault-free baseline
  for (const auto& [ok, rows] : reference) ASSERT_TRUE(ok);

  const char* kSpecs[] = {
      "disk.read:error@n3",
      "disk.read:throw@n5",
      "bufferpool.evict:error@n2",
      "bufferpool.evict:throw@n3",
      "disk.read:error@n4;bufferpool.evict:error@n5",
  };
  for (const char* spec : kSpecs) {
    size_t failures = 0;
    {
      failpoint::ScopedFailpoints fp(spec);
      for (int round = 0; round < 4; ++round) {
        const auto outcomes = RunAll();  // must not crash or abort
        for (const auto& [ok, rows] : outcomes) failures += !ok;
      }
    }
    // With the faults cleared, every query returns the exact fault-free
    // answer: injected failures never corrupted a page.
    const auto after = RunAll();
    ASSERT_EQ(after.size(), reference.size()) << spec;
    for (size_t i = 0; i < after.size(); ++i) {
      EXPECT_TRUE(after[i].first) << spec;
      EXPECT_EQ(after[i].second, reference[i].second)
          << spec << " query " << i;
    }
  }
}

TEST_F(StorageResilienceTest, LabelerDegradesStorageFaultsToNonSevere) {
  workload::QueryLabeler labeler(&Catalog(), {});
  failpoint::ScopedFailpoints fp("disk.read:error@n4");
  size_t non_severe = 0;
  for (int round = 0; round < 6; ++round) {
    for (const auto& text : PagingQueries()) {
      const auto labels = labeler.Label(text);
      // Valid SQL against good data: a storage fault may degrade the label
      // to non-severe (answer withheld) but never to severe, and never
      // crashes the labeler.
      EXPECT_NE(labels.error_class, workload::ErrorClass::kSevere) << text;
      if (labels.error_class == workload::ErrorClass::kNonSevere) {
        ++non_severe;
        EXPECT_DOUBLE_EQ(labels.answer_size, -1.0);
        EXPECT_GE(labels.base_cpu_seconds, 0.0);
      }
    }
  }
  EXPECT_GT(non_severe, 0u) << "read faults never reached the labeler";
}

TEST_F(StorageResilienceTest, EndToEndUnderEnvStorageFailpoints) {
  failpoint::Clear();
  const auto reference = RunAll();  // also forces the catalog build
  for (const auto& [ok, rows] : reference) ASSERT_TRUE(ok);

  // CI matrix legs set SQLFACIL_FAILPOINTS (e.g. "disk.read:throw@n3") and
  // rerun this test; without the env var it degenerates to the baseline.
  failpoint::ConfigureFromEnv();
  for (int round = 0; round < 4; ++round) RunAll();
  failpoint::Clear();

  const auto after = RunAll();
  ASSERT_EQ(after.size(), reference.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_TRUE(after[i].first);
    EXPECT_EQ(after[i].second, reference[i].second) << "query " << i;
  }
}

}  // namespace
}  // namespace sqlfacil
