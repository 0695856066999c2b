// Tests for the model lifecycle subsystem: registry publish / rollback
// semantics, serving a registry (an empty registry degrades to the
// baseline; a swap that lands mid-batch never plants an entry of the wrong
// generation in the prediction cache), the shadow
// gate + auto-rollback state machine under lifecycle failpoints, drift
// detection on schema-shifted traffic, the streaming trainer's retrain
// rounds, and a swap-storm-under-concurrent-predict soak (the prime TSan
// target: RCU readers must never race a publish).

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sqlfacil/lifecycle/drift_detector.h"
#include "sqlfacil/lifecycle/model_registry.h"
#include "sqlfacil/lifecycle/stream_trainer.h"
#include "sqlfacil/lifecycle/swap_controller.h"
#include "sqlfacil/models/baselines.h"
#include "sqlfacil/models/dataset.h"
#include "sqlfacil/models/model.h"
#include "sqlfacil/models/tfidf_model.h"
#include "sqlfacil/serving/loadgen.h"
#include "sqlfacil/serving/resilient_model.h"
#include "sqlfacil/serving/server.h"
#include "sqlfacil/util/failpoint.h"
#include "sqlfacil/util/random.h"
#include "sqlfacil/util/status.h"

namespace sqlfacil::lifecycle {
namespace {

using models::Dataset;
using models::TaskKind;
using serving::BuildSessionTrace;

// Deterministic stand-in model: classifies by a caller-supplied function.
// Lets the lifecycle tests control exactly which samples a "model" gets
// right without training anything.
class FnModel : public models::Model {
 public:
  using Fn = std::function<int(const std::string&)>;

  FnModel(std::string name, int num_classes, Fn fn)
      : name_(std::move(name)), num_classes_(num_classes), fn_(std::move(fn)) {}

  std::string name() const override { return name_; }
  void Fit(const Dataset&, const Dataset&, Rng*) override {}
  std::vector<float> Predict(const std::string& statement,
                             double /*opt_cost*/) const override {
    std::vector<float> probs(num_classes_, 0.0f);
    int c = fn_(statement);
    if (c < 0 || c >= num_classes_) c = 0;
    probs[static_cast<size_t>(c)] = 1.0f;
    return probs;
  }

 private:
  std::string name_;
  int num_classes_;
  Fn fn_;
};

int TrueLabel(const std::string& statement) {
  return static_cast<int>(statement.size() % 3);
}

std::shared_ptr<const models::Model> GoodModel(const std::string& name) {
  return std::make_shared<FnModel>(name, 3, &TrueLabel);
}

std::shared_ptr<const models::Model> BadModel(const std::string& name) {
  return std::make_shared<FnModel>(
      name, 3, [](const std::string& s) { return (TrueLabel(s) + 1) % 3; });
}

std::vector<std::string> SampleStatements(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back("SELECT x FROM t WHERE id = " +
                  std::to_string(rng.UniformInt(1, 100000)));
  }
  return out;
}

// --- ModelRegistry ---------------------------------------------------------

TEST(ModelRegistryTest, PublishIsGenerationMonotonic) {
  ModelRegistry registry;
  EXPECT_EQ(registry.Current(), nullptr);
  EXPECT_EQ(registry.generation(), 0u);

  auto gen1 = registry.Publish(GoodModel("a"), "seed");
  ASSERT_TRUE(gen1.ok());
  EXPECT_EQ(*gen1, 1u);
  auto gen2 = registry.Publish(GoodModel("b"), "stream@round1");
  ASSERT_TRUE(gen2.ok());
  EXPECT_EQ(*gen2, 2u);

  VersionPtr current = registry.Current();
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->generation, 2u);
  EXPECT_EQ(current->source_generation, 2u);
  EXPECT_EQ(current->note, "stream@round1");
  EXPECT_EQ(current->model->name(), "b");
  EXPECT_EQ(registry.generation(), 2u);
  EXPECT_EQ(registry.num_published(), 2u);
  EXPECT_EQ(registry.RetainedGenerations(), (std::vector<uint64_t>{1, 2}));

  auto null_publish = registry.Publish(nullptr, "null");
  EXPECT_EQ(null_publish.status().code(), StatusCode::kInvalidArgument);
}

TEST(ModelRegistryTest, PinnedReaderSurvivesSwap) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(GoodModel("a"), "seed").ok());
  VersionPtr pinned = registry.Current();
  ASSERT_TRUE(registry.Publish(BadModel("b"), "swap").ok());
  // The pinned snapshot keeps scoring the OLD model — an in-flight batch
  // finishes on the generation it started with.
  const std::string stmt = "SELECT 1";
  EXPECT_EQ(pinned->generation, 1u);
  std::vector<float> old_probs = pinned->model->Predict(stmt, 0.0);
  std::vector<float> new_probs = registry.Current()->model->Predict(stmt, 0.0);
  EXPECT_NE(old_probs, new_probs);
}

TEST(ModelRegistryTest, RollbackStepsThroughDistinctSnapshots) {
  ModelRegistry registry;
  EXPECT_EQ(registry.Rollback().status().code(), StatusCode::kNotFound);

  auto a = GoodModel("a");
  auto b = BadModel("b");
  ASSERT_TRUE(registry.Publish(a, "A").ok());       // gen 1
  EXPECT_EQ(registry.Rollback().status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(registry.Publish(b, "B").ok());       // gen 2

  // Rollback republishes A's weights under a NEW generation.
  auto gen3 = registry.Rollback();
  ASSERT_TRUE(gen3.ok());
  EXPECT_EQ(*gen3, 3u);
  EXPECT_EQ(registry.Current()->source_generation, 1u);
  EXPECT_EQ(registry.Current()->model.get(), a.get());
  EXPECT_EQ(registry.num_rollbacks(), 1u);

  // Rollback-of-a-rollback steps PAST the gen-1 entry that shares the live
  // weights, back to B — it never ping-pongs on the same snapshot.
  auto gen4 = registry.Rollback();
  ASSERT_TRUE(gen4.ok());
  EXPECT_EQ(*gen4, 4u);
  EXPECT_EQ(registry.Current()->source_generation, 2u);
  EXPECT_EQ(registry.Current()->model.get(), b.get());
}

TEST(ModelRegistryTest, SwapFailpointLeavesIncumbentIntact) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(GoodModel("a"), "seed").ok());
  {
    failpoint::ScopedFailpoints fp("lifecycle.swap:error");
    auto published = registry.Publish(BadModel("b"), "doomed");
    EXPECT_EQ(published.status().code(), StatusCode::kIoError);
    auto rolled = registry.Rollback();
    EXPECT_FALSE(rolled.ok());
  }
  // No half-published generation: nothing moved.
  EXPECT_EQ(registry.generation(), 1u);
  EXPECT_EQ(registry.Current()->model->name(), "a");
  EXPECT_EQ(registry.num_published(), 1u);
  EXPECT_EQ(registry.RetainedGenerations(), (std::vector<uint64_t>{1}));
  // Cleared: the same publish now lands.
  EXPECT_TRUE(registry.Publish(BadModel("b"), "retry").ok());
}

// --- Serving a registry ----------------------------------------------------

TEST(RegistryModelTest, EmptyRegistryDegradesToBaseline) {
  Dataset train;
  train.kind = TaskKind::kClassification;
  train.num_classes = 3;
  train.statements = {"SELECT 1", "SELECT 22", "SELECT 333"};
  train.labels = {0, 0, 1};
  train.opt_costs = {0, 0, 0};
  Rng rng(7);
  auto baseline = std::make_unique<models::MfreqModel>();
  baseline->Fit(train, train, &rng);

  ModelRegistry registry;
  serving::ResilientModel model(&registry, std::move(baseline));

  const std::vector<std::string> batch = {"SELECT a FROM t"};
  auto served = model.PredictBatch(batch);
  ASSERT_TRUE(served.status.ok()) << served.status.ToString();
  ASSERT_EQ(served.provenance.size(), 1u);
  EXPECT_EQ(served.provenance[0], serving::Tier::kBaseline);

  // First publish: the same request is now answered by the primary.
  ASSERT_TRUE(registry.Publish(GoodModel("a"), "seed").ok());
  served = model.PredictBatch(batch);
  ASSERT_TRUE(served.status.ok());
  EXPECT_EQ(served.provenance[0], serving::Tier::kPrimary);
}

// Publishes a replacement generation from inside its own first
// PredictBatch: the swap lands after the serving batch pinned this model
// but before the batch caches its answers.
class SwapMidBatchModel : public FnModel {
 public:
  SwapMidBatchModel(ModelRegistry* registry,
                    std::shared_ptr<const models::Model> next)
      : FnModel("swaps-mid-batch", 3, &TrueLabel),
        registry_(registry),
        next_(std::move(next)) {}

  std::vector<std::vector<float>> PredictBatch(
      std::span<const std::string> statements,
      std::span<const double> opt_costs) const override {
    if (!swapped_) {
      swapped_ = true;
      EXPECT_TRUE(registry_->Publish(next_, "mid-batch").ok());
    }
    return FnModel::PredictBatch(statements, opt_costs);
  }

 private:
  ModelRegistry* registry_;
  std::shared_ptr<const models::Model> next_;
  mutable bool swapped_ = false;
};

TEST(RegistryServingTest, SwapMidBatchCachesUnderPinnedGeneration) {
  ModelRegistry registry;
  auto gen2 = BadModel("b");
  ASSERT_TRUE(registry
                  .Publish(std::make_shared<SwapMidBatchModel>(&registry, gen2),
                           "seed")
                  .ok());
  serving::ResilientModel model(&registry,
                                std::make_unique<models::MfreqModel>());

  const std::vector<std::string> batch = {"SELECT objid FROM photoobj"};
  const std::vector<float> gen1_answer = GoodModel("a")->Predict(batch[0], 0.0);
  const std::vector<float> gen2_answer = gen2->Predict(batch[0], 0.0);
  ASSERT_NE(gen1_answer, gen2_answer);

  // Generation 1 answers the batch during which generation 2 went live.
  serving::ServedBatch served = model.PredictBatch(batch);
  ASSERT_TRUE(served.status.ok()) << served.status.ToString();
  EXPECT_EQ(served.provenance[0], serving::Tier::kPrimary);
  EXPECT_EQ(served.predictions[0], gen1_answer);
  EXPECT_EQ(registry.generation(), 2u);

  // Its answer was cached under generation 1, so the next batch for the
  // same statement misses and is answered by generation 2.
  served = model.PredictBatch(batch);
  EXPECT_EQ(served.provenance[0], serving::Tier::kPrimary);
  EXPECT_EQ(served.predictions[0], gen2_answer);
  const auto stats = model.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
}

// --- SwapController --------------------------------------------------------

SwapController::Options AutoOptions() {
  SwapController::Options o;
  o.mode = SwapController::Mode::kAuto;
  o.shadow_window = 8;
  o.watch_window = 8;
  o.rollback_delta = 0.05;
  return o;
}

// Feeds `n` labeled samples; returns the last non-kNone event.
SwapController::Event Feed(SwapController* controller,
                           const std::vector<std::string>& statements,
                           size_t* cursor, int n) {
  SwapController::Event last = SwapController::Event::kNone;
  for (int i = 0; i < n; ++i) {
    const std::string& s = statements[(*cursor)++ % statements.size()];
    SwapController::Event e = controller->Observe(s, 0.0, TrueLabel(s));
    if (e != SwapController::Event::kNone) last = e;
  }
  return last;
}

TEST(SwapControllerTest, SubmitValidation) {
  ModelRegistry registry;
  SwapController::Options off;
  off.mode = SwapController::Mode::kOff;
  SwapController off_controller(&registry, off);
  EXPECT_EQ(off_controller.SubmitCandidate(GoodModel("c"), "x").code(),
            StatusCode::kInvalidArgument);

  SwapController controller(&registry, AutoOptions());
  EXPECT_EQ(controller.SubmitCandidate(nullptr, "x").code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(controller.SubmitCandidate(GoodModel("c"), "x").ok());
  EXPECT_EQ(controller.state(), SwapController::State::kShadowing);
  // One candidate at a time.
  EXPECT_EQ(controller.SubmitCandidate(GoodModel("d"), "y").code(),
            StatusCode::kResourceExhausted);
}

TEST(SwapControllerTest, GoodCandidatePromotedThenWatchPasses) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(GoodModel("incumbent"), "seed").ok());
  SwapController controller(&registry, AutoOptions());
  const auto statements = SampleStatements(64, 11);
  size_t cursor = 0;
  Feed(&controller, statements, &cursor, 8);  // warm the rolling baseline

  ASSERT_TRUE(controller.SubmitCandidate(GoodModel("cand"), "good").ok());
  EXPECT_EQ(Feed(&controller, statements, &cursor, 8),
            SwapController::Event::kPromoted);
  EXPECT_EQ(registry.generation(), 2u);
  EXPECT_EQ(controller.state(), SwapController::State::kWatching);

  EXPECT_EQ(Feed(&controller, statements, &cursor, 8),
            SwapController::Event::kWatchPassed);
  EXPECT_EQ(controller.state(), SwapController::State::kIdle);
  const auto stats = controller.GetStats();
  EXPECT_EQ(stats.promoted, 1u);
  EXPECT_EQ(stats.rollbacks, 0u);
  EXPECT_TRUE(stats.last_verdict.passed);
}

TEST(SwapControllerTest, ShadowGateRejectsBadCandidate) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(GoodModel("incumbent"), "seed").ok());
  SwapController controller(&registry, AutoOptions());
  const auto statements = SampleStatements(64, 13);
  size_t cursor = 0;

  ASSERT_TRUE(controller.SubmitCandidate(BadModel("cand"), "bad").ok());
  EXPECT_EQ(Feed(&controller, statements, &cursor, 8),
            SwapController::Event::kRejected);
  // The incumbent was never displaced.
  EXPECT_EQ(registry.generation(), 1u);
  const auto stats = controller.GetStats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_FALSE(stats.last_verdict.passed);
  EXPECT_EQ(stats.last_verdict.reason,
            "accuracy regression beyond rollback_delta");
}

TEST(SwapControllerTest, ShadowModeRecordsWithoutPublishing) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(GoodModel("incumbent"), "seed").ok());
  SwapController::Options o = AutoOptions();
  o.mode = SwapController::Mode::kShadow;
  SwapController controller(&registry, o);
  const auto statements = SampleStatements(64, 17);
  size_t cursor = 0;

  ASSERT_TRUE(controller.SubmitCandidate(GoodModel("cand"), "good").ok());
  EXPECT_EQ(Feed(&controller, statements, &cursor, 8),
            SwapController::Event::kShadowPass);
  EXPECT_EQ(registry.generation(), 1u);  // recorded only, never published
  EXPECT_EQ(controller.GetStats().promoted, 0u);
}

TEST(SwapControllerTest, AutoRollbackOnLiveRegression) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(GoodModel("incumbent"), "seed").ok());
  SwapController controller(&registry, AutoOptions());
  const auto statements = SampleStatements(64, 19);
  size_t cursor = 0;
  Feed(&controller, statements, &cursor, 8);  // baseline accuracy = 1.0

  // ForcePromote bypasses the gate (chaos hook) but still arms the watch.
  ASSERT_TRUE(controller.ForcePromote(BadModel("regression"), "forced").ok());
  EXPECT_EQ(registry.generation(), 2u);
  EXPECT_EQ(controller.state(), SwapController::State::kWatching);

  // The new incumbent scores 0 on live traffic: the watch window rolls the
  // registry back to the previous weights under a new generation.
  EXPECT_EQ(Feed(&controller, statements, &cursor, 8),
            SwapController::Event::kRolledBack);
  EXPECT_EQ(registry.generation(), 3u);
  EXPECT_EQ(registry.Current()->source_generation, 1u);
  EXPECT_EQ(registry.num_rollbacks(), 1u);
  EXPECT_EQ(controller.GetStats().rollbacks, 1u);
}

TEST(SwapControllerTest, RollbackRetriesThroughSwapFailpointStorm) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(GoodModel("incumbent"), "seed").ok());
  SwapController controller(&registry, AutoOptions());
  const auto statements = SampleStatements(64, 23);
  size_t cursor = 0;
  Feed(&controller, statements, &cursor, 8);
  ASSERT_TRUE(controller.ForcePromote(BadModel("regression"), "forced").ok());

  {
    // Every publish (including the rollback) fails while the storm lasts.
    failpoint::ScopedFailpoints fp("lifecycle.swap:error");
    EXPECT_EQ(Feed(&controller, statements, &cursor, 8),
              SwapController::Event::kNone);
    EXPECT_EQ(controller.state(), SwapController::State::kWatching);
    EXPECT_GT(controller.GetStats().publish_failures, 0u);
    EXPECT_EQ(registry.generation(), 2u);  // regression still live
  }
  // Storm over: the pending rollback lands on the very next sample — the
  // failpoint delayed it, it never lost it.
  EXPECT_EQ(Feed(&controller, statements, &cursor, 1),
            SwapController::Event::kRolledBack);
  EXPECT_EQ(registry.Current()->source_generation, 1u);
}

TEST(SwapControllerTest, ShadowScoreFailpointFailsTheCandidate) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(GoodModel("incumbent"), "seed").ok());
  SwapController controller(&registry, AutoOptions());
  const auto statements = SampleStatements(64, 29);
  size_t cursor = 0;
  ASSERT_TRUE(controller.SubmitCandidate(GoodModel("cand"), "good").ok());

  failpoint::ScopedFailpoints fp("lifecycle.shadow_score:error");
  // Every shadow score is failed: the (actually good) candidate counts as
  // wrong on every sample, so the gate rejects — the safe direction.
  EXPECT_EQ(Feed(&controller, statements, &cursor, 8),
            SwapController::Event::kRejected);
  const auto stats = controller.GetStats();
  EXPECT_EQ(stats.last_verdict.candidate_failures, 8u);
  EXPECT_EQ(registry.generation(), 1u);
}

TEST(SwapControllerTest, QuiesceAbandonsInFlightRun) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(GoodModel("incumbent"), "seed").ok());
  SwapController controller(&registry, AutoOptions());
  ASSERT_TRUE(controller.SubmitCandidate(GoodModel("cand"), "good").ok());
  controller.Quiesce();
  EXPECT_EQ(controller.state(), SwapController::State::kIdle);
  // A fresh candidate is accepted after the drain.
  EXPECT_TRUE(controller.SubmitCandidate(GoodModel("cand2"), "next").ok());
}

// --- DriftDetector ---------------------------------------------------------

TEST(DriftDetectorTest, AlarmsOnSchemaShiftedTraffic) {
  DriftDetector::Options o;
  o.reference_window = 256;
  o.detect_window = 64;
  DriftDetector detector(o);

  std::vector<int> labels;
  const auto stable = BuildSessionTrace(1024, 0.0, 101, /*schema_epoch=*/0,
                                        &labels);
  bool false_alarm = false;
  for (size_t i = 0; i < stable.size(); ++i) {
    false_alarm |= detector.Observe(stable[i], labels[i]);
  }
  EXPECT_FALSE(false_alarm) << "stationary traffic must not alarm";
  EXPECT_TRUE(detector.GetStats().reference_frozen);

  // Same session mix against a shifted data release: prefixed schema names
  // and renamed tables/columns move the lexical features persistently.
  std::vector<int> shifted_labels;
  const auto shifted = BuildSessionTrace(512, 0.0, 103, /*schema_epoch=*/2,
                                         &shifted_labels);
  bool alarmed = false;
  for (size_t i = 0; i < shifted.size() && !alarmed; ++i) {
    alarmed = detector.Observe(shifted[i], shifted_labels[i]);
  }
  EXPECT_TRUE(alarmed) << "schema shift must trip the CUSUM";
  EXPECT_TRUE(detector.alarmed());
  EXPECT_EQ(detector.GetStats().alarms, 1u);

  // Rearm clears the alarm but keeps the reference: the still-shifted
  // stream re-alarms (the retrain did not happen yet in this test).
  detector.Rearm();
  EXPECT_FALSE(detector.alarmed());
  bool realarmed = false;
  for (size_t i = 0; i < shifted.size() && !realarmed; ++i) {
    realarmed = detector.Observe(shifted[i], shifted_labels[i]);
  }
  EXPECT_TRUE(realarmed);

  // RefreezeReference re-learns "normal" from the shifted stream itself;
  // afterwards that stream no longer alarms.
  detector.RefreezeReference();
  bool post_refreeze_alarm = false;
  for (size_t i = 0; i < shifted.size(); ++i) {
    post_refreeze_alarm |=
        detector.Observe(shifted[i], shifted_labels[i]);
  }
  EXPECT_FALSE(post_refreeze_alarm);
}

TEST(DriftDetectorTest, LabelHistogramDistanceAlarms) {
  DriftDetector::Options o;
  o.reference_window = 64;
  o.detect_window = 32;
  o.tv_threshold = 0.25;
  o.num_classes = 2;
  DriftDetector detector(o);

  // Identical statements: every lexical feature is constant, so only the
  // label channel can alarm. Balanced labels in the reference...
  const std::string stmt = "SELECT ra, dec FROM specobj";
  for (int i = 0; i < 64; ++i) detector.Observe(stmt, i % 2);
  // ...then an all-ones label stream: TV distance rises to ~0.5.
  bool alarmed = false;
  for (int i = 0; i < 64 && !alarmed; ++i) alarmed = detector.Observe(stmt, 1);
  EXPECT_TRUE(alarmed);
  EXPECT_GT(detector.GetStats().label_tv, 0.25);
  EXPECT_LT(detector.GetStats().max_cusum, 1.0);  // lexical channel silent
}

// --- StreamTrainer ---------------------------------------------------------

Dataset LabeledStream(size_t n, uint64_t seed) {
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
    data.opt_costs.push_back(0.0);
  }
  return data;
}

TEST(StreamTrainerTest, TrainsACandidateOverTheWindow) {
  StreamTrainer::Options o;
  o.window_capacity = 512;
  o.min_batch = 128;
  o.num_classes = 2;
  std::vector<std::string> seen_tags;
  StreamTrainer trainer(o, [&](const models::SnapshotOptions& snap) {
    seen_tags.push_back(snap.tag);
    models::TfidfModel::Config cfg;
    cfg.epochs = 3;
    cfg.max_features = 2048;
    cfg.snapshot = snap;
    return std::make_unique<models::TfidfModel>(cfg);
  });

  EXPECT_FALSE(trainer.ReadyToTrain());
  Rng rng(5);
  EXPECT_EQ(trainer.TrainRound(&rng).status().code(),
            StatusCode::kInvalidArgument);  // window too small

  const Dataset stream = LabeledStream(256, 31);
  for (size_t i = 0; i < stream.statements.size(); ++i) {
    trainer.Ingest(stream.statements[i], stream.labels[i]);
  }
  ASSERT_TRUE(trainer.ReadyToTrain());
  auto candidate = trainer.TrainRound(&rng);
  ASSERT_TRUE(candidate.ok()) << candidate.status().ToString();

  // The candidate learned the (trivially separable) stream.
  size_t correct = 0;
  for (size_t i = 0; i < stream.statements.size(); ++i) {
    const auto probs = (*candidate)->Predict(stream.statements[i], 0.0);
    const int pred = probs[1] > probs[0] ? 1 : 0;
    correct += pred == stream.labels[i] ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(correct) / stream.statements.size(), 0.9);

  const auto stats = trainer.GetStats();
  EXPECT_EQ(stats.rounds, 1u);
  EXPECT_EQ(stats.pending, 0u);  // fresh-sample counter reset on success
  EXPECT_EQ(stats.ingested, 256u);
  // Round-scoped snapshot tag flowed into the model factory.
  ASSERT_EQ(seen_tags.size(), 1u);
  EXPECT_EQ(seen_tags[0], "stream_round_1");
  EXPECT_FALSE(trainer.ReadyToTrain());
}

TEST(StreamTrainerTest, FailedRoundKeepsPendingAndRetries) {
  StreamTrainer::Options o;
  o.window_capacity = 64;
  o.min_batch = 32;
  o.num_classes = 2;
  int calls = 0;
  StreamTrainer trainer(o, [&](const models::SnapshotOptions&) {
    // First round declines (factory returns null), second succeeds.
    return ++calls == 1
               ? nullptr
               : models::ModelPtr(std::make_unique<models::MfreqModel>());
  });
  const Dataset stream = LabeledStream(48, 37);
  for (size_t i = 0; i < stream.statements.size(); ++i) {
    trainer.Ingest(stream.statements[i], stream.labels[i]);
  }
  Rng rng(9);
  EXPECT_EQ(trainer.TrainRound(&rng).status().code(), StatusCode::kInternal);
  EXPECT_EQ(trainer.GetStats().failed_rounds, 1u);
  EXPECT_TRUE(trainer.ReadyToTrain());  // pending NOT consumed by failure
  EXPECT_TRUE(trainer.TrainRound(&rng).ok());
  EXPECT_EQ(trainer.GetStats().rounds, 1u);
}

// --- Swap storm under concurrent serving (TSan prime target) ---------------

TEST(LifecycleConcurrencyTest, SwapStormNeverFailsARequest) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(GoodModel("a"), "seed").ok());

  Dataset train = LabeledStream(64, 41);
  serving::ServerOptions options;
  options.num_shards = 2;
  options.queue_depth = 4096;
  options.batch_window_us = 50;
  serving::Server server(
      [&](size_t) {
        Rng rng(17);
        auto baseline = std::make_unique<models::MfreqModel>();
        baseline->Fit(train, train, &rng);
        return std::make_unique<serving::ResilientModel>(
            &registry, std::move(baseline));
      },
      options);

  const auto statements = SampleStatements(128, 43);
  constexpr int kClients = 4;
  constexpr int kCallsPerClient = 250;
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> failed{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kCallsPerClient; ++i) {
        const auto& stmt = statements[(c * kCallsPerClient + i) %
                                      statements.size()];
        serving::ServerReply reply = server.Call(stmt, 0.0);
        if (reply.status.ok() && !reply.prediction.empty()) {
          served.fetch_add(1, std::memory_order_relaxed);
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Swap storm: 60 hot publishes (alternating weights) while the clients
  // hammer the server. No request may ever fail because of a swap.
  uint64_t swaps = 0;
  auto a = GoodModel("a2");
  auto b = GoodModel("b2");
  for (int i = 0; i < 60; ++i) {
    auto published =
        registry.Publish(i % 2 == 0 ? b : a, "storm#" + std::to_string(i));
    ASSERT_TRUE(published.ok());
    ++swaps;
    std::this_thread::yield();
  }
  for (auto& t : clients) t.join();
  server.Shutdown();

  EXPECT_EQ(swaps, 60u);
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(served.load(),
            static_cast<uint64_t>(kClients) * kCallsPerClient);
  const auto stats = server.GetStats();
  EXPECT_EQ(stats.tiers.failed, 0u);
  EXPECT_EQ(registry.generation(), 61u);
}

}  // namespace
}  // namespace sqlfacil::lifecycle
