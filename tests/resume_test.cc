// Crash-safe resumable training (ISSUE 5): interrupt/resume bit-identity
// for every model family, snapshot fingerprinting, corrupt/truncated/stale
// snapshot handling (typed Status + clean cold start, never a crash),
// atomic-save survival under a rename fault, and optimizer-state
// round-trips on both the scalar and SIMD kernel paths.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sqlfacil/models/checkpoint.h"
#include "sqlfacil/models/cnn_model.h"
#include "sqlfacil/models/lstm_model.h"
#include "sqlfacil/models/multitask_model.h"
#include "sqlfacil/models/tfidf_model.h"
#include "sqlfacil/models/train_state.h"
#include "sqlfacil/nn/optim.h"
#include "sqlfacil/nn/simd.h"
#include "sqlfacil/util/drain.h"
#include "sqlfacil/util/failpoint.h"
#include "sqlfacil/util/random.h"
#include "sqlfacil/util/thread_pool.h"
#include "simd_levels.h"
#include "tiers.h"

namespace sqlfacil {
namespace {

using models::Dataset;
using models::MultiTaskDataset;
using models::SnapshotOptions;
using models::TaskKind;
using models::TrainSnapshotter;
using models::TrainState;

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

MultiTaskDataset SyntheticMultiTask(size_t n, uint64_t seed) {
  MultiTaskDataset data;
  data.num_error_classes = 2;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const bool big = rng.Bernoulli(0.5);
    data.statements.push_back(
        big ? "SELECT * FROM Galaxy WHERE r < " + std::to_string(i % 30)
            : "SELECT objid FROM Star WHERE objid = " + std::to_string(i));
    data.error_labels.push_back(big ? 1 : 0);
    data.cpu_targets.push_back(big ? 4.0f : 1.0f);
    data.answer_targets.push_back(big ? 6.0f : 0.0f);
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

template <typename Model>
std::string Bytes(const Model& model) {
  std::ostringstream out;
  Status s = model.SaveTo(out);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return std::move(out).str();
}

// RAII: the drain flag is process-global; leave every test with it clear.
struct DrainGuard {
  ~DrainGuard() { train::ClearDrain(); }
};

// A unique per-test snapshot directory, emptied of any earlier snapshots
// (tests share TempDir and gtest may reuse the process).
std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/resume_" + name;
  (void)std::system(("rm -rf '" + dir + "' && mkdir -p '" + dir + "'").c_str());
  return dir;
}

// --- Interrupt/resume bit-identity per family ------------------------------

// Trains to completion through a gauntlet of single-step runs: the drain
// flag is raised BEFORE each `run(&model)` (a Fit or FineTune from a fresh
// Rng), so every run applies exactly one batch (or finalizes one epoch),
// snapshots, and returns — the harshest possible interruption schedule,
// every interrupt point is hit. The final clean run must produce weights
// and a ValidLoss trajectory bit-identical to one uninterrupted run.
template <typename Model, typename Config, typename Run>
void StepwiseResumeBitIdentical(Config config, const std::string& tag,
                                const Run& run) {
  DrainGuard drain_guard;
  Model reference(config);  // snapshots off: config.snapshot.dir is empty
  run(&reference);

  config.snapshot.dir = FreshDir(tag);
  config.snapshot.every = 1;
  for (int i = 0; i < 40; ++i) {
    train::ClearDrain();
    train::RequestDrain();
    Model step(config);
    run(&step);
  }
  train::ClearDrain();
  Model resumed(config);
  run(&resumed);

  EXPECT_EQ(Bytes(reference), Bytes(resumed))
      << tag << ": weights diverged after step-wise interruption";
  ASSERT_EQ(reference.valid_history().size(), resumed.valid_history().size());
  for (size_t e = 0; e < reference.valid_history().size(); ++e) {
    EXPECT_EQ(reference.valid_history()[e], resumed.valid_history()[e])
        << tag << ": ValidLoss diverged at epoch " << e;
  }
}

template <typename Model, typename Data>
auto FitFrom(const Data& train_set, const Data& valid_set) {
  return [&train_set, &valid_set](Model* model) {
    Rng rng(7);
    model->Fit(train_set, valid_set, &rng);
  };
}

// With no validation split every epoch counts as the best, so a fit keeps
// its last epoch: two epochs end on other weights than one, and each
// epoch's ValidLoss reads 0.
template <typename Model, typename Config, typename Data>
void EmptyValidKeepsLastEpoch(Config config, const Data& train_set) {
  const Data no_valid;
  std::string bytes[2];
  for (int epochs : {1, 2}) {
    config.epochs = epochs;
    Model model(config);
    FitFrom<Model>(train_set, no_valid)(&model);
    bytes[epochs - 1] = Bytes(model);
    EXPECT_EQ(model.valid_history(), std::vector<double>(epochs, 0.0));
  }
  EXPECT_NE(bytes[0], bytes[1]) << "the last epoch was not kept";
}

template <typename Model, typename Config>
void StepwiseResumeBitIdentical(const Config& config, const std::string& tag) {
  const Dataset train_set = SyntheticClassification(18, 201);
  const Dataset valid_set = SyntheticClassification(6, 202);
  StepwiseResumeBitIdentical<Model>(config, tag,
                                    FitFrom<Model>(train_set, valid_set));
  EmptyValidKeepsLastEpoch<Model>(config, train_set);
}

TEST(ResumeTest, TfidfStepwiseResumeBitIdentical) {
  models::TfidfModel::Config config;
  config.granularity = sql::Granularity::kWord;
  config.max_features = 512;
  config.epochs = 3;
  config.batch_size = 6;
  StepwiseResumeBitIdentical<models::TfidfModel>(config, "tfidf");
}

TEST(ResumeTest, CnnStepwiseResumeBitIdentical) {
  models::CnnModel::Config config;
  config.granularity = sql::Granularity::kWord;
  config.embed_dim = 4;
  config.kernels_per_width = 4;
  config.widths = {2, 3};
  config.epochs = 2;
  config.batch_size = 6;
  StepwiseResumeBitIdentical<models::CnnModel>(config, "cnn");

  // FineTune runs the same loop from a fitted network: fit once without
  // snapshots, then fine-tune for 2 epochs on a second dataset.
  std::string fitted;
  {
    models::CnnModel base(config);
    Rng rng(7);
    base.Fit(SyntheticClassification(18, 201), SyntheticClassification(6, 202),
             &rng);
    fitted = Bytes(base);
  }
  const Dataset tune_train = SyntheticClassification(18, 211);
  const Dataset tune_valid = SyntheticClassification(6, 212);
  StepwiseResumeBitIdentical<models::CnnModel>(
      config, "cnn_finetune", [&](models::CnnModel* model) {
        std::istringstream in(fitted);
        ASSERT_TRUE(model->LoadFrom(in).ok());
        Rng rng(9);
        model->FineTune(tune_train, tune_valid, /*epochs=*/2, &rng);
      });
}

TEST(ResumeTest, LstmStepwiseResumeBitIdentical) {
  models::LstmModel::Config config;
  config.granularity = sql::Granularity::kWord;
  config.embed_dim = 4;
  config.hidden_dim = 8;
  config.num_layers = 1;
  config.epochs = 2;
  config.batch_size = 6;
  StepwiseResumeBitIdentical<models::LstmModel>(config, "lstm");
}

TEST(ResumeTest, MultitaskStepwiseResumeBitIdentical) {
  MultiTaskDataset train_set = SyntheticMultiTask(18, 203);
  const MultiTaskDataset valid_set = SyntheticMultiTask(6, 204);
  auto unlabel = [](MultiTaskDataset* data, size_t i) {
    data->error_labels[i] = -1;
    data->cpu_targets[i] = std::nanf("");
    data->answer_targets[i] = std::nanf("");
  };
  // Unlabeled rows exercise the no-loss batch path's cursor accounting.
  unlabel(&train_set, 2);
  // Only 2 of 18 rows labeled: every epoch (3 batches of 6) has a fully
  // unlabeled batch, which takes no step.
  MultiTaskDataset sparse = train_set;
  for (size_t i = 2; i < sparse.size(); ++i) unlabel(&sparse, i);

  models::MultiTaskCnnModel::Config config;
  config.embed_dim = 4;
  config.kernels_per_width = 4;
  config.widths = {2, 3};
  config.epochs = 2;
  config.batch_size = 6;
  using models::MultiTaskCnnModel;
  StepwiseResumeBitIdentical<MultiTaskCnnModel>(
      config, "mtcnn", FitFrom<MultiTaskCnnModel>(train_set, valid_set));
  StepwiseResumeBitIdentical<MultiTaskCnnModel>(
      config, "mtcnn_sparse", FitFrom<MultiTaskCnnModel>(sparse, valid_set));
  EmptyValidKeepsLastEpoch<MultiTaskCnnModel>(config, train_set);
}

// A snapshot taken at 8 threads at any SIMD level must resume
// bit-identically at 1 thread on the scalar kernels — thread count and SIMD
// level are excluded from the fingerprint because the determinism contract
// makes them output-invariant.
TEST(ResumeTest, CrossThreadCrossSimdResumeBitIdentical) {
  DrainGuard drain_guard;
  SimdLevelGuard simd_guard;
  const Dataset train_set = SyntheticClassification(18, 205);
  const Dataset valid_set = SyntheticClassification(6, 206);
  models::CnnModel::Config config;
  config.granularity = sql::Granularity::kWord;
  config.embed_dim = 4;
  config.kernels_per_width = 4;
  config.widths = {2, 3};
  config.epochs = 2;
  config.batch_size = 6;

  ThreadPool::SetGlobalThreads(1);
  nn::simd::SetLevel(nn::simd::Level::kScalar);
  models::CnnModel reference(config);
  {
    Rng rng(7);
    reference.Fit(train_set, valid_set, &rng);
  }

  for (const nn::simd::Level level : SupportedSimdLevels()) {
    config.snapshot.dir =
        FreshDir("xthread" + std::to_string(static_cast<int>(level)));
    config.snapshot.every = 1;
    // Interrupt a few steps at 8 threads at this level...
    ThreadPool::SetGlobalThreads(8);
    nn::simd::SetLevel(level);
    for (int i = 0; i < 3; ++i) {
      train::ClearDrain();
      train::RequestDrain();
      models::CnnModel step(config);
      Rng rng(7);
      step.Fit(train_set, valid_set, &rng);
    }
    // ...and finish serial/scalar.
    train::ClearDrain();
    ThreadPool::SetGlobalThreads(1);
    nn::simd::SetLevel(nn::simd::Level::kScalar);
    models::CnnModel resumed(config);
    {
      Rng rng(7);
      resumed.Fit(train_set, valid_set, &rng);
    }
    EXPECT_EQ(Bytes(reference), Bytes(resumed)) << SimdLevelTag(level);
  }
  ThreadPool::SetGlobalThreads(1);
}

// --- Snapshot rejection: cold start, never crash or divergence -------------

class SnapshotRejectionTest : public ::testing::Test {
 protected:
  models::TfidfModel::Config BaseConfig() {
    models::TfidfModel::Config config;
    config.granularity = sql::Granularity::kWord;
    config.max_features = 512;
    config.epochs = 3;
    config.batch_size = 6;
    return config;
  }

  // Fit with a populated snapshot dir; returns the trained bytes.
  std::string FitWith(models::TfidfModel::Config config,
                      const Dataset& train_set, const Dataset& valid_set) {
    models::TfidfModel model(config);
    Rng rng(7);
    model.Fit(train_set, valid_set, &rng);
    return Bytes(model);
  }

  const Dataset train_ = SyntheticClassification(18, 207);
  const Dataset valid_ = SyntheticClassification(6, 208);
};

TEST_F(SnapshotRejectionTest, FingerprintMismatchColdStarts) {
  auto config = BaseConfig();
  const std::string clean = FitWith(config, train_, valid_);

  config.snapshot.dir = FreshDir("fpmismatch");
  config.snapshot.tag = "snap";
  // Leave behind a snapshot from a DIFFERENT dataset...
  const Dataset other_train = SyntheticClassification(18, 209);
  const Dataset other_valid = SyntheticClassification(6, 210);
  FitWith(config, other_train, other_valid);
  // ...then train the real one against the same dir: the stale snapshot's
  // fingerprint mismatches, training cold-starts and matches a clean run.
  EXPECT_EQ(clean, FitWith(config, train_, valid_));
}

TEST_F(SnapshotRejectionTest, CorruptAndTruncatedSnapshotsColdStart) {
  auto config = BaseConfig();
  const std::string clean = FitWith(config, train_, valid_);

  config.snapshot.dir = FreshDir("corrupt");
  config.snapshot.tag = "snap";
  FitWith(config, train_, valid_);
  const std::string snap_path = config.snapshot.dir + "/snap.snap";
  const std::string intact = ReadFile(snap_path);
  ASSERT_GT(intact.size(), 64u);

  // Payload bit flip: the CRC rejects it; training cold-starts bit-equal.
  std::string flipped = intact;
  flipped[intact.size() / 2] ^= 0x20;
  WriteFile(snap_path, flipped);
  EXPECT_EQ(clean, FitWith(config, train_, valid_));

  // Truncations at several depths, including mid-frame and mid-payload.
  for (size_t len : {size_t{0}, size_t{7}, size_t{19}, intact.size() / 3,
                     intact.size() - 2}) {
    WriteFile(snap_path, intact.substr(0, len));
    EXPECT_EQ(clean, FitWith(config, train_, valid_))
        << "truncation at " << len << " changed the trained weights";
  }
}

TEST_F(SnapshotRejectionTest, LoadFailpointsColdStartNotCrash) {
  auto config = BaseConfig();
  const std::string clean = FitWith(config, train_, valid_);
  config.snapshot.dir = FreshDir("loadfp");
  config.snapshot.tag = "snap";
  FitWith(config, train_, valid_);
  {
    failpoint::ScopedFailpoints fp("train.snapshot_load:error");
    EXPECT_EQ(clean, FitWith(config, train_, valid_));
  }
  {
    failpoint::ScopedFailpoints fp("train.snapshot_load:corrupt");
    EXPECT_EQ(clean, FitWith(config, train_, valid_));
  }
}

TEST_F(SnapshotRejectionTest, SaveFailpointsNeverFailTraining) {
  auto config = BaseConfig();
  const std::string clean = FitWith(config, train_, valid_);
  config.snapshot.dir = FreshDir("savefp");
  config.snapshot.tag = "snap";
  {
    // Every snapshot write fails; training must complete normally.
    failpoint::ScopedFailpoints fp("train.snapshot_save:error");
    EXPECT_EQ(clean, FitWith(config, train_, valid_));
  }
  {
    // Every snapshot write is silently damaged: the frame still validates
    // but the payload is rejected at the next resume -> cold start.
    failpoint::ScopedFailpoints fp("train.snapshot_save:corrupt");
    EXPECT_EQ(clean, FitWith(config, train_, valid_));
    EXPECT_EQ(clean, FitWith(config, train_, valid_));
  }
}

// --- Snapshotter unit behavior ---------------------------------------------

TrainState SmallState(int32_t epoch) {
  TrainState state;
  state.epoch = epoch;
  state.batch_cursor = 0;
  state.best_valid = 0.5;
  state.valid_history = {1.0, 0.75};
  state.params.emplace_back(std::vector<int>{2, 2});
  state.best_params.emplace_back(std::vector<int>{2, 2});
  return state;
}

TEST(TrainSnapshotterTest, SerializeRoundTrip) {
  TrainState state = SmallState(2);
  state.fingerprint = 0xabcdefULL;
  state.generation = 9;
  state.batch_cursor = 3;
  state.rng = Rng(11).state();
  state.opt_state = "opaque optimizer bytes";
  state.params[0].data()[3] = 1.25f;
  auto parsed = models::DeserializeTrainState(
      models::SerializeTrainState(state));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->fingerprint, state.fingerprint);
  EXPECT_EQ(parsed->generation, state.generation);
  EXPECT_EQ(parsed->epoch, state.epoch);
  EXPECT_EQ(parsed->batch_cursor, state.batch_cursor);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(parsed->rng.s[i], state.rng.s[i]);
  EXPECT_EQ(parsed->best_valid, state.best_valid);
  EXPECT_EQ(parsed->valid_history, state.valid_history);
  EXPECT_EQ(parsed->params[0].data()[3], 1.25f);
  EXPECT_EQ(parsed->opt_state, state.opt_state);
}

TEST(TrainSnapshotterTest, RenameFaultPreservesPreviousSnapshot) {
  SnapshotOptions options;
  options.dir = FreshDir("renamefault");
  options.tag = "snap";
  TrainSnapshotter snap(options, "unused", /*fingerprint=*/42);
  ASSERT_TRUE(snap.Save(SmallState(1)).ok());
  {
    // The atomic-install step fails mid-save: the temp file is discarded
    // and the previous snapshot must survive untouched.
    failpoint::ScopedFailpoints fp("checkpoint.rename:error");
    EXPECT_FALSE(snap.Save(SmallState(2)).ok());
  }
  auto resumed = snap.TryResume(/*max_epochs=*/4, /*batches_per_epoch=*/3);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->epoch, 1);
  std::ifstream tmp(snap.path() + ".tmp");
  EXPECT_FALSE(tmp.good()) << "temp file left behind";
}

TEST(TrainSnapshotterTest, StaleAndMismatchedSnapshotsRejectedTyped) {
  SnapshotOptions options;
  options.dir = FreshDir("stale");
  options.tag = "snap";
  TrainSnapshotter snap(options, "unused", 42);
  ASSERT_TRUE(snap.Save(SmallState(3)).ok());

  // Same fingerprint but the schedule ended at epoch 2: stale.
  auto stale = snap.TryResume(/*max_epochs=*/2, /*batches_per_epoch=*/3);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kInvalidArgument);

  // A different run (fingerprint) must not adopt this snapshot.
  TrainSnapshotter other(options, "unused", 43);
  auto mismatch = other.TryResume(4, 3);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument);

  // Absent file: kNotFound (the silent cold-start path).
  SnapshotOptions missing;
  missing.dir = options.dir;
  missing.tag = "does_not_exist";
  TrainSnapshotter none(missing, "unused", 42);
  auto not_found = none.TryResume(4, 3);
  ASSERT_FALSE(not_found.ok());
  EXPECT_EQ(not_found.status().code(), StatusCode::kNotFound);

  // A mid-epoch cursor beyond the epoch's batch count: stale/corrupt run
  // shape, rejected as kInvalidArgument.
  TrainState wild = SmallState(1);
  wild.batch_cursor = 99;
  ASSERT_TRUE(snap.Save(std::move(wild)).ok());
  auto beyond = snap.TryResume(4, 3);
  ASSERT_FALSE(beyond.ok());
  EXPECT_EQ(beyond.status().code(), StatusCode::kInvalidArgument);
}

TEST(TrainSnapshotterTest, GenerationIsMonotonicAcrossResumes) {
  SnapshotOptions options;
  options.dir = FreshDir("generation");
  options.tag = "snap";
  TrainSnapshotter a(options, "unused", 42);
  ASSERT_TRUE(a.Save(SmallState(1)).ok());
  ASSERT_TRUE(a.Save(SmallState(2)).ok());
  auto second = a.TryResume(4, 3);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->generation, 2u);
  // A new run that resumes gen-2 continues at gen 3, not back at 1.
  TrainSnapshotter b(options, "unused", 42);
  ASSERT_TRUE(b.TryResume(4, 3).ok());
  ASSERT_TRUE(b.Save(SmallState(3)).ok());
  auto third = b.TryResume(4, 3);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->generation, 3u);
}

// --- Optimizer state round-trips (scalar and SIMD paths) -------------------

std::vector<nn::Var> MakeParams(uint64_t seed) {
  Rng rng(seed);
  std::vector<nn::Var> params;
  for (const auto& shape :
       {std::vector<int>{3, 4}, std::vector<int>{1, 4}}) {
    nn::Tensor t(shape);
    for (size_t i = 0; i < t.size(); ++i) {
      t.data()[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
    params.push_back(nn::MakeParam(std::move(t)));
  }
  return params;
}

void FillGrads(const std::vector<nn::Var>& params, uint64_t seed) {
  Rng rng(seed);
  for (const auto& p : params) {
    nn::Tensor& g = p->EnsureGrad();
    for (size_t i = 0; i < g.size(); ++i) {
      g.data()[i] = static_cast<float>(rng.Uniform(-0.5, 0.5));
    }
  }
}

// Steps `a` a few times, serializes its state into a fresh optimizer over
// identical params, then steps both once more with identical gradients:
// the resulting parameter values must match bit for bit.
template <typename Opt, typename... CtorArgs>
void OptimizerRoundTrip(CtorArgs... ctor_args) {
  auto params_a = MakeParams(301);
  auto params_b = MakeParams(301);
  Opt a(params_a, ctor_args...);
  for (uint64_t step = 0; step < 3; ++step) {
    FillGrads(params_a, 400 + step);
    a.Step();
    a.ZeroGrad();
  }
  std::ostringstream out;
  a.SaveState(out);

  // The resumed optimizer starts from a's post-step-3 params (as a resumed
  // trainer would restore them) and its serialized moments.
  for (size_t i = 0; i < params_a.size(); ++i) {
    params_b[i]->value = params_a[i]->value;
  }
  Opt b(params_b, ctor_args...);
  std::istringstream in(out.str());
  Status s = b.LoadState(in);
  ASSERT_TRUE(s.ok()) << s.ToString();

  FillGrads(params_a, 500);
  FillGrads(params_b, 500);
  a.Step();
  b.Step();
  for (size_t i = 0; i < params_a.size(); ++i) {
    for (size_t j = 0; j < params_a[i]->value.size(); ++j) {
      EXPECT_EQ(params_a[i]->value.data()[j], params_b[i]->value.data()[j])
          << "param " << i << " elem " << j;
    }
  }
}

template <typename Opt, typename... CtorArgs>
void OptimizerRoundTripAtEveryLevel(CtorArgs... ctor_args) {
  SimdLevelGuard guard;
  for (const nn::simd::Level level : SupportedSimdLevels()) {
    nn::simd::SetLevel(level);
    OptimizerRoundTrip<Opt>(ctor_args...);
  }
}

TEST(OptimizerStateTest, AdamRoundTripStepsBitIdentical) {
  OptimizerRoundTripAtEveryLevel<nn::Adam>(1e-2f);
}

TEST(OptimizerStateTest, AdaMaxRoundTripStepsBitIdentical) {
  OptimizerRoundTripAtEveryLevel<nn::AdaMax>(2e-2f);
}

TEST(OptimizerStateTest, SgdRoundTripStepsBitIdentical) {
  OptimizerRoundTripAtEveryLevel<nn::Sgd>(1e-2f, 1e-4f);
}

TEST(OptimizerStateTest, LoadRejectsMismatchedStateUntouched) {
  auto params = MakeParams(311);
  nn::Adam adam(params, 1e-2f);
  FillGrads(params, 312);
  adam.Step();
  std::ostringstream out;
  adam.SaveState(out);

  // Different parameter shapes: LoadState must reject and leave the target
  // optimizer stepping exactly as if the load never happened.
  nn::Tensor t(std::vector<int>{5, 5});
  std::vector<nn::Var> other = {nn::MakeParam(std::move(t))};
  nn::Adam fresh(other, 1e-2f);
  std::istringstream in(out.str());
  EXPECT_FALSE(fresh.LoadState(in).ok());

  // AdaMax state into an Adam optimizer: tag mismatch, typed rejection.
  nn::AdaMax adamax(MakeParams(311), 2e-2f);
  std::ostringstream amax_out;
  adamax.SaveState(amax_out);
  nn::Adam target(MakeParams(311), 1e-2f);
  std::istringstream amax_in(amax_out.str());
  EXPECT_FALSE(target.LoadState(amax_in).ok());
}

// --- End-to-end under the CI failpoint matrix ------------------------------

// Run by scripts/ci.sh with SQLFACIL_FAILPOINTS set to snapshot-layer
// faults (save errors, corrupt loads, rename failures): training must
// reach completion and produce a usable model — snapshot faults degrade
// durability, never training itself.
TEST(ResumeEndToEndTest, TrainsToCompletionUnderEnvFailpoints) {
  failpoint::ConfigureFromEnv();
  DrainGuard drain_guard;
  const Dataset train_set = SyntheticClassification(24, 221);
  const Dataset valid_set = SyntheticClassification(8, 222);
  models::CnnModel::Config config;
  config.granularity = sql::Granularity::kWord;
  config.embed_dim = 4;
  config.kernels_per_width = 4;
  config.widths = {2, 3};
  config.epochs = 2;
  config.batch_size = 8;
  config.snapshot.dir = FreshDir("e2e_env");
  config.snapshot.tag = "snap";

  // Two full runs: the second exercises whatever resume path the injected
  // faults left behind (intact, damaged, or missing snapshot).
  for (int round = 0; round < 2; ++round) {
    models::CnnModel model(config);
    Rng rng(7);
    model.Fit(train_set, valid_set, &rng);
    ASSERT_EQ(model.valid_history().size(), 2u) << "round " << round;
    OnBothTiers(model, {}, [&] {
      const auto probs = model.Predict(train_set.statements[0], 0.0);
      ASSERT_EQ(probs.size(), 2u);
      float sum = 0.0f;
      for (float p : probs) sum += p;
      EXPECT_NEAR(sum, 1.0f, 1e-4f) << "round " << round;
    });
  }
  failpoint::Clear();
}

}  // namespace
}  // namespace sqlfacil
