// Tests for the batched inference fast path: arena lifetime, SIMD kernel
// bit-identity across dispatch, PredictBatch == per-query Predict for every
// model family, the serving chain's prediction cache (hits bit-identical to
// misses, normalization, LRU eviction, batch dedup, precision tier and
// opt-cost in the key), and the serving front end.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "sqlfacil/models/baselines.h"
#include "sqlfacil/models/cnn_model.h"
#include "sqlfacil/models/lstm_model.h"
#include "sqlfacil/models/tfidf_model.h"
#include "sqlfacil/nn/arena.h"
#include "sqlfacil/nn/quant.h"
#include "sqlfacil/nn/simd.h"
#include "sqlfacil/serving/admission_queue.h"
#include "sqlfacil/serving/loadgen.h"
#include "sqlfacil/serving/prediction_cache.h"
#include "sqlfacil/serving/resilient_model.h"
#include "sqlfacil/serving/server.h"
#include "sqlfacil/util/drain.h"
#include "sqlfacil/util/failpoint.h"
#include "sqlfacil/util/random.h"
#include "sqlfacil/util/thread_pool.h"

namespace sqlfacil {
namespace {

// Opt in to env-driven fault injection: the CI failpoint matrix re-runs
// this binary under benign (delay-mode) SQLFACIL_FAILPOINTS specs to prove
// serving results are latency-invariant.
[[maybe_unused]] const bool kFailpointsFromEnv = [] {
  failpoint::ConfigureFromEnv();
  return true;
}();

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

void ExpectBitIdentical(const std::vector<std::vector<float>>& a,
                        const std::vector<std::vector<float>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << "example " << i;
    for (size_t c = 0; c < a[i].size(); ++c) {
      EXPECT_EQ(a[i][c], b[i][c]) << "example " << i << " output " << c;
    }
  }
}

// Per-query Predict loop (the slow path PredictBatch must reproduce).
template <typename Model>
std::vector<std::vector<float>> PredictLoop(
    const Model& model, const std::vector<std::string>& statements) {
  std::vector<std::vector<float>> preds;
  for (const auto& s : statements) preds.push_back(model.Predict(s, 0.0));
  return preds;
}

// --- Arena -----------------------------------------------------------------

TEST(ArenaTest, BumpAllocationAndReuse) {
  nn::Arena arena;
  float* a = arena.Alloc(5);
  float* b = arena.Alloc(3);
  // Rounded to 8 floats: second allocation starts one stride later.
  EXPECT_EQ(b, a + 8);
  arena.Reset();
  // Same sequence after Reset lands on the same storage — no new blocks.
  EXPECT_EQ(arena.Alloc(5), a);
  EXPECT_EQ(arena.num_blocks(), 1u);
}

TEST(ArenaTest, ResetCoalescesBlocks) {
  nn::Arena arena;
  // Force several blocks.
  for (int i = 0; i < 4; ++i) arena.Alloc(size_t{1} << 16);
  EXPECT_GT(arena.num_blocks(), 1u);
  const size_t reserved = arena.reserved_floats();
  arena.Reset();
  EXPECT_EQ(arena.num_blocks(), 1u);
  EXPECT_EQ(arena.reserved_floats(), reserved);
  // The whole former footprint now fits in block 0: steady state allocates
  // no further memory.
  for (int i = 0; i < 4; ++i) arena.Alloc(size_t{1} << 16);
  EXPECT_EQ(arena.num_blocks(), 1u);
}

TEST(ArenaTest, AllocZeroZeroes) {
  nn::Arena arena;
  float* p = arena.Alloc(16);
  for (int i = 0; i < 16; ++i) p[i] = 1.0f;
  arena.Reset();
  float* z = arena.AllocZero(16);
  ASSERT_EQ(z, p);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(z[i], 0.0f);
}

// --- SIMD kernels ----------------------------------------------------------

class SimdGuard {
 public:
  SimdGuard() : saved_(nn::simd::Enabled()) {}
  ~SimdGuard() { nn::simd::SetEnabled(saved_); }

 private:
  bool saved_;
};

TEST(SimdTest, KernelsBitIdenticalAcrossDispatch) {
  if (!nn::simd::HasAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  SimdGuard guard;
  Rng rng(123);
  // Lengths straddle the 8-lane boundary, including scalar-tail cases.
  for (size_t n : {1, 7, 8, 9, 31, 64, 100}) {
    std::vector<float> x(n), y(n), base(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = static_cast<float>(rng.Uniform(-2.0, 2.0));
      y[i] = static_cast<float>(rng.Uniform(-2.0, 2.0));
      base[i] = static_cast<float>(rng.Uniform(-2.0, 2.0));
    }
    auto run = [&](bool simd_on) {
      nn::simd::SetEnabled(simd_on);
      struct Out {
        std::vector<float> axpy, add, sub, mul, mulacc, scale, relu;
        float dot;
      } out;
      out.axpy = base;
      nn::simd::Axpy(out.axpy.data(), x.data(), 1.7f, n);
      out.add = base;
      nn::simd::AddAcc(out.add.data(), x.data(), n);
      out.sub = base;
      nn::simd::SubAcc(out.sub.data(), x.data(), n);
      out.mul = base;
      nn::simd::Mul(out.mul.data(), x.data(), n);
      out.mulacc = base;
      nn::simd::MulAcc(out.mulacc.data(), x.data(), y.data(), n);
      out.scale = base;
      nn::simd::Scale(out.scale.data(), 0.3f, n);
      out.relu = base;
      nn::simd::Relu(out.relu.data(), n);
      out.dot = nn::simd::Dot(x.data(), y.data(), n);
      return out;
    };
    const auto scalar = run(false);
    const auto avx2 = run(true);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(scalar.axpy[i], avx2.axpy[i]) << "axpy n=" << n;
      EXPECT_EQ(scalar.add[i], avx2.add[i]) << "add n=" << n;
      EXPECT_EQ(scalar.sub[i], avx2.sub[i]) << "sub n=" << n;
      EXPECT_EQ(scalar.mul[i], avx2.mul[i]) << "mul n=" << n;
      EXPECT_EQ(scalar.mulacc[i], avx2.mulacc[i]) << "mulacc n=" << n;
      EXPECT_EQ(scalar.scale[i], avx2.scale[i]) << "scale n=" << n;
      EXPECT_EQ(scalar.relu[i], avx2.relu[i]) << "relu n=" << n;
    }
    EXPECT_EQ(scalar.dot, avx2.dot) << "dot n=" << n;
  }
}

// Every matmul kernel and the max-over-time kernel, scalar spec against
// AVX2, compared bitwise (EXPECT_EQ on floats would let -0 match +0).
TEST(SimdTest, MatMulRowsBitIdenticalAcrossDispatch) {
  if (!nn::simd::HasAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  SimdGuard guard;
  Rng rng(321);
  auto random = [&rng](size_t size) {
    std::vector<float> v(size);
    for (auto& x : v) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
    return v;
  };
  // Runs `kernel` on a copy of `init` under each dispatch.
  auto same_bits = [](const std::vector<float>& init, const std::string& what,
                      const auto& kernel) {
    std::vector<float> scalar = init, avx2 = init;
    nn::simd::SetEnabled(false);
    kernel(scalar.data());
    nn::simd::SetEnabled(true);
    kernel(avx2.data());
    EXPECT_EQ(0, std::memcmp(scalar.data(), avx2.data(),
                             init.size() * sizeof(float)))
        << what;
  };

  // Column counts: scalar tail only (1, 7), whole 8-column groups with and
  // without a tail (8, 21, 48), the 64-column block alone and followed by
  // groups and a tail (64, 72, 136). m = 40 spans two GradB row tiles.
  const int m = 40, k = 37;
  for (int n : {1, 7, 8, 21, 48, 64, 72, 136}) {
    std::vector<float> A = random(m * k);
    for (size_t i = 0; i < A.size(); i += 5) A[i] = 0.0f;  // zero-skips
    const std::vector<float> B = random(k * n), G = random(m * n);
    const std::string at = " n=" + std::to_string(n);
    same_bits(random(m * n), "MatMulRows" + at, [&](float* C) {
      nn::simd::MatMulRows(A.data(), B.data(), C, 0, m, k, n);
    });
    same_bits(random(m * n), "MatMulRows rows [3, 9)" + at, [&](float* C) {
      nn::simd::MatMulRows(A.data(), B.data(), C, 3, 9, k, n);
    });
    same_bits(random(k * n), "MatMulGradBRows" + at, [&](float* dB) {
      nn::simd::MatMulGradBRows(A.data(), G.data(), dB, m, 0, k, k, n);
    });
    same_bits(random(k * n), "MatMulGradBRows k [5, 30)" + at,
              [&](float* dB) {
                nn::simd::MatMulGradBRows(A.data(), G.data(), dB, m, 5, 30,
                                          k, n);
              });
  }

  // GradA: remainder dots only (3), one and several eight-dot passes with
  // and without remainder dots (8, 13, 48), against lane tails only (5),
  // none (48) and whole blocks plus a tail (131).
  for (int kd : {3, 8, 13, 48}) {
    for (int n : {5, 48, 131}) {
      const std::vector<float> G = random(m * n), B = random(kd * n);
      const std::string at =
          " k=" + std::to_string(kd) + " n=" + std::to_string(n);
      same_bits(random(m * kd), "MatMulGradARows" + at, [&](float* dA) {
        nn::simd::MatMulGradARows(G.data(), B.data(), dA, 0, m, kd, n);
      });
      same_bits(random(m * kd), "MatMulGradARowsTo" + at, [&](float* dA) {
        nn::simd::MatMulGradARowsTo(G.data(), B.data(), dA, 0, m, kd, n);
      });
    }
  }

  // Max over time, over rows [0, 7) and [1, 7). Column j % 4 == 0 ties at
  // the max in rows 2 and 5 (row 2 wins); == 1 has a NaN in row 3 and the
  // max in row 4; == 2 holds -0 in row 1, +0 in row 4 and negatives
  // elsewhere (-0 stays); == 3 starts with NaN in rows 0 and 1 (it stays).
  const int rows = 7;
  const float nan = std::nanf("");
  for (int kc : {5, 8, 21, 48}) {
    std::vector<float> X = random(rows * kc);
    for (int j = 0; j < kc; ++j) {
      auto at = [&](int i) -> float& { return X[i * kc + j]; };
      if (j % 4 == 0) at(2) = at(5) = 5.0f;
      if (j % 4 == 1) {
        at(3) = nan;
        at(4) = 3.0f;
      }
      if (j % 4 == 2) {
        for (int i = 0; i < rows; ++i) at(i) = -1.0f;
        at(1) = -0.0f;
        at(4) = 0.0f;
      }
      if (j % 4 == 3) at(0) = at(1) = nan;
    }
    for (int begin : {0, 1}) {
      std::vector<float> out[2], plain[2];
      std::vector<int> arg[2];
      for (int path = 0; path < 2; ++path) {
        nn::simd::SetEnabled(path == 1);
        out[path].assign(kc, 0.0f);
        plain[path].assign(kc, 0.0f);
        arg[path].assign(kc, -1);
        nn::simd::MaxOverTime(X.data(), begin, rows, kc, out[path].data(),
                              arg[path].data());
        nn::simd::MaxOverTime(X.data(), begin, rows, kc, plain[path].data(),
                              nullptr);
      }
      const std::string at =
          " k=" + std::to_string(kc) + " begin=" + std::to_string(begin);
      for (int path = 0; path < 2; ++path) {
        const std::string where = at + (path == 1 ? " avx2" : " scalar");
        EXPECT_EQ(0, std::memcmp(out[path].data(), plain[path].data(),
                                 kc * sizeof(float)))
            << "argmax changes the max" << where;
        for (int j = 0; j < kc; ++j) {
          const float v = out[path][j];
          if (j % 4 == 0) {
            EXPECT_EQ(v, 5.0f) << where;
            EXPECT_EQ(arg[path][j], 2) << "tie keeps the first row" << where;
          } else if (j % 4 == 1) {
            EXPECT_EQ(v, 3.0f) << where;
            EXPECT_EQ(arg[path][j], 4) << "NaN never wins" << where;
          } else if (j % 4 == 2) {
            EXPECT_TRUE(v == 0.0f && std::signbit(v)) << "-0 stays" << where;
            EXPECT_EQ(arg[path][j], 1) << where;
          } else {
            EXPECT_TRUE(std::isnan(v)) << "a first-row NaN stays" << where;
            EXPECT_EQ(arg[path][j], begin) << where;
          }
        }
      }
      EXPECT_EQ(0, std::memcmp(out[0].data(), out[1].data(),
                               kc * sizeof(float)))
          << "max" << at;
      EXPECT_EQ(arg[0], arg[1]) << "argmax" << at;
    }
  }
}

// --- PredictBatch == Predict ----------------------------------------------

TEST(PredictBatchTest, TfidfMatchesPredict) {
  const Dataset train = SyntheticClassification(60, 1);
  const Dataset test = SyntheticClassification(25, 2);
  models::TfidfModel::Config config;
  config.epochs = 2;
  config.granularity = sql::Granularity::kWord;
  models::TfidfModel model(config);
  Rng rng(7);
  model.Fit(train, train, &rng);
  ExpectBitIdentical(model.PredictBatch(test.statements),
                     PredictLoop(model, test.statements));
}

TEST(PredictBatchTest, CnnMatchesPredict) {
  const Dataset train = SyntheticClassification(40, 3);
  const Dataset test = SyntheticClassification(40, 4);
  models::CnnModel::Config config;
  config.granularity = sql::Granularity::kWord;
  config.embed_dim = 4;
  config.kernels_per_width = 4;
  config.widths = {2, 3};
  config.epochs = 1;
  models::CnnModel model(config);
  Rng rng(7);
  model.Fit(train, train, &rng);
  // 40 queries > the 32-query slice, so slicing boundaries are exercised.
  ExpectBitIdentical(model.PredictBatch(test.statements),
                     PredictLoop(model, test.statements));
}

TEST(PredictBatchTest, LstmMatchesPredict) {
  const Dataset train = SyntheticClassification(40, 5);
  const Dataset test = SyntheticClassification(30, 6);
  models::LstmModel::Config config;
  config.granularity = sql::Granularity::kWord;
  config.embed_dim = 4;
  config.hidden_dim = 8;
  config.num_layers = 2;
  config.epochs = 1;
  config.batch_size = 8;
  models::LstmModel model(config);
  Rng rng(7);
  model.Fit(train, train, &rng);
  ExpectBitIdentical(model.PredictBatch(test.statements),
                     PredictLoop(model, test.statements));
}

TEST(PredictBatchTest, LstmEdgeCases) {
  const auto saved = nn::quant::ActivePrecision();
  const Dataset train = SyntheticClassification(30, 8);
  // One word-level layer, and the shipped clstm depth: three char-level
  // layers, each updating its state in place.
  models::LstmModel::Config word;
  word.granularity = sql::Granularity::kWord;
  word.embed_dim = 4;
  word.hidden_dim = 8;
  word.num_layers = 1;
  word.epochs = 1;
  word.batch_size = 4;
  word.max_len_word = 8;
  models::LstmModel::Config chars = word;
  chars.granularity = sql::Granularity::kChar;
  chars.num_layers = 3;
  chars.max_len_char = 40;

  const std::string long_a =
      "SELECT COUNT(*) FROM photoobj WHERE objid = 1 AND ra > 0 AND "
      "dec < 10 ORDER BY objid";
  const std::string long_b =
      "SELECT ra, dec, objid, specobjid FROM specobj WHERE specobjid = 99 "
      "AND ra BETWEEN 1 AND 2 AND dec BETWEEN 3 AND 4";
  const std::vector<std::string> one = {train.statements[0]};
  // Mixed lengths: empty statement (pads to <UNK>), a single token, and
  // wildly different lengths in one batch to force uneven buckets.
  const std::vector<std::string> mixed = {"", "SELECT", long_a,
                                          "SELECT ra FROM specobj", long_b};
  // More rows than batch_size: equal-length ties (same length, different
  // text) and statements cut at max_len, which tie at the cap.
  const std::vector<std::string> ties = {
      "SELECT a FROM t", long_a, "SELECT b FROM t", "SELECT c FROM u", long_b,
      "", "SELECT d FROM v", long_a + " DESC", "SELECT a FROM t", "SELECT"};
  // One bucket given longest first: the forward needs ascending lengths,
  // so even a single bucket is sorted.
  const std::vector<std::string> unsorted = {long_b, "SELECT ra FROM specobj",
                                             "SELECT", ""};

  for (const auto& config : {word, chars}) {
    models::LstmModel model(config);
    Rng rng(7);
    model.Fit(train, train, &rng);
    EXPECT_TRUE(model.quantized());
    for (const auto tier :
         {nn::quant::Precision::kFp32, nn::quant::Precision::kInt8}) {
      SCOPED_TRACE(model.name() + " " + nn::quant::PrecisionName(tier));
      nn::quant::SetActivePrecision(tier);
      EXPECT_TRUE(model.PredictBatch(std::vector<std::string>{}).empty());
      for (const auto* batch : {&one, &mixed, &ties, &unsorted}) {
        ExpectBitIdentical(model.PredictBatch(*batch),
                           PredictLoop(model, *batch));
      }
    }
  }
  nn::quant::SetActivePrecision(saved);
}

TEST(PredictBatchTest, BitIdenticalAcrossThreadCounts) {
  const Dataset train = SyntheticClassification(40, 9);
  const Dataset test = SyntheticClassification(40, 10);
  models::CnnModel::Config config;
  config.granularity = sql::Granularity::kWord;
  config.embed_dim = 4;
  config.kernels_per_width = 4;
  config.widths = {2, 3};
  config.epochs = 1;
  models::CnnModel model(config);
  Rng rng(7);
  model.Fit(train, train, &rng);
  ThreadPool::SetGlobalThreads(1);
  const auto serial = model.PredictBatch(test.statements);
  ThreadPool::SetGlobalThreads(8);
  const auto parallel = model.PredictBatch(test.statements);
  ThreadPool::SetGlobalThreads(1);
  ExpectBitIdentical(serial, parallel);
}

// --- Prediction cache ------------------------------------------------------

TEST(PredictionCacheTest, NormalizeStatement) {
  using serving::NormalizeStatement;
  EXPECT_EQ(NormalizeStatement("  SELECT  *\n FROM\tt  "),
            "SELECT * FROM t");
  EXPECT_EQ(NormalizeStatement("SELECT * FROM t"), "SELECT * FROM t");
  // Case must NOT fold (char-gram models distinguish case).
  EXPECT_EQ(NormalizeStatement("select X"), "select X");
  EXPECT_EQ(NormalizeStatement("   "), "");
}

TEST(PredictionCacheTest, LruEviction) {
  serving::PredictionCache cache(/*capacity=*/2, /*num_shards=*/1);
  cache.Put("a", {1.0f});
  cache.Put("b", {2.0f});
  ASSERT_TRUE(cache.Get("a").has_value());  // refresh a; b is now LRU
  cache.Put("c", {3.0f});                   // evicts b
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("c").has_value());
  EXPECT_EQ(cache.size(), 2u);
}

// --- Serving cache (ResilientModel's generation-keyed prediction cache) ----

// A serving chain over a plain (already trained) model: a fixed
// generation-1 version with an mfreq baseline.
std::unique_ptr<serving::ResilientModel> WrapResilient(
    std::unique_ptr<models::Model> primary) {
  return std::make_unique<serving::ResilientModel>(
      std::move(primary), std::make_unique<models::MfreqModel>());
}

// Serves `statement` alone and returns its primary-tier answer.
std::vector<float> ServeOne(const serving::ResilientModel& model,
                            const std::string& statement,
                            double opt_cost = 0.0) {
  const std::vector<std::string> statements = {statement};
  const std::vector<double> opt_costs = {opt_cost};
  serving::ServedBatch served = model.PredictBatch(statements, opt_costs);
  EXPECT_EQ(served.provenance[0], serving::Tier::kPrimary);
  return std::move(served.predictions[0]);
}

std::unique_ptr<models::Model> TrainedWordTfidf(const Dataset& train,
                                                int epochs) {
  models::TfidfModel::Config config;
  config.epochs = epochs;
  config.granularity = sql::Granularity::kWord;
  auto model = std::make_unique<models::TfidfModel>(config);
  Rng rng(7);
  model->Fit(train, train, &rng);
  return model;
}

TEST(CachedModelTest, HitBitIdenticalToColdMiss) {
  const Dataset train = SyntheticClassification(60, 11);
  const auto model = WrapResilient(TrainedWordTfidf(train, 2));

  const std::string q = train.statements[0];
  const auto cold = ServeOne(*model, q);  // miss, populates cache
  const auto hit = ServeOne(*model, q);   // hit
  ASSERT_EQ(cold.size(), hit.size());
  for (size_t i = 0; i < cold.size(); ++i) EXPECT_EQ(cold[i], hit[i]);
  EXPECT_GE(model->cache_stats().hits, 1u);

  // Whitespace-variant statement hits the same entry and returns the same
  // bits (normalization is semantics-preserving for the tokenizers).
  const auto variant = ServeOne(*model, "  " + q + "\n");
  for (size_t i = 0; i < cold.size(); ++i) EXPECT_EQ(cold[i], variant[i]);
}

TEST(CachedModelTest, BatchDedupAndCachePopulation) {
  const Dataset train = SyntheticClassification(60, 12);
  const auto model = WrapResilient(TrainedWordTfidf(train, 2));

  std::vector<std::string> batch = {
      train.statements[0], train.statements[1], train.statements[0],
      "  " + train.statements[1]};  // [2],[3] duplicate [0],[1] by key
  const auto preds = model->PredictBatch(batch).predictions;
  ASSERT_EQ(preds.size(), 4u);
  for (size_t c = 0; c < preds[0].size(); ++c) {
    EXPECT_EQ(preds[0][c], preds[2][c]);
    EXPECT_EQ(preds[1][c], preds[3][c]);
  }
  // Only the two distinct keys were inserted.
  EXPECT_EQ(model->cache_stats().size, 2u);

  // A repeat batch is all hits and bit-identical.
  const auto again = model->PredictBatch(batch).predictions;
  ExpectBitIdentical(preds, again);
  EXPECT_EQ(model->cache_stats().hits, 4u);
}

TEST(CachedModelTest, PrecisionSwitchInvalidatesCache) {
  const auto saved = nn::quant::ActivePrecision();
  const Dataset train = SyntheticClassification(60, 21);
  models::LstmModel::Config config;
  config.embed_dim = 8;
  config.hidden_dim = 12;
  config.num_layers = 1;
  config.epochs = 1;
  auto lstm = std::make_unique<models::LstmModel>(config);
  Rng rng(7);
  nn::quant::SetActivePrecision(nn::quant::Precision::kFp32);
  lstm->Fit(train, train, &rng);
  const models::Model& inner = *lstm;
  const auto model = WrapResilient(std::move(lstm));

  const std::string q = train.statements[0];
  const auto fp32_pred = ServeOne(*model, q);
  EXPECT_EQ(model->cache_stats().size, 1u);

  // The tier is part of the key: no fp32 entry may be served as an int8
  // result, so the int8 lookup misses and caches an entry of its own.
  nn::quant::SetActivePrecision(nn::quant::Precision::kInt8);
  const auto int8_pred = ServeOne(*model, q);
  EXPECT_EQ(model->cache_stats().size, 2u);
  const auto int8_direct = inner.Predict(q, 0.0);
  ASSERT_EQ(int8_pred.size(), int8_direct.size());
  for (size_t i = 0; i < int8_pred.size(); ++i) {
    EXPECT_EQ(int8_pred[i], int8_direct[i]);
  }

  // Switching back reproduces the fp32 bits.
  nn::quant::SetActivePrecision(nn::quant::Precision::kFp32);
  const auto back = ServeOne(*model, q);
  ASSERT_EQ(back.size(), fp32_pred.size());
  for (size_t i = 0; i < back.size(); ++i) EXPECT_EQ(back[i], fp32_pred[i]);
  const auto fp32_direct = inner.Predict(q, 0.0);
  for (size_t i = 0; i < back.size(); ++i) EXPECT_EQ(back[i], fp32_direct[i]);
  nn::quant::SetActivePrecision(saved);
}

TEST(CachedModelTest, OptCostIsPartOfTheKey) {
  const Dataset train = SyntheticClassification(40, 15);
  const auto model = WrapResilient(TrainedWordTfidf(train, 1));
  (void)ServeOne(*model, train.statements[0], 1.0);
  (void)ServeOne(*model, train.statements[0], 2.0);
  EXPECT_EQ(model->cache_stats().size, 2u);
}

// --- AdmissionQueue --------------------------------------------------------

TEST(AdmissionQueueTest, TryPushRejectsWhenFullNeverBlocks) {
  serving::AdmissionQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(queue.TryPush(3));
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(100));
  EXPECT_EQ(queue.size(), 2u);
  int out = 0;
  EXPECT_TRUE(queue.PopWait(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.TryPush(3));  // space again after a pop
}

TEST(AdmissionQueueTest, CloseDrainsThenPopWaitReturnsFalse) {
  serving::AdmissionQueue<int> queue(4);
  EXPECT_TRUE(queue.TryPush(7));
  queue.Close();
  EXPECT_FALSE(queue.TryPush(8));  // no admission after close
  int out = 0;
  EXPECT_TRUE(queue.PopWait(&out));  // queued item still drains
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(queue.PopWait(&out));  // drained + closed -> done
}

TEST(AdmissionQueueTest, PopUpToTakesQueuedItemsWithoutWaiting) {
  serving::AdmissionQueue<int> queue(8);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(queue.TryPush(i));
  std::vector<int> out;
  // Deadline already passed: the greedy drain must still take everything
  // queued, with no window sleep.
  const auto t0 = std::chrono::steady_clock::now();
  const size_t popped =
      queue.PopUpTo(&out, 8, std::chrono::steady_clock::now());
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(100));
  EXPECT_EQ(popped, 3u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
}

TEST(AdmissionQueueTest, PopUpToWakesWhenBatchCompletes) {
  serving::AdmissionQueue<int> queue(8);
  std::vector<int> out;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(queue.TryPush(1));
    ASSERT_TRUE(queue.TryPush(2));
  });
  // Window far in the future: the pop must return when the 2-item batch
  // completes, not at the deadline.
  const size_t popped = queue.PopUpTo(
      &out, 2, std::chrono::steady_clock::now() + std::chrono::seconds(30));
  producer.join();
  EXPECT_EQ(popped, 2u);
}

TEST(AdmissionQueueTest, PopUpToFlushesStragglersAtDeadline) {
  serving::AdmissionQueue<int> queue(8);
  std::vector<int> out;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(queue.TryPush(1));  // sub-threshold: no consumer wakeup
  });
  const size_t popped = queue.PopUpTo(
      &out, 5,
      std::chrono::steady_clock::now() + std::chrono::milliseconds(80));
  producer.join();
  // The straggler queued silently and was drained at the window edge.
  EXPECT_EQ(popped, 1u);
  EXPECT_EQ(out, (std::vector<int>{1}));
}

TEST(AdmissionQueueTest, CloseWakesWindowWaiter) {
  serving::AdmissionQueue<int> queue(8);
  std::vector<int> out;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    queue.Close();
  });
  const auto t0 = std::chrono::steady_clock::now();
  const size_t popped = queue.PopUpTo(
      &out, 4, std::chrono::steady_clock::now() + std::chrono::seconds(30));
  closer.join();
  EXPECT_EQ(popped, 0u);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
}

// --- PredictionCache stats -------------------------------------------------

TEST(PredictionCacheTest, StatsSnapshotCountsHitsMissesEvictions) {
  serving::PredictionCache cache(/*capacity=*/2, /*num_shards=*/1);
  EXPECT_FALSE(cache.Get("a").has_value());  // miss
  cache.Put("a", {1.0f});
  EXPECT_TRUE(cache.Get("a").has_value());  // hit
  cache.Put("b", {2.0f});
  cache.Put("c", {3.0f});  // evicts "a" (LRU, single shard)
  const serving::PredictionCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
  // Back-compat accessors read the same counters.
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

// --- Server ----------------------------------------------------------------

// Test double whose Predict blocks until released: makes queue-full and
// shutdown-drain states deterministic instead of racing the batcher thread.
class BlockingModel : public models::Model {
 public:
  std::string name() const override { return "blocking"; }
  void Fit(const Dataset&, const Dataset&, Rng*) override {}
  std::vector<float> Predict(const std::string&, double) const override {
    std::unique_lock<std::mutex> lock(mu_);
    ++entered_;
    entered_cv_.notify_all();
    release_cv_.wait(lock, [&] { return released_; });
    return {0.25f, 0.75f};
  }

  void WaitUntilBlocked() const {
    std::unique_lock<std::mutex> lock(mu_);
    entered_cv_.wait(lock, [&] { return entered_ > 0; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    release_cv_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable entered_cv_;
  mutable std::condition_variable release_cv_;
  mutable int entered_ = 0;
  bool released_ = false;
};

// Counts Predict invocations; proves expired requests never reach the model.
class CountingModel : public models::Model {
 public:
  std::string name() const override { return "counting"; }
  void Fit(const Dataset&, const Dataset&, Rng*) override {}
  std::vector<float> Predict(const std::string&, double) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return {1.0f, 0.0f};
  }
  int calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  mutable std::atomic<int> calls_{0};
};

TEST(ServerTest, QueueFullRejectsWithResourceExhausted) {
  auto owned = std::make_unique<BlockingModel>();
  BlockingModel* blocking = owned.get();
  serving::ServerOptions options;
  options.num_shards = 1;
  options.queue_depth = 2;
  options.batch_window_us = 0;  // strict per-query: the worker stays busy
  serving::Server server(
      [&](size_t) { return WrapResilient(std::move(owned)); }, options);

  std::vector<std::future<serving::ServerReply>> accepted;
  auto submit = [&](const std::string& s) {
    auto promise =
        std::make_shared<std::promise<serving::ServerReply>>();
    auto future = promise->get_future();
    const bool ok = server.Submit(
        s, 0.0,
        [promise](serving::ServerReply r) { promise->set_value(std::move(r)); });
    return std::make_pair(ok, std::move(future));
  };

  // First request is popped by the worker and blocks inside the model.
  auto first = submit("SELECT 1");
  ASSERT_TRUE(first.first);
  blocking->WaitUntilBlocked();
  // Now fill the admission queue to its bound...
  auto second = submit("SELECT 2");
  auto third = submit("SELECT 3");
  ASSERT_TRUE(second.first);
  ASSERT_TRUE(third.first);
  // ...and the next submission is shed with a typed status, immediately.
  auto fourth = submit("SELECT 4");
  EXPECT_FALSE(fourth.first);
  auto reply = fourth.second.get();
  EXPECT_EQ(reply.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(reply.prediction.empty());

  blocking->Release();
  // Every admitted request still completes.
  for (auto* f : {&first.second, &second.second, &third.second}) {
    auto r = f->get();
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.tier, serving::Tier::kPrimary);
  }
  const serving::Server::Stats stats = server.GetStats();
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.completed, 3u);
}

TEST(ServerTest, DeadlineExpiresInsideBatchWindow) {
  auto owned = std::make_unique<CountingModel>();
  CountingModel* counting = owned.get();
  serving::ServerOptions options;
  options.num_shards = 1;
  options.max_batch = 32;
  options.batch_window_us = 30000;  // 30ms window >> 1ms deadline
  serving::Server server(
      [&](size_t) { return WrapResilient(std::move(owned)); }, options);

  // The doomed request opens the window; its deadline lapses before the
  // window closes.
  auto doomed = std::async(std::launch::async, [&] {
    return server.Call("SELECT doomed", 0.0, /*deadline_us=*/1000);
  });
  auto served = std::async(std::launch::async, [&] {
    return server.Call("SELECT served", 0.0, /*deadline_us=*/0);
  });
  const serving::ServerReply dr = doomed.get();
  const serving::ServerReply sr = served.get();
  EXPECT_EQ(dr.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(dr.prediction.empty());
  EXPECT_EQ(dr.batch_size, 0u);  // never occupied a model batch slot
  EXPECT_TRUE(sr.status.ok()) << sr.status.ToString();
  // Only the live request reached the model.
  EXPECT_EQ(counting->calls(), 1);
  const serving::Server::Stats stats = server.GetStats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(ServerTest, BatcherCoalescesAndFlushesPartialBatch) {
  serving::ServerOptions options;
  options.num_shards = 1;
  options.max_batch = 16;
  options.batch_window_us = 60000;  // long enough to catch all three
  serving::Server server(
      [&](size_t) { return WrapResilient(std::make_unique<CountingModel>()); },
      options);

  std::vector<std::future<serving::ServerReply>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(std::async(std::launch::async, [&, i] {
      return server.Call("SELECT q" + std::to_string(i));
    }));
  }
  size_t max_batch_seen = 0;
  for (auto& f : futures) {
    const serving::ServerReply r = f.get();
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    max_batch_seen = std::max(max_batch_seen, r.batch_size);
  }
  // All three coalesced into one partial batch (3 < max_batch) which the
  // window expiry flushed — it did not wait for a full batch.
  EXPECT_EQ(max_batch_seen, 3u);
  const serving::Server::Stats stats = server.GetStats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_size, 3.0);
}

TEST(ServerTest, ShutdownDrainsEveryAcceptedRequest) {
  auto owned = std::make_unique<BlockingModel>();
  BlockingModel* blocking = owned.get();
  serving::ServerOptions options;
  options.num_shards = 1;
  options.queue_depth = 8;
  options.batch_window_us = 0;
  serving::Server server(
      [&](size_t) { return WrapResilient(std::move(owned)); }, options);

  std::vector<std::future<serving::ServerReply>> futures;
  auto submit_ok = [&](const std::string& s) {
    auto promise =
        std::make_shared<std::promise<serving::ServerReply>>();
    futures.push_back(promise->get_future());
    ASSERT_TRUE(server.Submit(s, 0.0, [promise](serving::ServerReply r) {
      promise->set_value(std::move(r));
    }));
  };
  submit_ok("SELECT 1");
  blocking->WaitUntilBlocked();
  submit_ok("SELECT 2");
  submit_ok("SELECT 3");
  submit_ok("SELECT 4");

  std::thread shutdown([&] { server.Shutdown(); });
  // Admission stops as soon as the drain starts; already-accepted requests
  // are not dropped.
  while (server.accepting()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  serving::ServerReply rejected = server.Call("SELECT 5");
  EXPECT_EQ(rejected.status.code(), StatusCode::kUnavailable);

  blocking->Release();
  shutdown.join();
  for (auto& f : futures) {
    const serving::ServerReply r = f.get();
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_FALSE(r.prediction.empty());
  }
  const serving::Server::Stats stats = server.GetStats();
  EXPECT_EQ(stats.accepted, 4u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.rejected_unavailable, 1u);
  server.Shutdown();  // idempotent
}

TEST(ServerTest, BatchedRepliesBitIdenticalToDirectPredict) {
  const Dataset train = SyntheticClassification(48, 21);
  models::CnnModel::Config config;
  config.epochs = 1;
  models::CnnModel cnn(config);
  Rng rng(5);
  cnn.Fit(train, train, &rng);
  models::MfreqModel baseline;
  baseline.Fit(train, train, &rng);

  for (int64_t window_us : {int64_t{0}, int64_t{200}}) {
    serving::ServerOptions options;
    options.num_shards = 2;
    options.max_batch = 8;
    options.batch_window_us = window_us;
    serving::Server server(
        [&](size_t) {
          return std::make_unique<serving::ResilientModel>(
              std::make_unique<serving::ModelRef>(&cnn),
              std::make_unique<serving::ModelRef>(&baseline));
        },
        options);

    // Concurrent clients issue overlapping statements so batches mix
    // duplicates and distinct queries across both shards.
    constexpr int kClients = 4;
    constexpr int kPerClient = 12;
    std::vector<std::thread> clients;
    std::vector<std::vector<std::pair<std::string, std::vector<float>>>>
        results(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int i = 0; i < kPerClient; ++i) {
          const std::string& s =
              train.statements[(c * 7 + i * 3) % train.statements.size()];
          serving::ServerReply reply = server.Call(s);
          ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
          ASSERT_EQ(reply.tier, serving::Tier::kPrimary);
          results[c].emplace_back(s, std::move(reply.prediction));
        }
      });
    }
    for (auto& t : clients) t.join();
    server.Shutdown();

    // Whatever batches formed, every reply's bits equal the direct
    // per-query Predict: micro-batching never changes an answer.
    for (const auto& client : results) {
      for (const auto& [statement, prediction] : client) {
        const std::vector<float> direct = cnn.Predict(statement, 0.0);
        ASSERT_EQ(prediction.size(), direct.size());
        for (size_t k = 0; k < direct.size(); ++k) {
          ASSERT_EQ(prediction[k], direct[k])
              << "window=" << window_us << " statement=" << statement;
        }
      }
    }
  }
}

// Short concurrency soak: many clients, stats polling, cache churn. Run
// under TSan in CI (scripts/check_sanitizer.sh thread) to prove the serving
// path — admission queue, batcher, per-shard stats, cache counters — is
// race-free.
TEST(ServerSoakTest, ConcurrentClientsAndStatsPollingAreClean) {
  const Dataset train = SyntheticClassification(32, 33);
  models::TfidfModel::Config config;
  config.epochs = 1;
  models::TfidfModel tfidf(config);
  Rng rng(9);
  tfidf.Fit(train, train, &rng);
  models::MfreqModel baseline;
  baseline.Fit(train, train, &rng);

  serving::ServerOptions options;
  options.num_shards = 2;
  options.max_batch = 8;
  options.batch_window_us = 100;
  options.queue_depth = 64;
  serving::Server server(
      [&](size_t) {
        return std::make_unique<serving::ResilientModel>(
            std::make_unique<serving::ModelRef>(&tfidf),
            std::make_unique<serving::ModelRef>(&baseline));
      },
      options);

  constexpr int kClients = 6;
  constexpr int kPerClient = 150;
  std::atomic<uint64_t> ok{0};
  std::atomic<bool> done{false};
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      const serving::Server::Stats stats = server.GetStats();
      ASSERT_LE(stats.completed, stats.accepted);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng crng(100 + static_cast<uint64_t>(c));
      for (int i = 0; i < kPerClient; ++i) {
        const std::string& s = train.statements[crng.NextUint64(
            train.statements.size())];
        const serving::ServerReply reply = server.Call(s);
        if (reply.status.ok()) ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : clients) t.join();
  done.store(true, std::memory_order_release);
  poller.join();
  server.Shutdown();

  EXPECT_EQ(ok.load(), static_cast<uint64_t>(kClients * kPerClient));
  const serving::Server::Stats stats = server.GetStats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, stats.completed);
  EXPECT_EQ(stats.total_ns.count(), stats.completed);
  EXPECT_GE(stats.cache.hits, 1u);  // 6x150 draws over 32 statements repeat
}

// --- Load generator --------------------------------------------------------

TEST(LoadGenTest, SessionTraceIsDeterministicWithMatchedRedundancy) {
  const auto a = serving::BuildSessionTrace(400, 0.185, 77);
  const auto b = serving::BuildSessionTrace(400, 0.185, 77);
  ASSERT_EQ(a.size(), 400u);
  EXPECT_EQ(a, b);  // same seed, same trace
  const auto c = serving::BuildSessionTrace(400, 0.185, 78);
  EXPECT_NE(a, c);  // different seed, different trace

  std::set<std::string> distinct(a.begin(), a.end());
  // ~18.5% of entries replay an earlier statement, so the distinct count
  // sits well below the trace length but far above a degenerate trace.
  EXPECT_LT(distinct.size(), 390u);
  EXPECT_GT(distinct.size(), 200u);

  const auto unique_trace = serving::BuildSessionTrace(400, 0.0, 77);
  std::set<std::string> all(unique_trace.begin(), unique_trace.end());
  // With replay off the generator may still coincidentally repeat, but the
  // trace must be near-fully distinct.
  EXPECT_GT(all.size(), 350u);
}

TEST(LoadGenTest, DrainRequestStopsTheRun) {
  serving::ServerOptions options;
  options.num_shards = 1;
  serving::Server server(
      [&](size_t) { return WrapResilient(std::make_unique<CountingModel>()); },
      options);

  serving::LoadGenOptions load;
  load.num_clients = 2;
  load.duration_s = 30.0;  // would run half a minute without the drain
  load.trace_len = 32;
  load.seed = 11;
  std::thread drainer([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    train::RequestDrain();
  });
  const auto t0 = std::chrono::steady_clock::now();
  const serving::LoadReport report = serving::RunLoadGen(server, load);
  drainer.join();
  train::ClearDrain();
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::seconds(20));
  EXPECT_GT(report.issued, 0u);
  EXPECT_EQ(report.issued, report.ok);
  EXPECT_EQ(report.latency_ns.count(), report.ok);
  server.Shutdown();
}

}  // namespace
}  // namespace sqlfacil
