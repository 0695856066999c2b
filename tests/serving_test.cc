// Tests for the batched inference fast path: arena lifetime, SIMD kernel
// bit-identity across dispatch, PredictBatch == per-query Predict for every
// model family and precision tier, the serving chain's prediction cache
// (hits bit-identical to misses, normalization, LRU eviction, batch dedup,
// generation and opt-cost in the key), and the serving front end.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
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
#include "sqlfacil/lifecycle/model_registry.h"
#include "sqlfacil/nn/arena.h"
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
#include "simd_levels.h"
#include "tiers.h"

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
//
// Every float kernel in nn/simd.h against its scalar spec at each vector
// level this host supports, compared bitwise (EXPECT_EQ on floats would let
// -0 match +0, and NaN never equals itself). A NaN must come out NaN, but
// its sign and payload are not part of the contract: when two NaNs meet,
// x86 returns the first operand's, and the compiler may order the operands
// of a commutative operation either way.

// Lengths and column counts straddle the 8- and 16-lane groups and the
// 64- and 128-column register blocks.
constexpr size_t kSimdLengths[] = {1,  7,  8,   9,   15,  16, 17,
                                   31, 48, 100, 128, 129, 136};

// NaN, ±inf, ±0, a denormal, ±FLT_MAX and the shared exp's clamp edges:
// z = x * log2e reaches ±43 at x = ±43 / log2e (tanh doubles its input, so
// also at half that), with the neighbouring floats on either side.
std::vector<float> SpecialValues() {
  const float log2e = 1.442695040888963f;
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> v = {std::nanf(""), -std::nanf(""), inf, -inf, 0.0f,
                          -0.0f, 1e-40f, std::numeric_limits<float>::max(),
                          -std::numeric_limits<float>::max()};
  for (const float edge : {43.0f / log2e, 21.5f / log2e}) {
    for (const float x : {edge, -edge}) {
      v.push_back(x);
      v.push_back(std::nextafter(x, inf));
      v.push_back(std::nextafter(x, -inf));
    }
  }
  return v;
}

// n uniform values in [lo, hi), about a quarter of them special.
std::vector<float> KernelInput(Rng* rng, size_t n, double lo, double hi) {
  static const std::vector<float> special = SpecialValues();
  std::vector<float> v(n);
  for (auto& x : v) {
    x = static_cast<float>(rng->Uniform(lo, hi));
    if (rng->Uniform(0.0, 1.0) < 0.25) {
      x = special[rng->UniformInt(0, static_cast<int>(special.size()) - 1)];
    }
  }
  return v;
}

uint32_t FloatBits(float x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

bool SameBitsOrBothNan(float a, float b) {
  return FloatBits(a) == FloatBits(b) || (std::isnan(a) && std::isnan(b));
}

using Buffers = std::vector<std::vector<float>>;

// Runs `kernel` on a copy of `init` at the scalar level (the spec) and at
// every vector level, and expects each output bit-identical to the spec, a
// NaN's payload aside.
template <typename Kernel>
void ExpectSpecBits(const std::string& what, const Buffers& init,
                    const Kernel& kernel) {
  SimdLevelGuard guard;
  nn::simd::SetLevel(nn::simd::Level::kScalar);
  Buffers spec = init;
  kernel(spec);
  for (const nn::simd::Level level : SupportedSimdLevels()) {
    if (level == nn::simd::Level::kScalar) continue;
    nn::simd::SetLevel(level);
    Buffers got = init;
    kernel(got);
    for (size_t b = 0; b < spec.size(); ++b) {
      for (size_t i = 0; i < spec[b].size(); ++i) {
        if (!SameBitsOrBothNan(spec[b][i], got[b][i])) {
          ADD_FAILURE() << what << " " << SimdLevelTag(level) << " output "
                        << b << " element " << i << ": spec " << std::hex
                        << FloatBits(spec[b][i]) << " got "
                        << FloatBits(got[b][i]);
          break;
        }
      }
    }
  }
}

// The elementwise, activation, LSTM cell, optimizer and Dot kernels.
TEST(SimdTest, KernelsBitIdenticalAcrossDispatch) {
  if (SupportedSimdLevels().size() < 2) GTEST_SKIP() << "no vector level";
  Rng rng(123);
  for (const size_t n : kSimdLengths) {
    const std::string at = " n=" + std::to_string(n);
    const auto x = KernelInput(&rng, n, -2.0, 2.0);
    const auto y = KernelInput(&rng, n, -2.0, 2.0);
    const auto g = KernelInput(&rng, n, -2.0, 2.0);
    const auto base = KernelInput(&rng, n, -2.0, 2.0);
    ExpectSpecBits("Axpy" + at, {base}, [&](Buffers& o) {
      nn::simd::Axpy(o[0].data(), x.data(), 1.7f, n);
    });
    ExpectSpecBits("AddAcc" + at, {base}, [&](Buffers& o) {
      nn::simd::AddAcc(o[0].data(), x.data(), n);
    });
    ExpectSpecBits("SubAcc" + at, {base}, [&](Buffers& o) {
      nn::simd::SubAcc(o[0].data(), x.data(), n);
    });
    ExpectSpecBits("Mul" + at, {base}, [&](Buffers& o) {
      nn::simd::Mul(o[0].data(), x.data(), n);
    });
    ExpectSpecBits("MulAcc" + at, {base}, [&](Buffers& o) {
      nn::simd::MulAcc(o[0].data(), x.data(), y.data(), n);
    });
    ExpectSpecBits("Scale" + at, {base}, [&](Buffers& o) {
      nn::simd::Scale(o[0].data(), 0.3f, n);
    });
    ExpectSpecBits("Relu" + at, {base},
                   [&](Buffers& o) { nn::simd::Relu(o[0].data(), n); });
    ExpectSpecBits("SigmoidGradAcc" + at, {base}, [&](Buffers& o) {
      nn::simd::SigmoidGradAcc(o[0].data(), g.data(), y.data(), n);
    });
    ExpectSpecBits("TanhGradAcc" + at, {base}, [&](Buffers& o) {
      nn::simd::TanhGradAcc(o[0].data(), g.data(), y.data(), n);
    });
    ExpectSpecBits("ReluGradAcc" + at, {base}, [&](Buffers& o) {
      nn::simd::ReluGradAcc(o[0].data(), g.data(), y.data(), n);
    });
    ExpectSpecBits("Dot" + at, {{0.0f}}, [&](Buffers& o) {
      o[0][0] = nn::simd::Dot(x.data(), y.data(), n);
    });

    // Activations over the whole saturating range.
    const auto pre = KernelInput(&rng, n, -60.0, 60.0);
    ExpectSpecBits("SigmoidInPlace" + at, {pre}, [&](Buffers& o) {
      nn::simd::SigmoidInPlace(o[0].data(), n);
    });
    ExpectSpecBits("TanhInPlace" + at, {pre}, [&](Buffers& o) {
      nn::simd::TanhInPlace(o[0].data(), n);
    });

    // Cell kernels: gates as the activations leave them, cell states and
    // incoming grads anywhere. The forward also runs in place (ci == co),
    // as the serving step does.
    const auto u = KernelInput(&rng, n, 0.0, 1.0);
    const auto f = KernelInput(&rng, n, 0.0, 1.0);
    const auto o_gate = KernelInput(&rng, n, 0.0, 1.0);
    const auto cand = KernelInput(&rng, n, -1.0, 1.0);
    const auto ci = KernelInput(&rng, n, -30.0, 30.0);
    const auto co = KernelInput(&rng, n, -30.0, 30.0);
    const std::vector<float> zeros(n, 0.0f);
    ExpectSpecBits("LstmCellForward" + at, {zeros, zeros}, [&](Buffers& o) {
      nn::simd::LstmCellForward(u.data(), f.data(), o_gate.data(),
                                cand.data(), ci.data(), o[0].data(),
                                o[1].data(), n);
    });
    ExpectSpecBits("LstmCellForward in place" + at, {ci, zeros},
                   [&](Buffers& o) {
                     nn::simd::LstmCellForward(u.data(), f.data(),
                                               o_gate.data(), cand.data(),
                                               o[0].data(), o[0].data(),
                                               o[1].data(), n);
                   });
    ExpectSpecBits(
        "LstmCellBackward" + at, {zeros, zeros, zeros, zeros, zeros},
        [&](Buffers& o) {
          nn::simd::LstmCellBackward(u.data(), f.data(), o_gate.data(),
                                     cand.data(), co.data(), ci.data(),
                                     x.data(), y.data(), o[0].data(),
                                     o[1].data(), o[2].data(), o[3].data(),
                                     o[4].data(), n);
        });

    // Optimizers: two steps, so the second reads state the first wrote.
    const auto w = KernelInput(&rng, n, -1.0, 1.0);
    const auto m = KernelInput(&rng, n, -0.1, 0.1);
    const auto v = KernelInput(&rng, n, 0.0, 0.1);
    ExpectSpecBits("SgdStep" + at, {w}, [&](Buffers& o) {
      for (int step = 0; step < 2; ++step) {
        nn::simd::SgdStep(o[0].data(), g.data(), 0.05f, 1e-4f, n);
      }
    });
    ExpectSpecBits("AdamStep" + at, {w, m, v}, [&](Buffers& o) {
      for (int step = 0; step < 2; ++step) {
        nn::simd::AdamStep(o[0].data(), g.data(), o[1].data(), o[2].data(),
                           0.9f, 0.999f, 0.1f, 0.001f, 0.01f, 1e-8f, 1e-4f,
                           n);
      }
    });
    ExpectSpecBits("AdaMaxStep" + at, {w, m, v}, [&](Buffers& o) {
      for (int step = 0; step < 2; ++step) {
        nn::simd::AdaMaxStep(o[0].data(), g.data(), o[1].data(),
                             o[2].data(), 0.9f, 0.999f, 0.1f, 0.02f, 1e-8f,
                             1e-4f, n);
      }
    });
  }
}

// The matmul kernels, LstmGates and MaxOverTime: rows, k chunks and row
// ranges at every column count of kSimdLengths.
TEST(SimdTest, MatMulRowsBitIdenticalAcrossDispatch) {
  if (SupportedSimdLevels().size() < 2) GTEST_SKIP() << "no vector level";
  Rng rng(321);
  // Mostly ordinary values: a special in A poisons a whole row.
  auto random = [&rng](size_t size) {
    std::vector<float> v = KernelInput(&rng, size, -1.0, 1.0);
    for (size_t i = 0; i < size; ++i) {
      if (i % 13 != 0) v[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
    return v;
  };
  // m = 40 spans two GradB row tiles.
  const int m = 40, k = 37;
  for (const size_t cols : kSimdLengths) {
    const int n = static_cast<int>(cols);
    std::vector<float> A = random(m * k);
    for (size_t i = 0; i < A.size(); i += 5) A[i] = 0.0f;  // zero-skips
    const std::vector<float> B = random(k * n), G = random(m * n);
    const std::string at = " n=" + std::to_string(n);
    ExpectSpecBits("MatMulRows" + at, {random(m * n)}, [&](Buffers& o) {
      nn::simd::MatMulRows(A.data(), B.data(), o[0].data(), 0, m, k, n);
    });
    ExpectSpecBits("MatMulRows rows [3, 9)" + at, {random(m * n)},
                   [&](Buffers& o) {
                     nn::simd::MatMulRows(A.data(), B.data(), o[0].data(), 3,
                                          9, k, n);
                   });
    ExpectSpecBits("MatMulGradBRows" + at, {random(k * n)}, [&](Buffers& o) {
      nn::simd::MatMulGradBRows(A.data(), G.data(), o[0].data(), m, 0, k, k,
                                n);
    });
    ExpectSpecBits("MatMulGradBRows k [5, 30)" + at, {random(k * n)},
                   [&](Buffers& o) {
                     nn::simd::MatMulGradBRows(A.data(), G.data(),
                                               o[0].data(), m, 5, 30, k, n);
                   });

    // LstmGates on 5 rows with zero-skips in x and h, all rows and a range.
    const int rows = 5, in_dim = 7, hidden_dim = 9;
    std::vector<float> x = random(rows * in_dim);
    std::vector<float> h = random(rows * hidden_dim);
    for (size_t i = 0; i < x.size(); i += 4) x[i] = 0.0f;
    for (size_t i = 1; i < h.size(); i += 3) h[i] = 0.0f;
    const std::vector<float> wx = random(in_dim * n);
    const std::vector<float> wh = random(hidden_dim * n);
    const std::vector<float> bias = random(n);
    for (const auto& [begin, end] : {std::pair{0, rows}, {2, 4}}) {
      ExpectSpecBits("LstmGates rows [" + std::to_string(begin) + ", " +
                         std::to_string(end) + ")" + at,
                     {random(rows * n)}, [&](Buffers& o) {
                       nn::simd::LstmGates(x.data(), wx.data(), bias.data(),
                                           h.data(), wh.data(), o[0].data(),
                                           begin, end, in_dim, hidden_dim, n);
                     });
    }
  }

  // GradA: remainder dots only (3), one and several eight-dot passes with
  // and without remainder dots (8, 13, 48), at every column count.
  for (int kd : {3, 8, 13, 48}) {
    for (const size_t cols : kSimdLengths) {
      const int n = static_cast<int>(cols);
      const std::vector<float> G = random(m * n), B = random(kd * n);
      const std::string at =
          " k=" + std::to_string(kd) + " n=" + std::to_string(n);
      ExpectSpecBits("MatMulGradARows" + at, {random(m * kd)},
                     [&](Buffers& o) {
                       nn::simd::MatMulGradARows(G.data(), B.data(),
                                                 o[0].data(), 0, m, kd, n);
                     });
      ExpectSpecBits("MatMulGradARowsTo" + at, {random(m * kd)},
                     [&](Buffers& o) {
                       nn::simd::MatMulGradARowsTo(G.data(), B.data(),
                                                   o[0].data(), 0, m, kd, n);
                     });
    }
  }

  // Max over time, over rows [0, 7) and [1, 7). Column j % 4 == 0 ties at
  // the max in rows 2 and 5 (row 2 wins); == 1 has a NaN in row 3 and the
  // max in row 4; == 2 holds -0 in row 1, +0 in row 4 and negatives
  // elsewhere (-0 stays); == 3 starts with NaN in rows 0 and 1 (it stays).
  // Each level must give exactly these maxima and rows.
  SimdLevelGuard guard;
  const int rows = 7;
  const float nan = std::nanf("");
  for (const size_t cols : kSimdLengths) {
    const int kc = static_cast<int>(cols);
    std::vector<float> X(rows * kc);
    for (auto& v : X) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
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
      const std::string at =
          " k=" + std::to_string(kc) + " begin=" + std::to_string(begin);
      // The max only copies values, so every level must give the scalar
      // level's bytes exactly, NaN payloads included.
      std::vector<float> spec;
      for (const nn::simd::Level level : SupportedSimdLevels()) {
        nn::simd::SetLevel(level);
        std::vector<float> out(kc, 0.0f), plain(kc, 0.0f);
        std::vector<int> arg(kc, -1);
        nn::simd::MaxOverTime(X.data(), begin, rows, kc, out.data(),
                              arg.data());
        nn::simd::MaxOverTime(X.data(), begin, rows, kc, plain.data(),
                              nullptr);
        const std::string where = at + " " + SimdLevelTag(level);
        if (spec.empty()) spec = out;  // the scalar level runs first
        EXPECT_EQ(0, std::memcmp(out.data(), spec.data(), kc * sizeof(float)))
            << "max differs from the spec" << where;
        EXPECT_EQ(0,
                  std::memcmp(out.data(), plain.data(), kc * sizeof(float)))
            << "argmax changes the max" << where;
        for (int j = 0; j < kc; ++j) {
          const float v = out[j];
          if (j % 4 == 0) {
            EXPECT_EQ(v, 5.0f) << where;
            EXPECT_EQ(arg[j], 2) << "tie keeps the first row" << where;
          } else if (j % 4 == 1) {
            EXPECT_EQ(v, 3.0f) << where;
            EXPECT_EQ(arg[j], 4) << "NaN never wins" << where;
          } else if (j % 4 == 2) {
            EXPECT_TRUE(v == 0.0f && std::signbit(v)) << "-0 stays" << where;
            EXPECT_EQ(arg[j], 1) << where;
          } else {
            EXPECT_TRUE(std::isnan(v)) << "a first-row NaN stays" << where;
            EXPECT_EQ(arg[j], begin) << where;
          }
        }
      }
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
  OnBothTiers(model, {}, [&] {
    ExpectBitIdentical(model.PredictBatch(test.statements),
                       PredictLoop(model, test.statements));
  });
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
  OnBothTiers(model, Calibration(train, train), [&] {
    ExpectBitIdentical(model.PredictBatch(test.statements),
                       PredictLoop(model, test.statements));
  });
}

TEST(PredictBatchTest, LstmEdgeCases) {
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
  // Prefix shapes for the forward's shared-prefix plan (buckets of 4). A
  // leader that ends at the step where its followers split (in chars; in
  // words the second set), so both split off from a finished row.
  const std::vector<std::string> leader_ends = {"SELECT a", "SELECT ab",
                                                "SELECT ac"};
  const std::vector<std::string> leader_ends_words = {
      "SELECT ra", "SELECT ra FROM specobj", "SELECT ra WHERE objid = 1"};
  // A three-way split at one step.
  const std::vector<std::string> three_way = {"SELECT ra FROM specobj",
                                              "SELECT dec FROM specobj",
                                              "SELECT objid FROM specobj"};
  // More exact duplicates than batch_size: one group spans two buckets.
  const std::string dup = "SELECT ra FROM specobj";
  const std::vector<std::string> duplicates = {
      dup, dup, dup, dup, dup, dup, "SELECT dec FROM specobj"};
  // A row that is a strict prefix of two rows that split later.
  const std::vector<std::string> strict_prefix = {
      "SELECT ra FROM specobj", "SELECT ra", "SELECT ra FROM photoobj"};
  // No shared first token; later tokens coincide under different prefixes.
  const std::vector<std::string> no_shared_first = {
      "ra FROM specobj", "dec FROM specobj", "objid FROM specobj",
      "SELECT ra FROM specobj"};

  for (const auto& config : {word, chars}) {
    models::LstmModel model(config);
    Rng rng(7);
    model.Fit(train, train, &rng);
    SCOPED_TRACE(model.name());
    OnBothTiers(model, Calibration(train, train), [&] {
      EXPECT_TRUE(model.PredictBatch(std::vector<std::string>{}).empty());
      for (const auto* batch :
           {&one, &mixed, &ties, &unsorted, &leader_ends, &leader_ends_words,
            &three_way, &duplicates, &strict_prefix, &no_shared_first}) {
        ExpectBitIdentical(model.PredictBatch(*batch),
                           PredictLoop(model, *batch));
      }
    });
    EXPECT_TRUE(model.quantized());
  }
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
  OnBothTiers(model, {}, [&] {
    ThreadPool::SetGlobalThreads(1);
    const auto serial = model.PredictBatch(test.statements);
    ThreadPool::SetGlobalThreads(8);
    const auto parallel = model.PredictBatch(test.statements);
    ThreadPool::SetGlobalThreads(1);
    ExpectBitIdentical(serial, parallel);
  });
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

// Precision belongs to the published version: an int8 copy of a model is a
// generation of its own, so no fp32 entry is ever served as an int8 answer
// (or back), and nothing is cleared on the way.
TEST(CachedModelTest, QuantizedCopyIsItsOwnGeneration) {
  const Dataset train = SyntheticClassification(60, 21);
  models::LstmModel::Config config;
  config.embed_dim = 8;
  config.hidden_dim = 12;
  config.num_layers = 1;
  config.epochs = 1;
  auto fp32 = std::make_shared<models::LstmModel>(config);
  Rng rng(7);
  fp32->Fit(train, train, &rng);
  lifecycle::ModelRegistry registry;
  ASSERT_EQ(*registry.Publish(fp32, "fp32"), 1u);
  const serving::ResilientModel model(
      &registry, std::make_unique<models::MfreqModel>());

  const std::string q = train.statements[0];
  const auto fp32_pred = ServeOne(model, q);
  EXPECT_EQ(model.cache_stats().size, 1u);

  // Generation 2 is a quantized copy: its lookup misses and caches the
  // copy's own int8 answer.
  auto int8 = std::make_shared<models::LstmModel>(config);
  std::stringstream checkpoint;
  ASSERT_TRUE(fp32->SaveTo(checkpoint).ok());
  ASSERT_TRUE(int8->LoadFrom(checkpoint).ok());
  ASSERT_TRUE(int8->Quantize(Calibration(train, train)).ok());
  ASSERT_EQ(*registry.Publish(int8, "int8"), 2u);
  const auto int8_pred = ServeOne(model, q);
  EXPECT_EQ(model.cache_stats().size, 2u);
  const auto int8_direct = int8->Predict(q, 0.0);
  ASSERT_EQ(int8_pred.size(), int8_direct.size());
  for (size_t i = 0; i < int8_pred.size(); ++i) {
    EXPECT_EQ(int8_pred[i], int8_direct[i]);
  }

  // Rolling back (generation 3) reproduces the fp32 bits.
  ASSERT_EQ(*registry.Rollback(), 3u);
  const auto back = ServeOne(model, q);
  EXPECT_EQ(model.cache_stats().size, 3u);
  ASSERT_EQ(back.size(), fp32_pred.size());
  for (size_t i = 0; i < back.size(); ++i) EXPECT_EQ(back[i], fp32_pred[i]);
  const auto fp32_direct = fp32->Predict(q, 0.0);
  for (size_t i = 0; i < back.size(); ++i) EXPECT_EQ(back[i], fp32_direct[i]);
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

  // Each server is shut down before the model is quantized.
  OnBothTiers(cnn, {}, [&] {
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
  });
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
