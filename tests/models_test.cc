#include <gtest/gtest.h>

#include <cmath>

#include "sqlfacil/models/baselines.h"
#include "sqlfacil/models/cnn_model.h"
#include "sqlfacil/models/lstm_model.h"
#include "sqlfacil/models/tfidf_model.h"
#include "sqlfacil/models/vocab.h"
#include "tiers.h"

namespace sqlfacil::models {
namespace {

// ---------------------------------------------------------------------------
// Vocabulary
// ---------------------------------------------------------------------------

TEST(VocabularyTest, BuildsFromCorpus) {
  std::vector<std::string> corpus = {"SELECT a FROM t", "SELECT b FROM t"};
  auto vocab = Vocabulary::Build(corpus, sql::Granularity::kWord, 100);
  EXPECT_GT(vocab.size(), 4u);
  EXPECT_NE(vocab.IdOf("select"), Vocabulary::kUnkId);
  EXPECT_NE(vocab.IdOf("from"), Vocabulary::kUnkId);
  EXPECT_EQ(vocab.IdOf("nonexistent_token"), Vocabulary::kUnkId);
}

TEST(VocabularyTest, FrequentTokensGetSmallIds) {
  // "from"/"select"/"t" appear twice; "a"/"b" once.
  std::vector<std::string> corpus = {"SELECT a FROM t", "SELECT b FROM t"};
  auto vocab = Vocabulary::Build(corpus, sql::Granularity::kWord, 100);
  EXPECT_LT(vocab.IdOf("select"), vocab.IdOf("a"));
}

TEST(VocabularyTest, MaxSizeCapRespected) {
  std::vector<std::string> corpus = {"a b c d e f g h i j"};
  auto vocab = Vocabulary::Build(corpus, sql::Granularity::kWord, 3);
  EXPECT_EQ(vocab.size(), 4u);  // 3 tokens + UNK
}

TEST(VocabularyTest, EncodeTruncates) {
  std::vector<std::string> corpus = {"a b c d e"};
  auto vocab = Vocabulary::Build(corpus, sql::Granularity::kWord, 100);
  EXPECT_EQ(vocab.Encode("a b c d e", 3).size(), 3u);
  EXPECT_EQ(vocab.Encode("a b c d e").size(), 5u);
}

TEST(VocabularyTest, CharGranularity) {
  std::vector<std::string> corpus = {"ab"};
  auto vocab = Vocabulary::Build(corpus, sql::Granularity::kChar, 100);
  auto ids = vocab.Encode("ab");
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_NE(ids[0], ids[1]);
}

// ---------------------------------------------------------------------------
// TfidfVectorizer
// ---------------------------------------------------------------------------

TEST(TfidfVectorizerTest, CommonTokensGetLowIdf) {
  std::vector<std::string> corpus = {
      "SELECT a FROM t", "SELECT b FROM t", "SELECT c FROM t",
      "SELECT d FROM u"};
  TfidfVectorizer::Config config;
  config.max_n = 1;
  config.min_count = 1;
  auto vec = TfidfVectorizer::Fit(corpus, config);
  // "select" appears in all docs -> near-zero idf -> near-zero weight.
  auto features = vec.Transform("SELECT d FROM u");
  EXPECT_FALSE(features.empty());
}

TEST(TfidfVectorizerTest, TransformIsL2Normalized) {
  std::vector<std::string> corpus = {"a b c", "a d e", "f g h"};
  TfidfVectorizer::Config config;
  config.max_n = 2;
  config.min_count = 1;
  auto vec = TfidfVectorizer::Fit(corpus, config);
  auto features = vec.Transform("f g h");
  double norm = 0;
  for (const auto& [id, w] : features) norm += w * w;
  EXPECT_NEAR(norm, 1.0, 1e-5);
}

TEST(TfidfVectorizerTest, NGramsUpToMaxN) {
  std::vector<std::string> corpus = {"a b c"};
  TfidfVectorizer::Config config;
  config.max_n = 3;
  config.min_count = 1;
  auto vec = TfidfVectorizer::Fit(corpus, config);
  // 3 unigrams + 2 bigrams + 1 trigram = 6 features.
  EXPECT_EQ(vec.num_features(), 6u);
}

TEST(TfidfVectorizerTest, UnknownGramsIgnored) {
  std::vector<std::string> corpus = {"a b"};
  TfidfVectorizer::Config config;
  config.min_count = 1;
  auto vec = TfidfVectorizer::Fit(corpus, config);
  auto features = vec.Transform("z z z");
  EXPECT_TRUE(features.empty());
}

// ---------------------------------------------------------------------------
// Shared synthetic tasks
// ---------------------------------------------------------------------------

// Classification: class is decided by the table mentioned. Regression:
// target is the (log-ish) length of the statement.
void MakeTextTask(Dataset* train, Dataset* valid, TaskKind kind, Rng* rng) {
  train->kind = valid->kind = kind;
  train->num_classes = valid->num_classes = 2;
  auto fill = [&](Dataset* dataset, int n) {
    for (int i = 0; i < n; ++i) {
      const bool cls = rng->Bernoulli(0.5);
      std::string stmt =
          cls ? "SELECT ra, dec FROM Galaxy WHERE r < " +
                    std::to_string(rng->UniformInt(10, 30))
              : "SELECT objid FROM Star WHERE g > " +
                    std::to_string(rng->UniformInt(10, 30));
      if (rng->Bernoulli(0.3)) stmt += " ORDER BY objid";
      dataset->labels.push_back(cls ? 1 : 0);
      dataset->targets.push_back(cls ? 3.0f : 1.0f);
      dataset->opt_costs.push_back(cls ? 1000.0 : 10.0);
      dataset->statements.push_back(std::move(stmt));
    }
  };
  fill(train, 160);
  fill(valid, 40);
}

double ClassificationAccuracy(const Model& model, const Dataset& test) {
  size_t correct = 0;
  for (size_t i = 0; i < test.size(); ++i) {
    auto probs = model.Predict(test.statements[i], test.opt_costs[i]);
    const int argmax =
        probs[1] > probs[0] ? 1 : 0;
    correct += (argmax == test.labels[i]);
  }
  return static_cast<double>(correct) / test.size();
}

double RegressionMae(const Model& model, const Dataset& test) {
  double total = 0;
  for (size_t i = 0; i < test.size(); ++i) {
    auto pred = model.Predict(test.statements[i], test.opt_costs[i]);
    total += std::fabs(pred[0] - test.targets[i]);
  }
  return total / test.size();
}

// ---------------------------------------------------------------------------
// Baselines
// ---------------------------------------------------------------------------

TEST(BaselinesTest, MfreqPredictsMajorityClass) {
  Dataset train;
  train.kind = TaskKind::kClassification;
  train.num_classes = 3;
  train.labels = {1, 1, 1, 0, 2};
  train.statements.resize(5);
  MfreqModel model;
  Rng rng(1);
  model.Fit(train, train, &rng);
  auto probs = model.Predict("anything", 0);
  EXPECT_EQ(std::max_element(probs.begin(), probs.end()) - probs.begin(), 1);
}

TEST(BaselinesTest, MedianPredictsMedian) {
  Dataset train;
  train.kind = TaskKind::kRegression;
  train.targets = {1.0f, 2.0f, 3.0f, 4.0f, 100.0f};
  train.statements.resize(5);
  MedianModel model;
  Rng rng(1);
  model.Fit(train, train, &rng);
  EXPECT_FLOAT_EQ(model.Predict("x", 0)[0], 3.0f);
}

TEST(BaselinesTest, OptLearnsLinearRelation) {
  Dataset train;
  train.kind = TaskKind::kRegression;
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const double cost = rng.Uniform(1, 10000);
    train.opt_costs.push_back(cost);
    train.targets.push_back(
        static_cast<float>(2.0 * std::log1p(cost) + 1.0));
    train.statements.emplace_back();
  }
  OptModel model;
  model.Fit(train, train, &rng);
  const double pred = model.Predict("", 500.0)[0];
  EXPECT_NEAR(pred, 2.0 * std::log1p(500.0) + 1.0, 0.05);
}

TEST(BaselinesTest, OptWithConstantCostFallsBackToMean) {
  Dataset train;
  train.kind = TaskKind::kRegression;
  train.opt_costs = {5.0, 5.0, 5.0};
  train.targets = {1.0f, 2.0f, 3.0f};
  train.statements.resize(3);
  OptModel model;
  Rng rng(1);
  model.Fit(train, train, &rng);
  EXPECT_NEAR(model.Predict("", 5.0)[0], 2.0, 1e-4);
}

// ---------------------------------------------------------------------------
// Learned models: each must beat chance on the synthetic tasks (the neural
// families on both precision tiers)
// ---------------------------------------------------------------------------

// Runs `check` on the fitted `model`, and again on its int8 tier when the
// family has one.
template <typename M, typename Check>
void OnEveryTier(M& model, const Dataset& train, const Dataset& valid,
                 const Check& check) {
  if constexpr (HasInt8Tier<M>) {
    OnBothTiers(model, Calibration(train, valid), check);
  } else {
    check();
  }
}

template <typename M>
void ExpectLearnsClassification(M&& model, double min_accuracy) {
  Rng rng(7);
  Dataset train, valid;
  MakeTextTask(&train, &valid, TaskKind::kClassification, &rng);
  model.Fit(train, valid, &rng);
  OnEveryTier(model, train, valid, [&] {
    EXPECT_GE(ClassificationAccuracy(model, valid), min_accuracy)
        << model.name();
    EXPECT_GT(model.num_parameters(), 0u);
    EXPECT_GT(model.vocab_size(), 0u);
  });
}

template <typename M>
void ExpectLearnsRegression(M&& model, double max_mae) {
  Rng rng(8);
  Dataset train, valid;
  MakeTextTask(&train, &valid, TaskKind::kRegression, &rng);
  model.Fit(train, valid, &rng);
  OnEveryTier(model, train, valid, [&] {
    EXPECT_LE(RegressionMae(model, valid), max_mae) << model.name();
  });
}

TEST(TfidfModelTest, LearnsClassification) {
  TfidfModel::Config config;
  config.granularity = sql::Granularity::kWord;
  config.epochs = 6;
  ExpectLearnsClassification(TfidfModel(config), 0.95);
}

TEST(TfidfModelTest, LearnsRegressionCharLevel) {
  TfidfModel::Config config;
  config.granularity = sql::Granularity::kChar;
  config.epochs = 6;
  ExpectLearnsRegression(TfidfModel(config), 0.5);
}

TEST(TfidfModelTest, NamesFollowGranularity) {
  TfidfModel::Config config;
  config.granularity = sql::Granularity::kChar;
  EXPECT_EQ(TfidfModel(config).name(), "ctfidf");
  config.granularity = sql::Granularity::kWord;
  EXPECT_EQ(TfidfModel(config).name(), "wtfidf");
}

TEST(CnnModelTest, LearnsClassificationWordLevel) {
  CnnModel::Config config;
  config.granularity = sql::Granularity::kWord;
  config.epochs = 4;
  config.kernels_per_width = 16;
  config.embed_dim = 8;
  ExpectLearnsClassification(CnnModel(config), 0.9);
}

TEST(CnnModelTest, LearnsRegressionCharLevel) {
  CnnModel::Config config;
  config.granularity = sql::Granularity::kChar;
  config.epochs = 8;
  config.lr = 0.02f;  // few steps on this tiny task; speed up learning
  config.kernels_per_width = 16;
  config.embed_dim = 8;
  ExpectLearnsRegression(CnnModel(config), 0.6);
}

TEST(CnnModelTest, HandlesShortStatements) {
  CnnModel::Config config;
  config.granularity = sql::Granularity::kWord;
  config.epochs = 1;
  Rng rng(9);
  Dataset train, valid;
  MakeTextTask(&train, &valid, TaskKind::kClassification, &rng);
  CnnModel model(config);
  model.Fit(train, valid, &rng);
  OnBothTiers(model, {}, [&] {
    // Shorter than the largest kernel width: must not crash.
    auto probs = model.Predict("x", 0);
    EXPECT_EQ(probs.size(), 2u);
    EXPECT_NEAR(probs[0] + probs[1], 1.0, 1e-4);
  });
}

TEST(LstmModelTest, LearnsClassificationWordLevel) {
  LstmModel::Config config;
  config.granularity = sql::Granularity::kWord;
  config.epochs = 10;
  config.lr = 0.02f;
  config.hidden_dim = 16;
  config.embed_dim = 8;
  config.num_layers = 2;
  ExpectLearnsClassification(LstmModel(config), 0.9);
}

TEST(LstmModelTest, LearnsRegressionCharLevel) {
  LstmModel::Config config;
  config.granularity = sql::Granularity::kChar;
  config.epochs = 10;
  config.lr = 0.02f;
  config.hidden_dim = 16;
  config.embed_dim = 8;
  config.num_layers = 1;
  config.max_len_char = 64;
  ExpectLearnsRegression(LstmModel(config), 0.7);
}

TEST(LstmModelTest, ThreeLayerParamCountExceedsOneLayer) {
  LstmModel::Config c1;
  c1.num_layers = 1;
  c1.epochs = 1;
  LstmModel::Config c3 = c1;
  c3.num_layers = 3;
  Rng rng(10);
  Dataset train, valid;
  MakeTextTask(&train, &valid, TaskKind::kClassification, &rng);
  LstmModel one(c1), three(c3);
  one.Fit(train, valid, &rng);
  three.Fit(train, valid, &rng);
  EXPECT_GT(three.num_parameters(), one.num_parameters());
}

TEST(LstmModelTest, EmptyStatementPredicts) {
  LstmModel::Config config;
  config.epochs = 1;
  Rng rng(11);
  Dataset train, valid;
  MakeTextTask(&train, &valid, TaskKind::kClassification, &rng);
  LstmModel model(config);
  model.Fit(train, valid, &rng);
  OnBothTiers(model, Calibration(train, valid), [&] {
    auto probs = model.Predict("", 0);
    EXPECT_EQ(probs.size(), 2u);
  });
}

}  // namespace
}  // namespace sqlfacil::models
