#include "sqlfacil/core/model_zoo.h"

#include <sstream>

#include "sqlfacil/models/baselines.h"
#include "sqlfacil/models/checkpoint.h"
#include "sqlfacil/models/serialize_util.h"
#include "sqlfacil/models/cnn_model.h"
#include "sqlfacil/models/lstm_model.h"
#include "sqlfacil/models/tfidf_model.h"
#include "sqlfacil/util/env.h"
#include "sqlfacil/util/logging.h"

namespace sqlfacil::core {

namespace {

sql::Granularity GranularityOf(const std::string& name) {
  return name[0] == 'c' ? sql::Granularity::kChar : sql::Granularity::kWord;
}

// Resolves the zoo's snapshot knobs against the environment: explicit
// ZooConfig values win, SQLFACIL_SNAPSHOT_DIR / SQLFACIL_SNAPSHOT_EVERY
// fill the gaps. An empty resulting dir disables snapshotting entirely.
models::SnapshotOptions ResolveSnapshot(const ZooConfig& config) {
  models::SnapshotOptions snap;
  snap.dir = config.snapshot_dir.empty() ? GetSnapshotDirFromEnv()
                                         : config.snapshot_dir;
  snap.every = config.snapshot_every > 0
                   ? config.snapshot_every
                   : GetSnapshotEveryFromEnv(/*fallback=*/1);
  snap.tag = config.snapshot_tag;
  return snap;
}

}  // namespace

models::ModelPtr MakeModel(const std::string& name, const ZooConfig& config) {
  if (name == "mfreq") return std::make_unique<models::MfreqModel>();
  if (name == "median") return std::make_unique<models::MedianModel>();
  if (name == "opt") return std::make_unique<models::OptModel>();
  if (name == "ctfidf" || name == "wtfidf") {
    models::TfidfModel::Config c;
    c.granularity = GranularityOf(name);
    c.max_features = config.tfidf_max_features;
    c.epochs = std::max(4, config.epochs * 2);  // cheap epochs
    c.batch_size = config.batch_size;
    c.snapshot = ResolveSnapshot(config);
    return std::make_unique<models::TfidfModel>(c);
  }
  if (name == "ccnn" || name == "wcnn") {
    models::CnnModel::Config c;
    c.granularity = GranularityOf(name);
    c.max_vocab = config.neural_max_vocab;
    c.embed_dim = config.embed_dim;
    c.kernels_per_width = config.cnn_kernels;
    c.epochs = config.epochs;
    c.batch_size = config.batch_size;
    c.clip_norm = config.clip_norm;
    c.lr = config.cnn_lr;
    c.train_shards = config.train_shards;
    c.snapshot = ResolveSnapshot(config);
    return std::make_unique<models::CnnModel>(c);
  }
  if (name == "clstm" || name == "wlstm") {
    models::LstmModel::Config c;
    c.granularity = GranularityOf(name);
    c.max_vocab = config.neural_max_vocab;
    c.embed_dim = config.embed_dim;
    c.hidden_dim = config.lstm_hidden;
    c.num_layers = config.lstm_layers;
    c.epochs = config.epochs;
    c.batch_size = config.batch_size;
    c.clip_norm = config.clip_norm;
    c.lr = config.lstm_lr;
    c.train_shards = config.train_shards;
    c.snapshot = ResolveSnapshot(config);
    return std::make_unique<models::LstmModel>(c);
  }
  SQLFACIL_CHECK(false) << "unknown model name '" << name << "'";
  return nullptr;
}

bool IsKnownModelName(const std::string& name) {
  static const auto* kNames = new std::vector<std::string>{
      "mfreq",  "median", "opt",  "ctfidf", "wtfidf",
      "ccnn",   "wcnn",   "clstm", "wlstm"};
  for (const auto& known : *kNames) {
    if (name == known) return true;
  }
  return false;
}

const std::vector<std::string>& LearnedModelNames() {
  static const auto* kNames = new std::vector<std::string>{
      "ctfidf", "ccnn", "clstm", "wtfidf", "wcnn", "wlstm"};
  return *kNames;
}

Status SaveModelToFile(const models::Model& model, const std::string& path) {
  std::ostringstream payload;
  models::serialize::WriteTag(payload, "sqlfacil_model.v1");
  models::serialize::WriteString(payload, model.name());
  if (Status s = model.SaveTo(payload); !s.ok()) return s;
  if (!payload.good()) {
    return Status::Internal("serializing model '" + model.name() +
                            "' failed");
  }
  return models::WriteCheckpointFile(path, std::move(payload).str());
}

StatusOr<models::ModelPtr> LoadModelFromFile(const std::string& path,
                                             const ZooConfig& config) {
  auto ckpt = models::ReadCheckpointFile(path);
  if (!ckpt.ok()) return ckpt.status();
  std::istringstream in(ckpt->payload);
  if (Status s = models::serialize::ExpectTag(in, "sqlfacil_model.v1");
      !s.ok()) {
    return s;
  }
  auto name = models::serialize::ReadString(in);
  if (!name.ok()) return name.status();
  if (!IsKnownModelName(*name)) {
    return Status::CorruptCheckpoint("checkpoint names unknown model '" +
                                     *name + "'");
  }
  models::ModelPtr model = MakeModel(*name, config);
  if (Status s = model->LoadFrom(in); !s.ok()) return s;
  return model;
}

}  // namespace sqlfacil::core
