// Offline quantizer: loads a trained fp32 checkpoint (framed, CRC-checked),
// calibrates activation ranges over a statements file, builds the int8 tier
// via Model::Quantize, and writes a v2 checkpoint that carries the quantized
// weights alongside the fp32 ones. A model loaded from the output serves
// int8; the input checkpoint still serves fp32.
//
// usage: quantize --model clstm|wlstm|ccnn|wcnn --in ckpt --out ckpt
//                 [--calib FILE]
//
// --calib is one SQL statement per line; the LSTM families require it (the
// hidden-state range is data-dependent), the CNN families ignore it (conv
// inputs are embedding-table rows, a static range). Exit codes: 0 = wrote
// quantized checkpoint, 1 = failure, 2 = usage error.

#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "sqlfacil/models/checkpoint.h"
#include "sqlfacil/models/cnn_model.h"
#include "sqlfacil/models/lstm_model.h"
#include "sqlfacil/models/model.h"
#include "sqlfacil/sql/tokenizer.h"

namespace {

using sqlfacil::Status;

struct Args {
  std::string model;
  std::string in_path;
  std::string out_path;
  std::string calib_path;
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --model clstm|wlstm|ccnn|wcnn --in CKPT --out CKPT"
               " [--calib FILE]\n",
               argv0);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--model" && (v = next())) {
      args->model = v;
    } else if (flag == "--in" && (v = next())) {
      args->in_path = v;
    } else if (flag == "--out" && (v = next())) {
      args->out_path = v;
    } else if (flag == "--calib" && (v = next())) {
      args->calib_path = v;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag '%s'\n", flag.c_str());
      return false;
    }
  }
  return !args->model.empty() && !args->in_path.empty() &&
         !args->out_path.empty();
}

// LoadFrom restores the full config (dims, granularity, vocab) from the
// checkpoint, so the constructor config only has to pick the family.
std::unique_ptr<sqlfacil::models::Model> MakeModel(const std::string& name) {
  using sqlfacil::models::CnnModel;
  using sqlfacil::models::LstmModel;
  const bool word = name == "wlstm" || name == "wcnn";
  if (name == "clstm" || name == "wlstm") {
    LstmModel::Config config;
    if (word) config.granularity = sqlfacil::sql::Granularity::kWord;
    return std::make_unique<LstmModel>(config);
  }
  if (name == "ccnn" || name == "wcnn") {
    CnnModel::Config config;
    if (word) config.granularity = sqlfacil::sql::Granularity::kWord;
    return std::make_unique<CnnModel>(config);
  }
  return nullptr;
}

int Fail(const char* what, const Status& s) {
  std::fprintf(stderr, "%s: %s\n", what, s.message().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage(argv[0]);
    return 2;
  }
  auto model = MakeModel(args.model);
  if (model == nullptr) {
    std::fprintf(stderr, "unknown model '%s'\n", args.model.c_str());
    Usage(argv[0]);
    return 2;
  }

  auto payload = sqlfacil::models::ReadCheckpointFile(args.in_path);
  if (!payload.ok()) return Fail("reading checkpoint", payload.status());
  std::istringstream in(std::move(payload->payload));
  if (Status s = model->LoadFrom(in); !s.ok()) {
    return Fail("restoring model", s);
  }

  std::vector<std::string> calibration;
  if (!args.calib_path.empty()) {
    std::ifstream calib(args.calib_path);
    if (!calib) {
      std::fprintf(stderr, "cannot open '%s'\n", args.calib_path.c_str());
      return 1;
    }
    for (std::string line; std::getline(calib, line);) {
      if (!line.empty()) calibration.push_back(std::move(line));
    }
  }

  if (Status s = model->Quantize(
          std::span<const std::string>(calibration.data(), calibration.size()));
      !s.ok()) {
    return Fail("quantizing", s);
  }

  std::ostringstream out;
  if (Status s = model->SaveTo(out); !s.ok()) {
    return Fail("serializing quantized model", s);
  }
  if (Status s = sqlfacil::models::WriteCheckpointFile(args.out_path,
                                                       std::move(out).str());
      !s.ok()) {
    return Fail("writing checkpoint", s);
  }
  std::fprintf(stderr, "quantized %s: %s -> %s (%zu calibration statements)\n",
               args.model.c_str(), args.in_path.c_str(),
               args.out_path.c_str(), calibration.size());
  return 0;
}
