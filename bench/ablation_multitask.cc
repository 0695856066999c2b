// Extension (paper Section 8 future work): multi-task learning. One shared
// character-level CNN encoder with three heads (error class, CPU time,
// answer size) versus three independently trained ccnn models, on SDSS.
// Reports per-task quality, parameter counts, and training time.

#include <chrono>
#include <cmath>
#include <cstdio>

#include "harness/harness.h"
#include "sqlfacil/core/evaluator.h"
#include "sqlfacil/models/multitask_model.h"
#include "sqlfacil/util/string_util.h"
#include "sqlfacil/util/table_printer.h"

int main() {
  using namespace sqlfacil;
  const auto config = bench::ConfigFromEnv();
  bench::PrintBanner("Extension: multi-task vs single-task ccnn (SDSS)",
                     config);

  auto sdss = bench::GetSdssWorkload(config);
  Rng rng(config.seed ^ 0x7A);
  const auto split = workload::RandomSplit(sdss.workload, &rng);
  auto error_task = core::BuildTask(sdss.workload, split,
                                    core::Problem::kErrorClassification);
  auto cpu_task = core::BuildTask(sdss.workload, split,
                                  core::Problem::kCpuTime);
  auto answer_task = core::BuildTask(sdss.workload, split,
                                     core::Problem::kAnswerSize);

  // --- Single-task: three independent ccnn models. ---
  double single_seconds = 0.0;
  size_t single_params = 0;
  double single_error_acc = 0.0, single_cpu_mse = 0.0, single_answer_mse = 0.0;
  {
    const auto start = std::chrono::steady_clock::now();
    auto trained_error =
        bench::TrainModels({"ccnn"}, error_task, config);
    auto trained_cpu = bench::TrainModels({"ccnn"}, cpu_task, config);
    auto trained_answer =
        bench::TrainModels({"ccnn"}, answer_task, config);
    single_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    single_params = trained_error[0].model->num_parameters() +
                    trained_cpu[0].model->num_parameters() +
                    trained_answer[0].model->num_parameters();
    single_error_acc =
        core::EvaluateClassification(*trained_error[0].model,
                                     error_task.test)
            .accuracy;
    single_cpu_mse =
        core::EvaluateRegression(*trained_cpu[0].model, cpu_task.test).mse;
    single_answer_mse =
        core::EvaluateRegression(*trained_answer[0].model, answer_task.test)
            .mse;
  }

  // --- Multi-task: one shared encoder, three heads. ---
  // The three tasks are built from the same split with no skipped labels
  // on SDSS, so dataset rows align one-to-one.
  auto to_multi = [&](const models::Dataset& error_ds,
                      const models::Dataset& cpu_ds,
                      const models::Dataset& answer_ds) {
    models::MultiTaskDataset multi;
    multi.num_error_classes = error_ds.num_classes;
    multi.statements = error_ds.statements;
    multi.error_labels = error_ds.labels;
    multi.cpu_targets = cpu_ds.targets;
    multi.answer_targets = answer_ds.targets;
    return multi;
  };
  auto multi_train =
      to_multi(error_task.train, cpu_task.train, answer_task.train);
  auto multi_valid =
      to_multi(error_task.valid, cpu_task.valid, answer_task.valid);
  // Apply the training cap consistently.
  if (config.train_cap > 0 && multi_train.size() > config.train_cap) {
    Rng cap_rng(config.seed ^ 0x33);
    auto perm = cap_rng.Permutation(multi_train.size());
    models::MultiTaskDataset capped;
    capped.num_error_classes = multi_train.num_error_classes;
    for (size_t i = 0; i < config.train_cap; ++i) {
      const size_t idx = perm[i];
      capped.statements.push_back(multi_train.statements[idx]);
      capped.error_labels.push_back(multi_train.error_labels[idx]);
      capped.cpu_targets.push_back(multi_train.cpu_targets[idx]);
      capped.answer_targets.push_back(multi_train.answer_targets[idx]);
    }
    multi_train = std::move(capped);
  }

  models::MultiTaskCnnModel::Config mconfig;
  mconfig.epochs = config.epochs;
  models::MultiTaskCnnModel multi(mconfig);
  Rng mrng(config.seed ^ 0x44);
  const auto start = std::chrono::steady_clock::now();
  multi.Fit(multi_train, multi_valid, &mrng);
  const double multi_seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();

  // Evaluate the multi-task model per task.
  const auto preds = multi.PredictBatch(error_task.test.statements);
  size_t correct = 0;
  double cpu_se = 0.0, answer_se = 0.0;
  for (size_t i = 0; i < error_task.test.size(); ++i) {
    const auto& pred = preds[i];
    const int argmax = static_cast<int>(
        std::max_element(pred.error_probs.begin(), pred.error_probs.end()) -
        pred.error_probs.begin());
    correct += (argmax == error_task.test.labels[i]);
    const double cr = pred.cpu - cpu_task.test.targets[i];
    const double ar = pred.answer - answer_task.test.targets[i];
    cpu_se += cr * cr;
    answer_se += ar * ar;
  }
  const double n = static_cast<double>(error_task.test.size());

  TablePrinter table({"Variant", "params", "fit (s)", "error acc.",
                      "cpu MSE", "answer MSE"});
  table.AddRow({"3x single-task ccnn", std::to_string(single_params),
                FmtN(single_seconds, 1), Fmt4(single_error_acc),
                Fmt4(single_cpu_mse), Fmt4(single_answer_mse)});
  table.AddRow({"multi-task ccnn", std::to_string(multi.num_parameters()),
                FmtN(multi_seconds, 1), Fmt4(correct / n), Fmt4(cpu_se / n),
                Fmt4(answer_se / n)});
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Expected shape: the multi-task model reaches comparable per-task\n"
      "quality with roughly a third of the parameters and training time\n"
      "(shared encoder), supporting the paper's future-work hypothesis.\n");
  return 0;
}
