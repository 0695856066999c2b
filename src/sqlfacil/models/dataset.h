#ifndef SQLFACIL_MODELS_DATASET_H_
#define SQLFACIL_MODELS_DATASET_H_

#include <string>
#include <vector>

namespace sqlfacil::models {

enum class TaskKind { kClassification, kRegression };

/// A materialized learning dataset for one query facilitation problem
/// (Definition 4): raw statements plus either integer class labels or
/// (log-transformed) regression targets. `opt_costs` carries the optimizer
/// estimate used by the `opt` baseline.
struct Dataset {
  TaskKind kind = TaskKind::kClassification;
  int num_classes = 0;
  std::vector<std::string> statements;
  std::vector<int> labels;      // classification
  std::vector<float> targets;   // regression (already log-transformed)
  std::vector<double> opt_costs;

  size_t size() const { return statements.size(); }
};

}  // namespace sqlfacil::models

#endif  // SQLFACIL_MODELS_DATASET_H_
