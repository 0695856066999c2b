// Runs a test body on both inference tiers of a trained model: the fp32 tier
// it has after training, then the int8 tier Model::Quantize builds.

#ifndef SQLFACIL_TESTS_TIERS_H_
#define SQLFACIL_TESTS_TIERS_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>

#include "sqlfacil/models/dataset.h"
#include "sqlfacil/models/model.h"

namespace sqlfacil {

/// The model families that carry an int8 tier (CnnModel, LstmModel).
template <typename M>
concept HasInt8Tier = requires(const M& model) { model.quantized(); };

/// The statements an LSTM's int8 tier is calibrated on: the first 256 of
/// `valid`, or of `train` when `valid` is empty. The CNN ignores them.
inline std::span<const std::string> Calibration(const models::Dataset& train,
                                                const models::Dataset& valid) {
  const auto& source =
      valid.size() > 0 ? valid.statements : train.statements;
  return {source.data(), std::min<size_t>(source.size(), 256)};
}

/// Runs `body()` on `model` as trained, then quantizes it over
/// `calibration` and runs `body()` again, so every assertion in `body`
/// holds on both tiers.
template <typename Body>
void OnBothTiers(models::Model& model,
                 std::span<const std::string> calibration, const Body& body) {
  {
    SCOPED_TRACE("fp32 tier");
    body();
  }
  const Status status = model.Quantize(calibration);
  ASSERT_TRUE(status.ok()) << model.name() << ": " << status.ToString();
  SCOPED_TRACE("int8 tier");
  body();
}

}  // namespace sqlfacil

#endif  // SQLFACIL_TESTS_TIERS_H_
