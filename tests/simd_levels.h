// SIMD dispatch levels for the tests' determinism sweeps: a guard that
// restores the level a test changed, and the levels this host supports, so
// a sweep checks scalar, AVX2 and AVX-512 wherever the CPU has them.

#ifndef SQLFACIL_TESTS_SIMD_LEVELS_H_
#define SQLFACIL_TESTS_SIMD_LEVELS_H_

#include <string>
#include <vector>

#include "sqlfacil/nn/simd.h"

namespace sqlfacil {

// Restores the SIMD dispatch level on scope exit.
class SimdLevelGuard {
 public:
  SimdLevelGuard() : saved_(nn::simd::GetLevel()) {}
  ~SimdLevelGuard() { nn::simd::SetLevel(saved_); }
  SimdLevelGuard(const SimdLevelGuard&) = delete;
  SimdLevelGuard& operator=(const SimdLevelGuard&) = delete;

 private:
  nn::simd::Level saved_;
};

// Every dispatch level the CPU supports, scalar first. SetLevel clamps to
// the CPU, so a level is supported when it reads back unchanged.
inline std::vector<nn::simd::Level> SupportedSimdLevels() {
  SimdLevelGuard guard;
  std::vector<nn::simd::Level> levels;
  for (const nn::simd::Level level :
       {nn::simd::Level::kScalar, nn::simd::Level::kAvx2,
        nn::simd::Level::kAvx512}) {
    nn::simd::SetLevel(level);
    if (nn::simd::GetLevel() == level) levels.push_back(level);
  }
  return levels;
}

// "simd=<level number>", for assertion messages.
inline std::string SimdLevelTag(nn::simd::Level level) {
  return "simd=" + std::to_string(static_cast<int>(level));
}

}  // namespace sqlfacil

#endif  // SQLFACIL_TESTS_SIMD_LEVELS_H_
