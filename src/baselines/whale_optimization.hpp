#pragma once
// Whale Optimization Algorithm baseline (paper §VI-B, citing Mirjalili &
// Lewis 2016 and Pham et al. 2020): population-based metaheuristic with the
// canonical three behaviours — encircling prey, bubble-net spiral attack,
// and random search — applied to a continuous relaxation in [0,1]^I that is
// binarized by thresholding and repaired to feasibility before fitness
// evaluation. The binary adaptation follows the standard transfer-function
// recipe used in binary-WOA literature.

#include "baselines/solver.hpp"

namespace mvcom::baselines {

/// Population size and spiral shape are fixed in whale_optimization.cpp.
struct WoaParams {
  std::size_t iterations = 200;
};

class WhaleOptimization final : public Solver {
 public:
  WhaleOptimization(WoaParams params, std::uint64_t seed)
      : params_(params), seed_(seed) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "WOA";
  }
  [[nodiscard]] SolverResult solve(const EpochInstance& instance) override;

 private:
  WoaParams params_;
  std::uint64_t seed_;
};

}  // namespace mvcom::baselines
