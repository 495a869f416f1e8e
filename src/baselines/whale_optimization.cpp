#include "baselines/whale_optimization.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <vector>

namespace mvcom::baselines {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr std::size_t kPopulation = 30;
constexpr double kSpiralB = 1.0;  // logarithmic-spiral shape constant

/// Threshold binarization of a continuous whale position.
Selection binarize(const std::vector<double>& pos) {
  Selection x(pos.size(), 0);
  for (std::size_t i = 0; i < pos.size(); ++i) x[i] = pos[i] > 0.5 ? 1 : 0;
  return x;
}

}  // namespace

SolverResult WhaleOptimization::solve(const EpochInstance& instance) {
  common::Rng rng(seed_);
  const std::size_t dim = instance.size();
  const std::size_t pop = kPopulation;

  std::vector<std::vector<double>> whales(pop, std::vector<double>(dim));
  for (auto& w : whales) {
    for (double& v : w) v = rng.uniform01();
  }

  // Fitness = utility of the binarized position with linear constraint
  // penalties (the standard binary-WOA recipe) — NOT a repaired utility,
  // so the reported quality reflects WOA's own search. The penalty slope
  // exceeds any per-TX gain, so infeasible never beats feasible.
  const double penalty_rate = instance.alpha() + 1.0;
  const double n_min_penalty =
      penalty_rate * static_cast<double>(instance.capacity());
  const auto fitness = [&](const std::vector<double>& pos,
                           Selection* out) -> double {
    Selection x = binarize(pos);
    const auto st = instance.stats(x);
    double f = instance.utility(x);
    if (st.txs > instance.capacity()) {
      f -= penalty_rate * static_cast<double>(st.txs - instance.capacity());
    }
    if (st.chosen < instance.n_min()) {
      f -= n_min_penalty * static_cast<double>(instance.n_min() - st.chosen);
    }
    if (out) *out = std::move(x);
    return f;
  };

  double best_fitness = kNegInf;
  std::vector<double> best_pos(dim, 0.0);
  Selection best_selection;
  for (const auto& w : whales) {
    Selection x;
    const double f = fitness(w, &x);
    if (f > best_fitness) {
      best_fitness = f;
      best_pos = w;
      best_selection = std::move(x);
    }
  }

  SolverResult result;
  result.utility_trace.reserve(params_.iterations);

  for (std::size_t it = 0; it < params_.iterations; ++it) {
    // a decreases linearly 2 → 0 over the run (exploration → exploitation).
    const double a = 2.0 - 2.0 * static_cast<double>(it) /
                               static_cast<double>(params_.iterations);
    for (auto& w : whales) {
      const double p = rng.uniform01();
      if (p < 0.5) {
        const double A = 2.0 * a * rng.uniform01() - a;
        const double C = 2.0 * rng.uniform01();
        if (std::abs(A) < 1.0) {
          // Encircling prey: move toward the best-known whale.
          for (std::size_t d = 0; d < dim; ++d) {
            const double dist = std::abs(C * best_pos[d] - w[d]);
            w[d] = best_pos[d] - A * dist;
          }
        } else {
          // Search for prey: move relative to a random whale.
          const auto& rand_whale = whales[rng.below(pop)];
          for (std::size_t d = 0; d < dim; ++d) {
            const double dist = std::abs(C * rand_whale[d] - w[d]);
            w[d] = rand_whale[d] - A * dist;
          }
        }
      } else {
        // Bubble-net attack: logarithmic spiral around the best whale.
        const double l = rng.uniform(-1.0, 1.0);
        for (std::size_t d = 0; d < dim; ++d) {
          const double dist = std::abs(best_pos[d] - w[d]);
          w[d] = dist * std::exp(kSpiralB * l) *
                     std::cos(2.0 * std::numbers::pi * l) +
                 best_pos[d];
        }
      }
      for (double& v : w) v = std::clamp(v, 0.0, 1.0);

      Selection x;
      const double f = fitness(w, &x);
      if (f > best_fitness) {
        best_fitness = f;
        best_pos = w;
        best_selection = std::move(x);
      }
    }
    result.utility_trace.push_back(
        best_fitness == kNegInf ? std::numeric_limits<double>::quiet_NaN()
                                : best_fitness);
  }

  result.iterations = params_.iterations;
  // The best whale may sit just outside the feasible region (penalty
  // fitness); neutrally repair the final answer only.
  if (!best_selection.empty() && !instance.feasible(best_selection)) {
    repair_random(instance, best_selection, rng);
  }
  result.best = std::move(best_selection);
  finalize_result(instance, result);
  return result;
}

}  // namespace mvcom::baselines
