#include "mvcom/problem.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace mvcom::core {

EpochInstance::EpochInstance(std::vector<Committee> committees, double alpha,
                             std::uint64_t capacity, std::size_t n_min,
                             double deadline)
    : committees_(std::move(committees)),
      alpha_(alpha),
      capacity_(capacity),
      n_min_(n_min),
      deadline_(deadline) {
  if (committees_.empty()) {
    throw std::invalid_argument("EpochInstance: no committees");
  }
  // Every solver, and the pipeline's optimality certificate, reads gain
  // signs; a NaN or infinite α makes them meaningless.
  if (!(std::isfinite(alpha_) && alpha_ > 0.0)) {
    throw std::invalid_argument(
        "EpochInstance: alpha must be finite and positive");
  }
  // Reject adversarial shard sizes whose total would wrap std::uint64_t:
  // downstream bookkeeping (smallest-prefix feasibility tests, incremental
  // Σ s maintenance in the SE solvers, scheduling_worthwhile) sums subsets
  // unchecked and a wrapped total could mark infeasible cardinalities
  // active.
  for (const Committee& c : committees_) {
    if (c.txs > std::numeric_limits<std::uint64_t>::max() - total_txs_) {
      throw std::invalid_argument(
          "EpochInstance: total shard size overflows 64-bit accounting");
    }
    total_txs_ += c.txs;
  }
  if (deadline_ < 0.0) {
    // t_j = max_{i∈I_j} l_i (paper §III-A).
    deadline_ = 0.0;
    for (const Committee& c : committees_) {
      deadline_ = std::max(deadline_, c.latency);
    }
  }
}

EpochInstance EpochInstance::from_reports(
    std::span<const txn::ShardReport> reports, double alpha,
    std::uint64_t capacity, std::size_t n_min, double deadline) {
  std::vector<Committee> committees;
  committees.reserve(reports.size());
  for (const txn::ShardReport& r : reports) {
    committees.push_back({r.committee_id, r.tx_count, r.two_phase_latency()});
  }
  return EpochInstance(std::move(committees), alpha, capacity, n_min, deadline);
}

double EpochInstance::utility(const Selection& x) const {
  assert(x.size() == committees_.size());
  double u = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i]) u += gain(i);
  }
  return u;
}

SelectionStats EpochInstance::stats(const Selection& x) const {
  assert(x.size() == committees_.size());
  SelectionStats st;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i]) {
      ++st.chosen;
      st.txs += committees_[i].txs;
    }
  }
  return st;
}

double EpochInstance::valuable_degree(const Selection& x,
                                      double age_floor) const {
  assert(x.size() == committees_.size());
  assert(age_floor > 0.0);
  double degree = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!x[i]) continue;
    degree += static_cast<double>(committees_[i].txs) /
              std::max(age(i), age_floor);
  }
  return degree;
}

std::uint64_t EpochInstance::permitted_txs(const Selection& x) const {
  assert(x.size() == committees_.size());
  std::uint64_t txs = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i]) txs += committees_[i].txs;
  }
  return txs;
}

double EpochInstance::cumulative_age(const Selection& x) const {
  assert(x.size() == committees_.size());
  double total = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i]) total += age(i);
  }
  return total;
}

bool EpochInstance::scheduling_worthwhile() const {
  // total_txs_ is overflow-checked at construction, so the comparison with
  // the capacity cannot be fooled by a wrapped sum.
  return committees_.size() > n_min_ && total_txs_ > capacity_;
}

}  // namespace mvcom::core
