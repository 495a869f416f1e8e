#pragma once
// Deadline (DDL) policies for the final committee (§III-A).
//
// The paper deliberately does not prescribe how the DDL is set: "this paper
// is not trying to tell how to set such the DDL. ... In practice, the DDL
// can be set to the moment when a predefined percentage of committees
// submit their shards" — and Alg. 1 line 29 stops listening once N_max of
// the member committees have arrived. This module provides the policy
// family and the admission step (a committee whose two-phase latency
// exceeds the deadline is a straggler and never enters I_j), so benches can
// ablate the DDL choice — a knob the paper leaves open.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "mvcom/problem.hpp"
#include "txn/workload.hpp"

namespace mvcom::core {

/// Result of applying a DDL policy to the arrived committee reports.
struct DdlAdmission {
  double deadline = 0.0;                   // t_j
  std::vector<txn::ShardReport> admitted;  // l_i <= t_j, arrival order kept
  std::size_t stragglers = 0;              // reports refused by the DDL
};

/// A deadline policy. Implementations must be deterministic.
class DdlPolicy {
 public:
  virtual ~DdlPolicy() = default;
  /// Computes t_j from the arrived reports. Precondition: non-empty.
  [[nodiscard]] virtual double deadline(
      std::span<const txn::ShardReport> reports) const = 0;

  /// Applies the policy: computes t_j and drops stragglers.
  [[nodiscard]] DdlAdmission admit(
      std::span<const txn::ShardReport> reports) const;
};

/// The paper's default: t_j = max_i l_i — everyone is admitted.
class MaxLatencyDdl final : public DdlPolicy {
 public:
  [[nodiscard]] double deadline(
      std::span<const txn::ShardReport> reports) const override;
};

/// N_max-style policy: t_j is the q-quantile of the two-phase latencies
/// (q = 0.8 reproduces the paper's "N_max is set to 80%"). Committees
/// slower than t_j are stragglers.
class PercentileDdl final : public DdlPolicy {
 public:
  explicit PercentileDdl(double quantile);
  [[nodiscard]] double deadline(
      std::span<const txn::ShardReport> reports) const override;

 private:
  double quantile_;
};

/// A fixed wall-clock deadline (e.g. a protocol constant).
class FixedDdl final : public DdlPolicy {
 public:
  explicit FixedDdl(double deadline_seconds) : deadline_(deadline_seconds) {}
  [[nodiscard]] double deadline(
      std::span<const txn::ShardReport>) const override {
    return deadline_;
  }

 private:
  double deadline_;
};

/// Convenience: policy → admission → EpochInstance in one step.
/// Returns std::nullopt when no committee meets the deadline.
[[nodiscard]] std::optional<EpochInstance> make_instance_with_ddl(
    std::span<const txn::ShardReport> reports, const DdlPolicy& policy,
    double alpha, std::uint64_t capacity, std::size_t n_min);

}  // namespace mvcom::core
