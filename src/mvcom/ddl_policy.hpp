#pragma once
// Deadline (DDL) admission for the final committee (§III-A).
//
// The paper deliberately does not prescribe how the DDL is set: "this paper
// is not trying to tell how to set such the DDL. ... In practice, the DDL
// can be set to the moment when a predefined percentage of committees
// submit their shards" — and Alg. 1 line 29 stops listening once N_max of
// the member committees have arrived. This module sets t_j to a quantile of
// the arrived two-phase latencies and applies the admission step (a
// committee whose two-phase latency exceeds the deadline is a straggler and
// never enters I_j), so benches can ablate the DDL choice — a knob the paper
// leaves open. Quantile 1 is the paper's default t_j = max_i l_i, bit for
// bit; 0.8 reproduces its "N_max is set to 80%".

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mvcom/problem.hpp"
#include "txn/workload.hpp"

namespace mvcom::core {

/// Result of applying a deadline to the arrived committee reports.
struct DdlAdmission {
  double deadline = 0.0;                   // t_j
  std::vector<txn::ShardReport> admitted;  // l_i <= t_j, arrival order kept
  std::size_t stragglers = 0;              // reports refused by the DDL
};

/// t_j: the linear-interpolated `quantile` of the reports' two-phase
/// latencies. Throws std::invalid_argument when `reports` is empty or
/// `quantile` is not in (0, 1] (NaN included).
[[nodiscard]] double ddl_deadline(std::span<const txn::ShardReport> reports,
                                  double quantile);

/// The admission step: keeps the reports with l_i <= `deadline`.
[[nodiscard]] DdlAdmission admit_by_deadline(
    std::span<const txn::ShardReport> reports, double deadline);

/// Admission → EpochInstance carrying t_j as its deadline. Returns
/// std::nullopt when no committee met the deadline.
[[nodiscard]] std::optional<EpochInstance> make_instance_with_ddl(
    const DdlAdmission& admission, double alpha, std::uint64_t capacity,
    std::size_t n_min);

}  // namespace mvcom::core
