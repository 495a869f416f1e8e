#include "mvcom/ddl_policy.hpp"

#include <stdexcept>

#include "common/stats.hpp"

namespace mvcom::core {

double ddl_deadline(std::span<const txn::ShardReport> reports,
                    double quantile) {
  if (reports.empty()) {
    throw std::invalid_argument("ddl_deadline: no reports");
  }
  if (!(quantile > 0.0 && quantile <= 1.0)) {
    throw std::invalid_argument("ddl_deadline: quantile in (0, 1]");
  }
  std::vector<double> latencies;
  latencies.reserve(reports.size());
  for (const txn::ShardReport& r : reports) {
    latencies.push_back(r.two_phase_latency());
  }
  return common::percentile(latencies, quantile);
}

DdlAdmission admit_by_deadline(std::span<const txn::ShardReport> reports,
                               double deadline) {
  DdlAdmission result;
  result.deadline = deadline;
  for (const txn::ShardReport& r : reports) {
    if (r.two_phase_latency() <= deadline) {
      result.admitted.push_back(r);
    } else {
      ++result.stragglers;
    }
  }
  return result;
}

std::optional<EpochInstance> make_instance_with_ddl(
    const DdlAdmission& admission, double alpha, std::uint64_t capacity,
    std::size_t n_min) {
  if (admission.admitted.empty()) return std::nullopt;
  return EpochInstance::from_reports(admission.admitted, alpha, capacity,
                                     n_min, admission.deadline);
}

}  // namespace mvcom::core
