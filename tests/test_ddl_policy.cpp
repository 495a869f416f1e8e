// Tests for DDL admission (§III-A / Alg. 1 line 29): quantile deadlines,
// the admission step, and the instance built from it.

#include "mvcom/ddl_policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "mvcom/supervisor.hpp"
#include "sharding/verification.hpp"

namespace {

using mvcom::core::admit_by_deadline;
using mvcom::core::Admission;
using mvcom::core::ddl_deadline;
using mvcom::core::DdlAdmission;
using mvcom::core::make_instance_with_ddl;
using mvcom::txn::ShardReport;

/// The admission at the `quantile` deadline.
DdlAdmission admit_at_quantile(const std::vector<ShardReport>& reports,
                               double quantile) {
  return admit_by_deadline(reports, ddl_deadline(reports, quantile));
}

std::vector<ShardReport> reports_with_latencies(
    std::initializer_list<double> latencies) {
  std::vector<ShardReport> reports;
  std::uint32_t id = 0;
  for (const double l : latencies) {
    ShardReport r;
    r.committee_id = id++;
    r.tx_count = 100 + 10 * id;
    r.formation_latency = l;
    r.consensus_latency = 0.0;
    reports.push_back(r);
  }
  return reports;
}

TEST(MaxLatencyDdlTest, AdmitsEveryoneAtTheMax) {
  const auto reports = reports_with_latencies({800, 900, 1200, 1000});
  // Quantile 1 is the paper's default t_j = max_i l_i.
  const DdlAdmission admission = admit_at_quantile(reports, 1.0);
  EXPECT_DOUBLE_EQ(admission.deadline, 1200.0);
  EXPECT_EQ(admission.admitted.size(), 4u);
  EXPECT_EQ(admission.stragglers, 0u);
}

TEST(PercentileDdlTest, DropsTheSlowestTail) {
  // 10 committees, latencies 100..1000; the 0.8 quantile (linear
  // interpolation) admits the fastest 9... compute: values 100..1000,
  // q=0.8 → position 7.2 → 820. Committees above 820 are stragglers.
  std::vector<double> latencies;
  for (int i = 1; i <= 10; ++i) latencies.push_back(100.0 * i);
  const auto reports = reports_with_latencies(
      {100, 200, 300, 400, 500, 600, 700, 800, 900, 1000});
  const auto admission = admit_at_quantile(reports, 0.8);
  EXPECT_NEAR(admission.deadline, 820.0, 1e-9);
  EXPECT_EQ(admission.admitted.size(), 8u);
  EXPECT_EQ(admission.stragglers, 2u);
  for (const auto& r : admission.admitted) {
    EXPECT_LE(r.two_phase_latency(), admission.deadline);
  }
}

TEST(PercentileDdlTest, FullQuantileEqualsMaxLatency) {
  // Bit-equal, not just close: the paper's max-latency DDL is quantile 1.
  for (const auto& reports :
       {reports_with_latencies({5, 9, 3, 7}),
        reports_with_latencies({1e-300, 0.1 + 0.2, 654.321, 654.3210000001}),
        reports_with_latencies({42.0})}) {
    double max_latency = 0.0;
    for (const auto& r : reports) {
      max_latency = std::max(max_latency, r.two_phase_latency());
    }
    EXPECT_EQ(ddl_deadline(reports, 1.0), max_latency);
  }
}

TEST(PercentileDdlTest, RejectsBadQuantiles) {
  const auto reports = reports_with_latencies({100, 200, 300});
  for (const double q : {0.0, -0.5, 1.5, std::nan(""),
                         std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(static_cast<void>(ddl_deadline(reports, q)),
                 std::invalid_argument)
        << q;
  }
}

TEST(FixedDdlTest, CutoffIsLiteral) {
  const auto reports = reports_with_latencies({100, 200, 300});
  const auto admission = admit_by_deadline(reports, 250.0);
  EXPECT_DOUBLE_EQ(admission.deadline, 250.0);
  EXPECT_EQ(admission.admitted.size(), 2u);
  EXPECT_EQ(admission.stragglers, 1u);
}

TEST(DdlPolicyTest, EmptyReportsThrow) {
  EXPECT_THROW(static_cast<void>(ddl_deadline({}, 1.0)),
               std::invalid_argument);
}

TEST(DdlPolicyTest, FiltersTheSupervisorsAdmittedReports) {
  // The supervisor's admission verdict (core::Admission) and the DDL's
  // deadline cut (core::DdlAdmission) are separate types in one namespace:
  // a translation unit that uses both must compile.
  mvcom::core::SupervisorConfig config;
  config.scheduler.capacity = 4000;
  config.scheduler.expected_committees = 4;
  mvcom::core::EpochSupervisor supervisor(config, 1);
  for (std::uint32_t id = 0; id < 3; ++id) {
    const auto submission = mvcom::sharding::build_submission(
        id, {{"shard-" + std::to_string(id), 600}});
    const double formation = 100.0 * (id + 1);
    EXPECT_EQ(supervisor.on_submission(submission, formation, 0.0),
              Admission::kAdmitted);
  }
  const DdlAdmission admission =
      admit_by_deadline(supervisor.scheduler().reports(), 250.0);
  ASSERT_EQ(admission.admitted.size(), 2u);
  EXPECT_EQ(admission.admitted[1].committee_id, 1u);
  EXPECT_EQ(admission.stragglers, 1u);
}

TEST(MakeInstanceWithDdlTest, StragglersNeverEnterTheInstance) {
  const auto reports = reports_with_latencies({100, 200, 900, 1000});
  const auto instance =
      make_instance_with_ddl(admit_at_quantile(reports, 0.5), 1.5, 10'000, 0);
  ASSERT_TRUE(instance.has_value());
  EXPECT_LT(instance->size(), reports.size());
  for (const auto& c : instance->committees()) {
    EXPECT_LE(c.latency, instance->deadline());
  }
  // The instance deadline is the quantile's, not the admitted max.
  EXPECT_DOUBLE_EQ(instance->deadline(), ddl_deadline(reports, 0.5));
}

TEST(MakeInstanceWithDdlTest, NoSurvivorsYieldsNullopt) {
  const auto reports = reports_with_latencies({100, 200});
  EXPECT_FALSE(make_instance_with_ddl(admit_by_deadline(reports, 50.0), 1.5,
                                      10'000, 0)
                   .has_value());
}

TEST(MakeInstanceWithDdlTest, TighterDdlShrinksAges) {
  // A tighter deadline leaves fresher shards: cumulative age of the
  // admitted set is smaller under the 0.6-quantile than under max-latency.
  const auto reports = reports_with_latencies(
      {100, 300, 500, 700, 900, 1100, 1300, 1500, 1700, 1900});
  const auto loose_inst =
      make_instance_with_ddl(admit_at_quantile(reports, 1.0), 1.5, 100'000, 0);
  const auto tight_inst =
      make_instance_with_ddl(admit_at_quantile(reports, 0.6), 1.5, 100'000, 0);
  ASSERT_TRUE(loose_inst && tight_inst);
  mvcom::core::Selection all_loose(loose_inst->size(), 1);
  mvcom::core::Selection all_tight(tight_inst->size(), 1);
  EXPECT_LT(tight_inst->cumulative_age(all_tight),
            loose_inst->cumulative_age(all_loose));
}

}  // namespace
