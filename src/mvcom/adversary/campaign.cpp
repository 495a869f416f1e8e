#include "mvcom/adversary/campaign.hpp"

#include <algorithm>
#include <map>
#include <span>

#include "common/fnv.hpp"
#include "txn/workload.hpp"

namespace mvcom::core {

namespace {

/// Substream layout per epoch e off the campaign seed: 2e keys the honest
/// workload, 2e+1 the harness (the Adversary salts its own family).
constexpr std::uint64_t kWorkloadStream = 0;
constexpr std::uint64_t kHarnessStream = 1;

struct Fnv {
  std::uint64_t h = common::kFnv1aBasis;
  void byte(std::uint8_t b) { h = common::fnv1a_byte(h, b); }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double d) {
    std::uint64_t bits;
    static_assert(sizeof(double) == sizeof(std::uint64_t));
    __builtin_memcpy(&bits, &d, sizeof(bits));
    u64(bits);
  }
};

}  // namespace

CampaignResult run_adversarial_campaign(const txn::Trace& trace,
                                        const CampaignConfig& config,
                                        std::uint64_t seed) {
  txn::WorkloadConfig wc;
  wc.num_committees = config.committees + config.reserve;
  const txn::WorkloadGenerator gen(trace, wc);
  const Adversary adversary(config.adversary, seed);
  // Every epoch's harness, in the campaign regime (see CampaignConfig).
  ChaosConfig chaos;
  OnlineSchedulerConfig& sched = chaos.supervisor.scheduler;
  sched.alpha = config.alpha;
  sched.capacity = config.capacity;
  sched.expected_committees = config.committees + config.reserve;
  sched.n_max_fraction = 1.0;
  if (config.reserve > 0) {
    sched.n_min_fraction = 0.5 * static_cast<double>(config.committees) /
                           static_cast<double>(config.committees +
                                               config.reserve);
  }
  chaos.supervisor.risk_adaptive = config.risk_adaptive;
  chaos.ddl_seconds = config.ddl_seconds;
  chaos.obs = config.obs;

  CampaignResult result;
  result.epochs.reserve(config.epochs);
  Fnv digest;
  SupervisorCarry carry;
  std::optional<EpochObservation> last;

  for (std::size_t e = 0; e < config.epochs; ++e) {
    // Honest inputs, keyed per (seed, epoch): the first `committees`
    // reports are the epoch-start membership, the rest the join reserve.
    const txn::EpochWorkload workload =
        gen.epoch_keyed(seed, 2 * e + kWorkloadStream);
    const std::span<const txn::ShardReport> reports(workload.reports);
    const auto initial = chaos_committees_from_reports(
        reports.subspan(0, config.committees));
    const auto reserve =
        chaos_committees_from_reports(reports.subspan(config.committees));
    std::map<std::uint32_t, std::uint64_t> honest;
    for (const txn::ShardReport& r : workload.reports) {
      honest[r.committee_id] = r.tx_count;
    }

    const FaultPlan plan =
        adversary.plan_epoch(e, initial, reserve.size(), last);

    chaos.reserve = reserve;
    chaos.carry_in = e > 0 ? &carry : nullptr;
    const std::uint64_t epoch_seed =
        common::Rng::stream(seed, 2 * e + kHarnessStream)();

    EpochOutcome outcome;
    outcome.plan = plan;
    outcome.report = run_chaos_epoch(initial, plan, chaos, epoch_seed);
    const ChaosReport& report = outcome.report;
    const SchedulingDecision& decision = report.final_decision.decision;
    outcome.utility = decision.feasible ? decision.utility : 0.0;

    // Safety: a permitted committee whose admitted claim disagrees with its
    // honest workload count shipped a forged shard — its claimed TXs count
    // toward throughput on paper but contribute nothing honest.
    std::map<std::uint32_t, std::uint64_t> claimed;
    for (const txn::ShardReport& r : report.final_reports) {
      claimed[r.committee_id] = r.tx_count;
    }
    for (const std::uint32_t id : decision.permitted_ids) {
      const auto c = claimed.find(id);
      const std::uint64_t claim = c != claimed.end() ? c->second : 0;
      outcome.claimed_permitted_txs += claim;
      const auto hline = honest.find(id);
      if (hline != honest.end() && hline->second == claim) {
        outcome.honest_permitted_txs += claim;
      }
    }
    outcome.safety =
        outcome.claimed_permitted_txs == 0
            ? 1.0
            : static_cast<double>(outcome.honest_permitted_txs) /
                  static_cast<double>(outcome.claimed_permitted_txs);

    // Fold the epoch into the replay witness: the plan the adversary chose
    // and every decision-relevant output of the run.
    digest.u64(e);
    digest.u64(plan.events.size());
    for (const FaultEvent& ev : plan.events) {
      digest.byte(static_cast<std::uint8_t>(ev.kind));
      digest.byte(static_cast<std::uint8_t>(ev.victim));
      digest.u64(ev.committee_id);
      digest.f64(ev.at_seconds);
      digest.f64(ev.duration_seconds);
      digest.f64(ev.magnitude);
    }
    digest.byte(static_cast<std::uint8_t>(report.final_decision.tier));
    digest.byte(decision.feasible ? 1 : 0);
    digest.u64(decision.permitted_ids.size());
    for (const std::uint32_t id : decision.permitted_ids) digest.u64(id);
    digest.f64(outcome.utility);
    digest.u64(report.effective_n_min);
    digest.u64(report.joins);
    digest.u64(report.leaves);
    digest.u64(report.skipped_events);
    digest.f64(report.risk_score);

    result.infeasible_while_feasible |= report.infeasible_while_feasible;
    carry = report.carry_out;
    last = EpochObservation{decision.permitted_ids, report.final_reports,
                            report.banned_ids, outcome.utility};
    result.epochs.push_back(std::move(outcome));
  }

  result.mean_utility = 0.0;
  result.mean_safety = 0.0;
  for (const EpochOutcome& o : result.epochs) {
    result.mean_utility += o.utility;
    result.mean_safety += o.safety;
  }
  if (!result.epochs.empty()) {
    result.mean_utility /= static_cast<double>(result.epochs.size());
    result.mean_safety /= static_cast<double>(result.epochs.size());
  }
  result.decision_digest = digest.h;
  return result;
}

}  // namespace mvcom::core
