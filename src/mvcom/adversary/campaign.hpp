#pragma once
// Multi-epoch adversarial campaign: the closed loop of adversary vs.
// supervisor. Each epoch the Adversary plans faults from what it observed
// of the previous epoch, the chaos harness runs the supervised epoch on the
// DES, and the supervisor's cross-epoch carry (strikes, bans, decayed risk)
// feeds its next instantiation — so both sides adapt across the campaign.
//
// Per epoch the campaign scores:
//  * utility  — the final supervised decision's U(x);
//  * safety   — honest permitted TXs / claimed permitted TXs: a permitted
//    committee whose admitted claim differs from its honest workload count
//    contributes zero honest TXs (its shard is forged), so undetected
//    colluding misreports drive safety below 1 even when utility looks fine.
//
// Determinism: every epoch's workload is keyed (WorkloadGenerator::
// epoch_keyed), every adversary plan is a pure function of (seed, epoch,
// history), and the harness itself is seed-deterministic — the campaign's
// decision_digest is therefore a replay witness: same (config, seed) ⇒ same
// digest, bit for bit.

#include <cstdint>
#include <vector>

#include "mvcom/adversary/adversary.hpp"
#include "mvcom/fault_injection.hpp"
#include "txn/trace.hpp"

namespace mvcom::core {

/// Ĉ per member committee of the campaign regime: modest slack past
/// N_min·E[s_i] (~1088 TXs per shard), so a lone inflated claim still fits
/// beside the N_min−1 smallest honest shards — the crowding-out regime the
/// risk-adaptive defense exists for.
inline constexpr std::uint64_t kCampaignCapacityPerCommittee = 725;

/// The campaign derives each epoch's ChaosConfig from these. Its admission
/// window admits the whole membership and every joiner (N_max = 100% of
/// committees + reserve), since an N_max cutoff below the membership
/// depletes the honest pool — exactly what lets a forged claim fit inside
/// the capacity at the feasibility-frontier N_min — and keeps the effective
/// N_min at 50% of the initial `committees`.
struct CampaignConfig {
  AdversaryConfig adversary{};
  std::size_t epochs = 6;
  std::size_t committees = 20;
  /// Join-reserve pool size per epoch (churn-storm needs > 0).
  std::size_t reserve = 0;
  double alpha = 1.5;
  std::uint64_t capacity = 0;  // Ĉ — required, > 0
  double ddl_seconds = 1800.0;
  bool risk_adaptive = false;  // SupervisorConfig::risk_adaptive
  /// Observability sinks, wired into every epoch's harness run.
  obs::ObsContext obs{};
};

struct EpochOutcome {
  FaultPlan plan;
  ChaosReport report;
  double utility = 0.0;
  std::uint64_t honest_permitted_txs = 0;
  std::uint64_t claimed_permitted_txs = 0;
  double safety = 1.0;
};

struct CampaignResult {
  std::vector<EpochOutcome> epochs;
  double mean_utility = 0.0;
  double mean_safety = 1.0;
  /// Any epoch's ladder reported infeasible while a feasible selection
  /// existed — must stay false under every strategy.
  bool infeasible_while_feasible = false;
  /// FNV-1a over every epoch's plan and decision — the replay witness.
  std::uint64_t decision_digest = 0;
};

/// Runs the campaign on workloads drawn from `trace`. Deterministic per
/// (trace, config, seed).
[[nodiscard]] CampaignResult run_adversarial_campaign(
    const txn::Trace& trace, const CampaignConfig& config,
    std::uint64_t seed);

}  // namespace mvcom::core
