// Tests for the strategic-adversary layer: per-strategy plan shape and
// determinism, the (seed, observed history) purity contract, campaign
// replay digests, cross-epoch supervision carry, the risk-adaptive-vs-static
// dominance regime under targeted corruption, and the obs events digest the
// CI adversarial smoke uses as its bit-identical-replay witness.

#include "mvcom/adversary/adversary.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "mvcom/adversary/campaign.hpp"
#include "obs/trace.hpp"
#include "txn/trace_generator.hpp"
#include "txn/workload.hpp"

namespace {

using mvcom::core::Adversary;
using mvcom::core::AdversaryConfig;
using mvcom::core::AdversaryStrategy;
using mvcom::core::CampaignConfig;
using mvcom::core::CampaignResult;
using mvcom::core::ChaosCommittee;
using mvcom::core::chaos_committees_from_reports;
using mvcom::core::EpochObservation;
using mvcom::core::FaultEvent;
using mvcom::core::FaultKind;
using mvcom::core::FaultPlan;
using mvcom::core::kAllAdversaryStrategies;
using mvcom::core::kAttackHorizonSeconds;
using mvcom::core::run_adversarial_campaign;

mvcom::txn::Trace test_trace(std::uint64_t seed = 8) {
  mvcom::txn::TraceGeneratorConfig tc;
  tc.num_blocks = 64;
  tc.target_total_txs = 64'000;
  mvcom::common::Rng rng(seed);
  return mvcom::txn::generate_trace(tc, rng);
}

std::vector<ChaosCommittee> test_committees(const mvcom::txn::Trace& trace,
                                            std::size_t n) {
  mvcom::txn::WorkloadConfig wc;
  wc.num_committees = n;
  const mvcom::txn::WorkloadGenerator gen(trace, wc);
  return chaos_committees_from_reports(gen.epoch_keyed(3, 0).reports);
}

/// The CLI / bench campaign parameterization (20 committees,
/// Ĉ = kCampaignCapacityPerCommittee·|I|, budget 0.35).
CampaignConfig campaign_config(AdversaryStrategy strategy, bool risk_adaptive,
                               std::size_t epochs) {
  CampaignConfig config;
  config.adversary.strategy = strategy;
  config.adversary.budget = 0.35;
  config.committees = 20;
  config.epochs = epochs;
  config.reserve = strategy == AdversaryStrategy::kChurnStorm ? 20u : 0u;
  config.capacity = mvcom::core::kCampaignCapacityPerCommittee * 20;
  config.risk_adaptive = risk_adaptive;
  return config;
}

bool plans_equal(const FaultPlan& a, const FaultPlan& b) {
  if (a.events.size() != b.events.size()) return false;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const FaultEvent& x = a.events[i];
    const FaultEvent& y = b.events[i];
    if (x.kind != y.kind || x.victim != y.victim ||
        x.committee_id != y.committee_id || x.at_seconds != y.at_seconds ||
        x.duration_seconds != y.duration_seconds ||
        x.magnitude != y.magnitude) {
      return false;
    }
  }
  return true;
}

TEST(AdversaryStrategyTest, ParseRoundTripsEveryStrategy) {
  for (const AdversaryStrategy s : kAllAdversaryStrategies) {
    const auto parsed = mvcom::core::parse_adversary_strategy(
        mvcom::core::to_string(s));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(mvcom::core::parse_adversary_strategy("mallory").has_value());
  EXPECT_FALSE(mvcom::core::parse_adversary_strategy("").has_value());
}

TEST(AdversaryTest, RejectsBudgetsOutsideTheUnitIntervalAndNonInflations) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double budget : {nan, -0.1, 1.5}) {
    AdversaryConfig config;
    config.budget = budget;
    EXPECT_THROW(Adversary(config, 1), std::invalid_argument) << budget;
  }
  for (const double inflation : {1.0, 0.5, nan, inf}) {
    AdversaryConfig config;
    config.inflation = inflation;
    EXPECT_THROW(Adversary(config, 1), std::invalid_argument) << inflation;
  }
  for (const double budget : {0.0, 1.0}) {
    AdversaryConfig config;
    config.budget = budget;
    EXPECT_NO_THROW(Adversary(config, 1)) << budget;
  }
}

TEST(AdversaryTest, PlansArePureFunctionsOfSeedEpochAndHistory) {
  const auto trace = test_trace();
  const auto committees = test_committees(trace, 12);
  EpochObservation obs;
  obs.permitted_ids = {0, 3, 5, 7};
  for (const ChaosCommittee& c : committees) {
    obs.final_reports.push_back(
        {c.submission.committee_id, c.submission.claimed_tx_count, 0.0, 0.0});
  }
  for (const AdversaryStrategy s : kAllAdversaryStrategies) {
    AdversaryConfig config;
    config.strategy = s;
    const Adversary a(config, 99);
    const Adversary b(config, 99);
    // Same (seed, epoch, history) — identical plans, even across instances.
    EXPECT_TRUE(plans_equal(a.plan_epoch(4, committees, 6, obs),
                            b.plan_epoch(4, committees, 6, obs)))
        << mvcom::core::to_string(s);
    // Calls at other epochs must not perturb a replayed epoch (stateless).
    (void)a.plan_epoch(0, committees, 6, std::nullopt);
    EXPECT_TRUE(plans_equal(a.plan_epoch(4, committees, 6, obs),
                            b.plan_epoch(4, committees, 6, obs)))
        << mvcom::core::to_string(s);
    const Adversary other(config, 100);
    EXPECT_FALSE(plans_equal(a.plan_epoch(4, committees, 6, obs),
                             other.plan_epoch(4, committees, 6, obs)))
        << mvcom::core::to_string(s);
  }
}

TEST(AdversaryTest, TargetedCorruptionForgesTheObservedPicks) {
  const auto trace = test_trace();
  const auto committees = test_committees(trace, 12);
  EpochObservation obs;
  obs.permitted_ids = {1, 4, 6, 8, 9};
  obs.banned_ids = {4};  // dead target: no point striking it
  for (const ChaosCommittee& c : committees) {
    obs.final_reports.push_back(
        {c.submission.committee_id, c.submission.claimed_tx_count, 0.0, 0.0});
  }
  AdversaryConfig config;
  config.strategy = AdversaryStrategy::kTargetedCorruption;
  config.budget = 0.25;  // 3 of 12
  const Adversary adversary(config, 5);
  const FaultPlan plan = adversary.plan_epoch(1, committees, 0, obs);
  ASSERT_EQ(plan.events.size(), 3u);
  for (const FaultEvent& e : plan.events) {
    EXPECT_EQ(e.kind, FaultKind::kForgeSubmission);
    EXPECT_EQ(e.victim, FaultEvent::Victim::kById);
    EXPECT_DOUBLE_EQ(e.magnitude, config.inflation);
    // Victims come from the realized picks, never the banned one.
    EXPECT_TRUE(std::find(obs.permitted_ids.begin(), obs.permitted_ids.end(),
                          e.committee_id) != obs.permitted_ids.end());
    EXPECT_NE(e.committee_id, 4u);
    EXPECT_GE(e.at_seconds, 0.3 * kAttackHorizonSeconds);
    EXPECT_LE(e.at_seconds, 0.9 * kAttackHorizonSeconds);
  }
}

TEST(AdversaryTest, ColludingCoalitionFilesEarlyAndPrefersUnpicked) {
  const auto trace = test_trace();
  const auto committees = test_committees(trace, 12);
  EpochObservation obs;
  obs.permitted_ids = {0, 1, 2, 3, 4, 5, 6, 7};  // losers: 8..11
  for (const ChaosCommittee& c : committees) {
    obs.final_reports.push_back(
        {c.submission.committee_id, c.submission.claimed_tx_count, 0.0, 0.0});
  }
  AdversaryConfig config;
  config.strategy = AdversaryStrategy::kColludingMisreport;
  config.budget = 0.3;  // 4 of 12 — exactly the unpicked committees
  const Adversary adversary(config, 5);
  const FaultPlan plan = adversary.plan_epoch(2, committees, 0, obs);
  ASSERT_EQ(plan.events.size(), 4u);
  std::set<std::uint32_t> victims;
  for (const FaultEvent& e : plan.events) {
    EXPECT_EQ(e.kind, FaultKind::kForgeSubmission);
    // The coalition files before honest reports would have gone out.
    EXPECT_LE(e.at_seconds, 0.04 * kAttackHorizonSeconds);
    victims.insert(e.committee_id);
  }
  EXPECT_EQ(victims, (std::set<std::uint32_t>{8, 9, 10, 11}));
}

TEST(AdversaryTest, ChurnStormRespectsReserveAndUsesLiveRankLeaves) {
  const auto trace = test_trace();
  const auto committees = test_committees(trace, 12);
  AdversaryConfig config;
  config.strategy = AdversaryStrategy::kChurnStorm;
  config.budget = 1.0;  // churn at the full kChurnMultiplier × Fig. 14
  const Adversary adversary(config, 21);
  const std::size_t reserve = 5;
  const FaultPlan plan =
      adversary.plan_epoch(0, committees, reserve, std::nullopt);
  std::size_t joins = 0, leaves = 0;
  double last_at = 0.0;
  for (const FaultEvent& e : plan.events) {
    EXPECT_GE(e.at_seconds, last_at);  // schedule is time-sorted
    last_at = e.at_seconds;
    if (e.kind == FaultKind::kJoin) {
      EXPECT_LT(e.committee_id, reserve);  // joins index the reserve pool
      ++joins;
    } else {
      ASSERT_EQ(e.kind, FaultKind::kLeave);
      EXPECT_EQ(e.victim, FaultEvent::Victim::kByLiveRank);
      ++leaves;
    }
  }
  // 10× Fig. 14 rates, but joins are capped by the reserve.
  EXPECT_EQ(joins, reserve);
  EXPECT_GE(leaves, 1u);
}

TEST(AdversaryCampaignTest, ReplayReproducesDecisionDigestBitExactly) {
  const auto trace = test_trace();
  for (const AdversaryStrategy s : kAllAdversaryStrategies) {
    const auto config = campaign_config(s, true, 2);
    const CampaignResult a = run_adversarial_campaign(trace, config, 11);
    const CampaignResult b = run_adversarial_campaign(trace, config, 11);
    EXPECT_EQ(a.decision_digest, b.decision_digest)
        << mvcom::core::to_string(s);
    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    for (std::size_t e = 0; e < a.epochs.size(); ++e) {
      EXPECT_EQ(a.epochs[e].honest_permitted_txs,
                b.epochs[e].honest_permitted_txs);
      EXPECT_DOUBLE_EQ(a.epochs[e].utility, b.epochs[e].utility);
    }
    const CampaignResult c = run_adversarial_campaign(trace, config, 12);
    EXPECT_NE(a.decision_digest, c.decision_digest)
        << mvcom::core::to_string(s);
  }
}

TEST(AdversaryCampaignTest, SupervisionStateCarriesAcrossEpochs) {
  const auto trace = test_trace();
  const auto config =
      campaign_config(AdversaryStrategy::kTargetedCorruption, true, 3);
  const CampaignResult result = run_adversarial_campaign(trace, config, 7);
  ASSERT_EQ(result.epochs.size(), 3u);
  // Post-delivery forgeries are struck in epoch 0, so carried risk must
  // seed epoch 1's policy before any of its own strikes land...
  EXPECT_GT(result.epochs[0].report.carry_out.risk, 0.0);
  EXPECT_FALSE(result.epochs[0].report.carry_out.entries.empty());
  // ...and the boosted N_min must outlive epoch 0.
  EXPECT_GT(result.epochs[1].report.effective_n_min, 10u);
  EXPECT_GT(result.epochs[1].report.risk_score, 0.0);
  // Strikes escalate monotonically across the carry chain.
  int max_strikes_epoch0 = 0, max_strikes_epoch2 = 0;
  for (const auto& e : result.epochs[0].report.carry_out.entries) {
    max_strikes_epoch0 = std::max(max_strikes_epoch0, e.strikes);
  }
  for (const auto& e : result.epochs[2].report.carry_out.entries) {
    max_strikes_epoch2 = std::max(max_strikes_epoch2, e.strikes);
  }
  EXPECT_GE(max_strikes_epoch2, max_strikes_epoch0);
}

TEST(AdversaryCampaignTest, RiskAdaptiveSizingDominatesStaticUnderTargeting) {
  const auto trace = test_trace(8);  // the bench's exact workload seed
  const auto adaptive = run_adversarial_campaign(
      trace, campaign_config(AdversaryStrategy::kTargetedCorruption, true, 5),
      7);
  const auto fixed = run_adversarial_campaign(
      trace, campaign_config(AdversaryStrategy::kTargetedCorruption, false, 5),
      7);
  std::uint64_t adaptive_honest = 0, static_honest = 0;
  for (const auto& e : adaptive.epochs) adaptive_honest += e.honest_permitted_txs;
  for (const auto& e : fixed.epochs) static_honest += e.honest_permitted_txs;
  // The dominance regime the bench gates on: at equal attack budget the
  // boosted N_min squeezes forged claims out of the capacity knapsack,
  // winning on honest permitted throughput AND safety (raw utility is not
  // comparable — it counts forged claims).
  EXPECT_GT(adaptive_honest, static_honest);
  EXPECT_GT(adaptive.mean_safety, fixed.mean_safety);
  EXPECT_FALSE(adaptive.infeasible_while_feasible);
  EXPECT_FALSE(fixed.infeasible_while_feasible);
}

TEST(AdversaryCampaignTest, LadderNeverInfeasibleWhileFeasibleExists) {
  const auto trace = test_trace();
  for (const AdversaryStrategy s : kAllAdversaryStrategies) {
    const CampaignResult result =
        run_adversarial_campaign(trace, campaign_config(s, true, 3), 19);
    EXPECT_FALSE(result.infeasible_while_feasible)
        << mvcom::core::to_string(s);
  }
}

// The replay witnesses `mvcom chaos --adversary <s> --epochs 3 --seed 5
// [--risk 0]` prints, pinned as literals: the CLI's campaign on its own
// trace (64 blocks × 1000 TXs, trace seed = seed + 1). The obs events digest
// is pinned only when observability is compiled in — the MVCOM_OBS=OFF build
// records no events, but its decisions must match bit for bit.
TEST(AdversaryCampaignTest, CliWitnessesArePinned) {
  struct Pin {
    AdversaryStrategy strategy;
    bool risk_adaptive;
    std::uint64_t decision_digest;
    std::uint64_t events_digest;
  };
  constexpr Pin kPins[] = {
      {AdversaryStrategy::kTargetedCorruption, true, 0xabc97006c84438deULL,
       0x1a051d6c87e9a3b4ULL},
      {AdversaryStrategy::kTargetedCorruption, false, 0xace70e1a7b7e7865ULL,
       0x659092eff609382aULL},
      {AdversaryStrategy::kColludingMisreport, true, 0x5b00f6da358bd83bULL,
       0x76fa1c9077cefc52ULL},
      {AdversaryStrategy::kColludingMisreport, false, 0x5b00f6da358bd83bULL,
       0x76fa1c9077cefc52ULL},
      {AdversaryStrategy::kAdaptiveDos, true, 0x3265760138d90380ULL,
       0x0524e30c5d293fafULL},
      {AdversaryStrategy::kAdaptiveDos, false, 0xcabe4b12dad4c601ULL,
       0xe39d0392098fee73ULL},
      {AdversaryStrategy::kChurnStorm, true, 0x53b22d6ce0bc1c2aULL,
       0x7a09ba44fa1d8bdeULL},
      {AdversaryStrategy::kChurnStorm, false, 0x40a0a29673a15ac3ULL,
       0xcdd37da4a5d96462ULL},
  };
  constexpr std::uint64_t kSeed = 5;
  const auto trace = test_trace(kSeed + 1);
  for (const Pin& pin : kPins) {
    mvcom::obs::TraceRecorder recorder;
    auto config = campaign_config(pin.strategy, pin.risk_adaptive, 3);
    config.obs = {nullptr, &recorder};
    const CampaignResult result =
        run_adversarial_campaign(trace, config, kSeed);
    const std::string label =
        std::string(mvcom::core::to_string(pin.strategy)) +
        (pin.risk_adaptive ? " risk on" : " risk off");
    EXPECT_EQ(result.decision_digest, pin.decision_digest) << label;
    if (mvcom::obs::kEnabled) {
      EXPECT_EQ(mvcom::obs::events_digest(recorder.snapshot()),
                pin.events_digest)
          << label;
    }
  }
}

TEST(ObsEventsDigestTest, WitnessesEventStreamIdentityIgnoringWallClock) {
  using mvcom::obs::TraceEvent;
  TraceEvent a;
  a.category = "fault";
  a.name = "fault/injected";
  a.sim_time_seconds = 12.5;
  a.seq = 1;
  a.args[0] = {"committee_id", 3.0};
  TraceEvent b = a;
  b.wall_time_us = 99999.0;  // wall clock differs between replays
  const std::vector<TraceEvent> run1 = {a};
  const std::vector<TraceEvent> run2 = {b};
  EXPECT_EQ(mvcom::obs::events_digest(run1), mvcom::obs::events_digest(run2));

  TraceEvent c = a;
  c.sim_time_seconds = 12.75;  // any deterministic field difference shows
  const std::vector<TraceEvent> run3 = {c};
  EXPECT_NE(mvcom::obs::events_digest(run1), mvcom::obs::events_digest(run3));

  const std::vector<TraceEvent> empty;
  EXPECT_NE(mvcom::obs::events_digest(run1), mvcom::obs::events_digest(empty));
}

}  // namespace
