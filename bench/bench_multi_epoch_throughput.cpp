// Extension bench — multi-epoch selection quality with *true per-TX ages*.
//
// The paper's abstract: throughput degrades because of the transactions'
// cumulative age. Over six consecutive epochs (epoch window comparable to
// the two-phase latencies, so scheduling actually matters) the streaming
// EpochPipeline tracks every block's btime (txn/age) and measures the age of
// each committed TX at the instant its final block commits — after the
// stage-4 PBFT round. Refused shards carry over with the Fig. 3 latency
// rebase against the realized epoch boundary, so nothing is dropped — only
// deferred, and deferral is visible in the age accounting.
//
// Three final-committee policies, the middle two under the SAME capacity:
//   wait-for-all — no capacity, DDL = max latency: commits everything;
//   DP (throughput) — packs the most TXs into Ĉ, blind to freshness;
//   MVCom (SE) — maximizes Eq. (2): freshness-aware selection under Ĉ.
// Expected: DP and MVCom commit the same volume, but MVCom's committed mix
// is younger (lower mean per-TX age) — the Fig.-10 valuable-degree story at
// per-transaction granularity.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "pipeline/epoch_pipeline.hpp"
#include "txn/accounts/model.hpp"
#include "txn/trace_generator.hpp"
#include "txn/xshard/scheduler.hpp"

namespace {

using mvcom::common::Rng;
using mvcom::pipeline::EpochPipeline;
using mvcom::pipeline::FinalPolicy;
using mvcom::pipeline::PipelineConfig;
using mvcom::pipeline::PipelineTotals;
using mvcom::txn::Trace;

}  // namespace

int main() {
  mvcom::bench::BenchJson json("multi_epoch_throughput");
  Rng trace_rng(2016);
  mvcom::txn::TraceGeneratorConfig tc;
  // Compressed timescale: blocks every ~15 s so an epoch window (~1500 s)
  // is commensurate with the two-phase latencies (~650 s) — the regime
  // where committee scheduling can move per-TX ages at all.
  tc.num_blocks = 600;
  tc.target_total_txs = 600'000;
  tc.mean_interblock_seconds = 15.0;
  const Trace trace = mvcom::txn::generate_trace(tc, trace_rng);

  mvcom::bench::print_header(
      "Extension",
      "multi-epoch per-TX ages under equal capacity (6 epochs, C=60%)");
  std::printf("  %-16s %14s %16s %14s\n", "policy", "TXs committed",
              "mean TX age(s)", "TXs deferred");
  const struct {
    FinalPolicy policy;
    const char* name;
    const char* tag;
  } kPolicies[] = {
      {FinalPolicy::kWaitAll, "wait-for-all", "wait_all"},
      {FinalPolicy::kThroughputDp, "DP (capacity)", "dp"},
      {FinalPolicy::kMvcomSe, "MVCom (SE)", "mvcom_se"},
  };
  for (const auto& entry : kPolicies) {
    PipelineTotals totals{};
    constexpr std::uint64_t kSeeds = 3;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      PipelineConfig config;  // 20 committees, 6 epochs, Ĉ = 60% of pending
      config.policy = entry.policy;
      config.se.threads = 8;
      config.se.max_iterations = 2000;
      config.seed = seed * 10;
      const PipelineTotals one = EpochPipeline(trace, config).run();
      totals.committed_txs += one.committed_txs;
      totals.total_age += one.total_age;
      totals.pending_txs += one.pending_txs;
    }
    const double mean_age =
        totals.total_age / static_cast<double>(totals.committed_txs);
    std::printf("  %-16s %14llu %16.1f %14llu\n", entry.name,
                static_cast<unsigned long long>(totals.committed_txs / kSeeds),
                mean_age,
                static_cast<unsigned long long>(totals.pending_txs / kSeeds));
    const std::string tag = entry.tag;
    json.set(tag + "_committed_txs",
             static_cast<double>(totals.committed_txs / kSeeds));
    json.set(tag + "_mean_tx_age_seconds", mean_age);
    json.set(tag + "_deferred_txs",
             static_cast<double>(totals.pending_txs / kSeeds));
  }
  std::printf("  (expected shape: under the same capacity, MVCom commits a "
              "similar volume to DP at a lower mean per-TX age — the "
              "freshness-aware selection; wait-for-all is the no-capacity "
              "reference)\n");

  // --- Scale tier: the same pipeline at 10k (and, under
  // MVCOM_BENCH_SCALE=full, 50k) committees — SE policy only; the DP
  // baseline's pseudo-polynomial knapsack is not in the 10k game. One seed,
  // fewer epochs and iterations: this tier times the engine under epoch
  // churn, it does not re-measure the quality story above.
  mvcom::bench::print_header(
      "Scale tier", "multi-epoch SE pipeline at 10k-50k committees");
  std::vector<std::size_t> tiers = {10'000};
  if (mvcom::bench::scale_full_enabled()) tiers.push_back(50'000);
  for (const std::size_t icount : tiers) {
    Rng scale_trace_rng(2016);
    mvcom::txn::TraceGeneratorConfig stc;
    stc.num_blocks = 2 * icount;
    stc.target_total_txs = icount * 1500;
    stc.mean_interblock_seconds = 15.0;
    const Trace scale_trace = mvcom::txn::generate_trace(stc, scale_trace_rng);
    PipelineConfig config;
    config.committees = icount;
    config.epochs = 3;
    config.se.max_iterations = 300;
    config.se.threads = 4;
    if (icount > 10'000) config.se.max_family = 256;
    config.seed = 10;
    const auto t0 = std::chrono::steady_clock::now();
    const PipelineTotals totals = EpochPipeline(scale_trace, config).run();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double tx_rate =
        static_cast<double>(totals.committed_txs) / seconds;
    std::printf(
        "  I=%zu: %zu epochs in %.3fs | %llu TXs committed (%.0f TX/s "
        "end-to-end), %llu deferred\n",
        icount, config.epochs, seconds,
        static_cast<unsigned long long>(totals.committed_txs), tx_rate,
        static_cast<unsigned long long>(totals.pending_txs));
    const std::string tag = "scale_" + std::to_string(icount);
    json.set(tag + "_committed_txs",
             static_cast<double>(totals.committed_txs));
    json.set("gate_seconds_" + tag + "_pipeline", seconds);
    json.set("gate_rate_" + tag + "_committed_txs_per_sec", tx_rate);
  }

  // --- Account-model deferred carry (DESIGN.md §15): deferred account TXs
  // carry into the next epoch's scheduling queue with their original
  // timestamps (arrival round 0 after the clamp), and we measure how long
  // they wait: the per-TX age story of the main bench, at account
  // granularity.
  mvcom::bench::print_header(
      "Account-model carry",
      "deferred cross-shard TXs re-queued across epochs, conflict-aware arm");
  {
    mvcom::txn::AccountModelConfig model;
    model.num_accounts = 50'000;
    model.num_shards = 20;
    model.txs_per_epoch = 20'000;
    model.cross_shard_ratio = 0.3;
    mvcom::txn::XShardConfig xc;
    xc.num_shards = model.num_shards;
    const mvcom::txn::AccountTxGenerator generator(model);
    constexpr std::uint64_t kCarrySeed = 7;
    constexpr std::size_t kCarryEpochs = 6;

    struct QueuedTx {
      mvcom::txn::AccountTx tx;
      std::size_t born = 0;  // epoch the TX first arrived in
    };
    std::vector<QueuedTx> backlog;
    std::uint64_t committed = 0, committed_carried = 0, ingested = 0;
    std::uint64_t defer_epoch_sum = 0;  // Σ (commit epoch − born), committed
    std::printf("  %-6s %10s %10s %10s %10s\n", "epoch", "fresh", "carried",
                "committed", "backlog");
    for (std::size_t e = 0; e < kCarryEpochs; ++e) {
      const auto fresh = generator.epoch_keyed(kCarrySeed, e);
      ingested += fresh.txs.size();
      mvcom::txn::AccountEpoch merged;
      merged.epoch_index = fresh.epoch_index;
      merged.window_start = fresh.window_start;
      merged.window_end = fresh.window_end;
      std::vector<std::size_t> born;
      merged.txs.reserve(backlog.size() + fresh.txs.size());
      born.reserve(backlog.size() + fresh.txs.size());
      for (const QueuedTx& q : backlog) {
        merged.txs.push_back(q.tx);
        born.push_back(q.born);
      }
      for (const auto& tx : fresh.txs) {
        merged.txs.push_back(tx);
        born.push_back(e);
      }
      // Carried timestamps predate this window, so the backlog prefix is
      // already in (timestamp, tx_id) order and fresh TXs arrive sorted —
      // the merged queue keeps the scheduler's arrival-order contract.
      const std::size_t carried_in = backlog.size();
      const auto result = mvcom::txn::run_epoch(merged, xc, kCarrySeed);
      backlog.clear();
      for (std::size_t t = 0; t < merged.txs.size(); ++t) {
        if (result.outcome.tx_outcomes[t].cls ==
            mvcom::txn::TxClass::kDeferred) {
          backlog.push_back({merged.txs[t], born[t]});
        } else {
          ++committed;
          if (born[t] < e) ++committed_carried;
          defer_epoch_sum += e - born[t];
        }
      }
      std::printf("  %-6zu %10zu %10zu %10llu %10zu\n", e, fresh.txs.size(),
                  carried_in,
                  static_cast<unsigned long long>(result.outcome.committed_txs),
                  backlog.size());
    }
    const double mean_defer =
        committed == 0 ? 0.0
                       : static_cast<double>(defer_epoch_sum) /
                             static_cast<double>(committed);
    std::printf("  carry total: %llu/%llu TXs committed (%llu after a carry, "
                "mean wait %.2f epochs), backlog %zu\n",
                static_cast<unsigned long long>(committed),
                static_cast<unsigned long long>(ingested),
                static_cast<unsigned long long>(committed_carried), mean_defer,
                backlog.size());
    json.set("account_carry_committed_txs", static_cast<double>(committed));
    json.set("account_carry_committed_after_carry",
             static_cast<double>(committed_carried));
    json.set("account_carry_mean_wait_epochs", mean_defer);
    json.set("account_carry_final_backlog_txs",
             static_cast<double>(backlog.size()));
  }

  json.write();
  return 0;
}
