// The streaming epoch pipeline's determinism matrix and cross-epoch
// correctness suite (mirrors test_elastico_lanes for the serve path):
//
//  * pipelined execution (overlap depth 2, any worker count) must be
//    bitwise identical to the sequential reference (depth 1) — per-epoch
//    event_order_digest, utility, and age accounting;
//  * SE warm start can never report worse than its seed, and the pipeline's
//    warm epochs are never worse than cold epochs under identical seeds;
//  * carried shards (including shards carried twice) are never double
//    counted: ingested == committed + pending on every exit path;
//  * the RNG substreams behind all of this are (seed, epoch)-derived, so
//    overlapped epochs draw identically to sequential ones.

#include "pipeline/epoch_pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/exhaustive.hpp"
#include "mvcom/se_scheduler.hpp"
#include "pipeline/serve.hpp"
#include "txn/trace_generator.hpp"

namespace {

using mvcom::common::Rng;
using mvcom::pipeline::EpochPipeline;
using mvcom::pipeline::EpochReport;
using mvcom::pipeline::FinalPolicy;
using mvcom::pipeline::PipelineConfig;
using mvcom::pipeline::PipelineTotals;
using mvcom::txn::Trace;

Trace small_trace() {
  Rng rng(2016);
  mvcom::txn::TraceGeneratorConfig tc;
  tc.num_blocks = 90;
  tc.target_total_txs = 45'000;
  tc.mean_interblock_seconds = 15.0;
  return mvcom::txn::generate_trace(tc, rng);
}

PipelineConfig small_config() {
  PipelineConfig config;
  config.committees = 6;
  config.epochs = 4;
  config.capacity_fraction = 0.6;
  config.se.threads = 2;
  config.se.max_iterations = 150;
  config.se.convergence_window = 150;
  config.seed = 7;
  return config;
}

struct RunRecord {
  std::vector<EpochReport> reports;
  PipelineTotals totals;
};

RunRecord run_pipeline(const Trace& trace, PipelineConfig config) {
  EpochPipeline pipe(trace, config);
  RunRecord rec;
  rec.totals = pipe.run(
      [&](const EpochReport& r) { rec.reports.push_back(r); });
  EXPECT_TRUE(pipe.chain().validate_full());
  return rec;
}

/// `mvcom serve`'s stream and pipeline for the given shape (stream seed
/// 2016, depth 2 on 2 workers, window min(iterations, 500), as the CLI sets).
RunRecord run_serve_shape(std::size_t epochs, std::size_t committees,
                          std::size_t blocks, std::uint64_t txs,
                          std::size_t iterations) {
  Rng stream_rng(2016);
  mvcom::txn::TraceGeneratorConfig tc;
  tc.num_blocks = blocks;
  tc.target_total_txs = txs;
  const Trace trace = mvcom::txn::generate_trace(tc, stream_rng);
  PipelineConfig config;
  config.committees = committees;
  config.epochs = epochs;
  config.overlap_depth = 2;
  config.workers = 2;
  config.se.max_iterations = iterations;
  config.se.convergence_window = std::min<std::size_t>(iterations, 500);
  return run_pipeline(trace, config);
}

template <std::size_t N>
void expect_pinned(const RunRecord& rec,
                   const std::uint64_t (&epoch_digests)[N],
                   std::uint64_t totals_digest) {
  ASSERT_EQ(rec.reports.size(), N);
  for (std::size_t e = 0; e < N; ++e) {
    EXPECT_EQ(rec.reports[e].event_order_digest, epoch_digests[e])
        << "epoch " << e << " digest 0x" << std::hex
        << rec.reports[e].event_order_digest;
  }
  EXPECT_EQ(rec.totals.digest, totals_digest)
      << "totals digest 0x" << std::hex << rec.totals.digest;
}

// --- Determinism matrix ------------------------------------------------------

TEST(PipelineDeterminism, OverlapAndWorkersNeverChangeResults) {
  const Trace trace = small_trace();
  for (const FinalPolicy policy :
       {FinalPolicy::kMvcomSe, FinalPolicy::kThroughputDp,
        FinalPolicy::kWaitAll}) {
    SCOPED_TRACE("policy " + std::to_string(static_cast<int>(policy)));
    PipelineConfig base = small_config();
    base.policy = policy;

    PipelineConfig ref_config = base;
    ref_config.overlap_depth = 1;
    ref_config.workers = 0;
    const RunRecord ref = run_pipeline(trace, ref_config);
    ASSERT_EQ(ref.reports.size(), base.epochs);

    for (const std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
      for (const std::size_t workers :
           {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        PipelineConfig config = base;
        config.overlap_depth = depth;
        config.workers = workers;
        const RunRecord got = run_pipeline(trace, config);
        ASSERT_EQ(got.reports.size(), ref.reports.size())
            << "depth=" << depth << " workers=" << workers;
        for (std::size_t e = 0; e < ref.reports.size(); ++e) {
          const EpochReport& a = ref.reports[e];
          const EpochReport& b = got.reports[e];
          EXPECT_EQ(a.event_order_digest, b.event_order_digest)
              << "epoch " << e << " depth=" << depth << " workers=" << workers;
          EXPECT_EQ(a.utility, b.utility) << "epoch " << e;
          EXPECT_EQ(a.total_age, b.total_age) << "epoch " << e;
          EXPECT_EQ(a.committed_txs, b.committed_txs) << "epoch " << e;
          EXPECT_EQ(a.carried_txs, b.carried_txs) << "epoch " << e;
          EXPECT_EQ(a.start, b.start) << "epoch " << e;
          EXPECT_EQ(a.commit, b.commit) << "epoch " << e;
          EXPECT_EQ(a.des_events, b.des_events) << "epoch " << e;
        }
        EXPECT_EQ(got.totals.digest, ref.totals.digest);
        EXPECT_EQ(got.totals.committed_txs, ref.totals.committed_txs);
        EXPECT_EQ(got.totals.pending_txs, ref.totals.pending_txs);
        EXPECT_EQ(got.totals.total_age, ref.totals.total_age);
      }
    }
  }
}

TEST(PipelineDeterminism, PinnedSeDigest) {
  // The SE path's witnesses, pinned as constants: any change to dealing,
  // latency draws, the carry order, SE, stage 4 or the digest fold shows up
  // here, not only as a mismatch between two runs of the same code.
  constexpr std::uint64_t kEpochDigests[] = {
      0x459a34b7ef4f23b1ULL, 0x86ff7e914bab4d58ULL, 0x61f6fdd5e741a61bULL,
      0x768020230cde6d77ULL};
  constexpr std::uint64_t kTotalsDigest = 0x278cea2ab11bd266ULL;
  expect_pinned(run_pipeline(small_trace(), small_config()), kEpochDigests,
                kTotalsDigest);
}

TEST(PipelineDeterminism, PinnedReadmeServeDigest) {
  // The README's `mvcom serve --epochs 16 --committees 50 --blocks 1200
  // --txs 1200000` (stream seed 2016, 2000 iterations, window 500), pinned
  // as constants. Its positive-gain shards never fit under Ĉ, so SE runs in
  // every epoch.
  constexpr std::uint64_t kEpochDigests[] = {
      0x94a7feab96cd0c57ULL, 0x690cb84ad6d6580fULL, 0x4a138ec8c587ffb2ULL,
      0x95c7d5d790d05cdeULL, 0xd8bcdbc863398b53ULL, 0x679987b3244478b7ULL,
      0x955dfc61a45ca771ULL, 0xc51227671cdc39d6ULL, 0x435f41c204a7d003ULL,
      0xb8de96c8ca25eb0dULL, 0x899ce1af1c81e196ULL, 0x1ca3d8f0694294e1ULL,
      0x1670ac87c81d554bULL, 0xdb91da9005fed660ULL, 0x29db9645e0b1a804ULL,
      0x2e25937447242dd3ULL};
  constexpr std::uint64_t kTotalsDigest = 0x6892d5545baf4561ULL;
  const RunRecord rec = run_serve_shape(16, 50, 1200, 1'200'000, 2000);
  expect_pinned(rec, kEpochDigests, kTotalsDigest);
  for (const EpochReport& r : rec.reports) {
    EXPECT_GT(r.se_iterations, 0u) << "epoch " << r.epoch;
  }
}

TEST(PipelineDeterminism, PinnedCertifiedServeDigest) {
  // `mvcom serve --epochs 10 --committees 300 --blocks 3000 --txs 3000000
  // --iters 300`, perfbench's serve shape without PoW grinding, pinned as
  // constants computed with SE running in every epoch. From epoch 4 on
  // every positive-gain shard fits under Ĉ, so the greedy seed is certified
  // optimal and committed without a search; the digests prove that this
  // commits exactly what SE committed.
  constexpr std::uint64_t kEpochDigests[] = {
      0x2b77531adbb45646ULL, 0x023acb0337da5f17ULL, 0xb2ca581ede3183b4ULL,
      0xd13363f016e50351ULL, 0x28ee82eef1182d44ULL, 0x602ffc18a968244dULL,
      0xdf5bbb68a8119850ULL, 0x8f2f04579339d371ULL, 0xd15b3ef516b7425eULL,
      0x89703832ed694d87ULL};
  constexpr std::uint64_t kTotalsDigest = 0x4eca8cfd8e96cc96ULL;
  const RunRecord rec = run_serve_shape(10, 300, 3000, 3'000'000, 300);
  expect_pinned(rec, kEpochDigests, kTotalsDigest);
  for (const EpochReport& r : rec.reports) {
    // Epochs 0–3 leave positive-gain shards out for capacity.
    EXPECT_EQ(r.se_iterations == 0, r.epoch >= 4) << "epoch " << r.epoch;
  }
}

TEST(PipelinePolicy, WaitAllCommitsEveryShardItIngests) {
  PipelineConfig config = small_config();
  config.policy = FinalPolicy::kWaitAll;
  const RunRecord rec = run_pipeline(small_trace(), config);
  EXPECT_EQ(rec.totals.pending_txs, 0u);
  EXPECT_EQ(rec.totals.max_shard_carries, 0u);
  EXPECT_EQ(rec.totals.committed_txs, rec.totals.ingested_txs);
  for (const EpochReport& r : rec.reports) {
    EXPECT_TRUE(r.feasible);
    EXPECT_EQ(r.shards_committed, r.shards_pending);
    EXPECT_EQ(r.se_iterations, 0u);
  }
}

TEST(PipelineDeterminism, PowGrindingKeepsTheContract) {
  // Real PoW grinding in stage A must not perturb the matrix — the nonces
  // are a pure function of (seed, epoch) like every other stage-A output.
  const Trace trace = small_trace();
  PipelineConfig config = small_config();
  config.epochs = 2;
  config.pow_grind_bits = 6;

  config.overlap_depth = 1;
  config.workers = 0;
  const RunRecord ref = run_pipeline(trace, config);
  config.overlap_depth = 2;
  config.workers = 2;
  const RunRecord got = run_pipeline(trace, config);
  ASSERT_EQ(ref.reports.size(), got.reports.size());
  for (std::size_t e = 0; e < ref.reports.size(); ++e) {
    EXPECT_EQ(ref.reports[e].event_order_digest,
              got.reports[e].event_order_digest);
  }
}

// --- Config validation -------------------------------------------------------

TEST(PipelineConfigTest, CapacityFractionMustLieInTheUnitInterval) {
  // Ĉ = capacity_fraction · pending is cast to an integer: a negative, NaN
  // or too-large fraction must be refused before it reaches that cast.
  const Trace trace = small_trace();
  for (const double bad : {-0.5, 0.0, 1.5, std::nan(""),
                           std::numeric_limits<double>::infinity()}) {
    PipelineConfig config = small_config();
    config.capacity_fraction = bad;
    EXPECT_THROW(EpochPipeline(trace, config), std::invalid_argument) << bad;
  }
  for (const double good : {0.6, 1.0}) {
    PipelineConfig config = small_config();
    config.capacity_fraction = good;
    EXPECT_NO_THROW(EpochPipeline(trace, config)) << good;
  }
}

// --- Warm start --------------------------------------------------------------

TEST(PipelineWarmStart, SchedulerNeverReportsWorseThanItsSeed) {
  // The structural guarantee behind the pipeline's warm start: run() after
  // warm_start(seed) can never report a feasible utility below the seed's,
  // even with a tiny exploration budget.
  std::vector<mvcom::core::Committee> committees;
  Rng rng(11);
  for (std::uint32_t i = 0; i < 30; ++i) {
    committees.push_back({i, 500 + rng.below(4000), rng.uniform(10.0, 600.0)});
  }
  std::uint64_t total = 0;
  for (const auto& c : committees) total += c.txs;
  const mvcom::core::EpochInstance instance(committees, 1.5, (total * 6) / 10,
                                            2);
  // A decent seed: every SE run below gets almost no iterations, so without
  // the floor it would frequently land beneath this.
  mvcom::core::SeParams probe;
  probe.threads = 2;
  probe.max_iterations = 400;
  probe.convergence_window = 400;
  const auto strong =
      mvcom::core::SeScheduler(instance, probe, 99).run();
  ASSERT_TRUE(strong.feasible);

  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    mvcom::core::SeParams params;
    params.threads = 2;
    params.max_iterations = 3;
    params.convergence_window = 3;
    mvcom::core::SeScheduler warm(instance, params, seed);
    const double floor = warm.warm_start(strong.best);
    ASSERT_FALSE(std::isnan(floor));
    EXPECT_DOUBLE_EQ(floor, strong.utility);
    const auto result = warm.run();
    ASSERT_TRUE(result.feasible);
    EXPECT_GE(result.utility, floor);
  }
}

TEST(PipelineWarmStart, WarmEpochsNeverWorseThanColdUnderSameSeeds) {
  // With a starved exploration budget the cold pipeline has to rely on its
  // random initial family, while the warm one starts every epoch from the
  // greedy cross-epoch seed — epoch for epoch, warm must not lose.
  const Trace trace = small_trace();
  PipelineConfig config = small_config();
  config.se.max_iterations = 20;
  config.se.convergence_window = 20;

  config.warm_start = false;
  const RunRecord cold = run_pipeline(trace, config);
  config.warm_start = true;
  const RunRecord warm = run_pipeline(trace, config);
  ASSERT_EQ(cold.reports.size(), warm.reports.size());
  for (std::size_t e = 0; e < warm.reports.size(); ++e) {
    ASSERT_TRUE(warm.reports[e].feasible);
    if (!std::isnan(warm.reports[e].warm_seed_utility)) {
      // The floor held: the epoch can never close below its seed.
      EXPECT_GE(warm.reports[e].utility,
                warm.reports[e].warm_seed_utility);
    }
    if (cold.reports[e].feasible) {
      EXPECT_GE(warm.reports[e].utility, cold.reports[e].utility)
          << "epoch " << e;
    }
  }
}

TEST(PipelineWarmStart, CertifiedSeedsEqualTheExhaustiveOptimum) {
  // The certificate is exact: whenever greedy_seed() certifies, its utility
  // is the exhaustive optimum, and it certifies exactly when P = {gain > 0}
  // is non-empty, fits under Ĉ and meets N_min. Ĉ is swept around Σ_P s_i.
  std::size_t fired = 0;
  std::size_t short_of_n_min = 0;
  for (std::uint64_t trial = 1; trial <= 300; ++trial) {
    Rng rng(trial);
    const std::size_t n = 1 + rng.below(16);
    std::vector<mvcom::core::Committee> committees;
    for (std::uint32_t i = 0; i < n; ++i) {
      // α·s_i ≤ 90 against ages up to 200: gains of both signs.
      committees.push_back({i, 1 + rng.below(60), rng.uniform(0.0, 200.0)});
    }
    const mvcom::core::EpochInstance probe(committees, 1.5, 0, 0);
    std::uint64_t p_txs = 0;
    std::size_t p_size = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (probe.gain(i) > 0.0) {
        p_txs += committees[i].txs;
        ++p_size;
      }
    }
    // The latest shard has age 0, so P is never empty here.
    ASSERT_GT(p_size, 0u);
    for (const std::size_t n_min : {std::size_t{0}, std::size_t{2}}) {
      if (p_size < n_min) ++short_of_n_min;
      for (const std::uint64_t capacity :
           {p_txs - 1, p_txs, p_txs + 1, p_txs + rng.below(100),
            probe.total_txs()}) {
        const mvcom::core::EpochInstance instance(committees, 1.5, capacity,
                                                  n_min);
        const mvcom::pipeline::GreedySeed seed =
            mvcom::pipeline::greedy_seed(instance);
        const bool expected = capacity >= p_txs && p_size >= n_min;
        ASSERT_EQ(seed.certified, expected)
            << "trial " << trial << " n_min " << n_min << " capacity "
            << capacity << " (Σ_P s_i = " << p_txs << ")";
        if (!seed.certified) continue;
        ++fired;
        const auto exact = mvcom::baselines::Exhaustive().solve(instance);
        ASSERT_TRUE(exact.feasible);
        EXPECT_TRUE(instance.feasible(seed.selection));
        EXPECT_EQ(instance.utility(seed.selection), exact.utility)
            << "trial " << trial;
      }
    }
  }
  // Both sides of the certificate were exercised.
  EXPECT_GT(fired, 500u);
  EXPECT_GT(short_of_n_min, 0u);
}

// --- Carry-over accounting ---------------------------------------------------

TEST(PipelineCarryOver, NoDoubleCountWhenShardsCarryTwice) {
  // A tight capacity defers most shards every epoch, so some are carried
  // two or more times; none of that may double-count a transaction.
  const Trace trace = small_trace();
  PipelineConfig config = small_config();
  config.epochs = 5;
  config.capacity_fraction = 0.25;

  const RunRecord rec = run_pipeline(trace, config);
  EXPECT_GE(rec.totals.max_shard_carries, 2u)
      << "config failed to force a double carry — tighten the capacity";
  EXPECT_EQ(rec.totals.ingested_txs,
            rec.totals.committed_txs + rec.totals.pending_txs);
  // Every TX the trace offered inside the windows was ingested exactly once.
  EXPECT_EQ(rec.totals.ingested_txs, trace.total_txs());
}

TEST(PipelineCarryOver, RealizedBoundaryNeverPrecedesPreviousCommit) {
  const Trace trace = small_trace();
  const RunRecord rec = run_pipeline(trace, small_config());
  double prev_commit = 0.0;
  for (const EpochReport& r : rec.reports) {
    EXPECT_GE(r.start, r.window_end - 1e-9);
    EXPECT_GE(r.start, prev_commit - 1e-9)
        << "epoch " << r.epoch << " started before its predecessor committed";
    EXPECT_GT(r.commit, r.start);
    prev_commit = r.commit;
  }
}

// --- Stop + chain ------------------------------------------------------------

TEST(PipelineStop, GracefulStopKeepsAccountingConsistent) {
  const Trace trace = small_trace();
  EpochPipeline pipe(trace, small_config());
  std::size_t seen = 0;
  const PipelineTotals totals = pipe.run([&](const EpochReport&) {
    if (++seen == 2) pipe.request_stop();
  });
  EXPECT_TRUE(totals.stopped_early);
  EXPECT_EQ(totals.epochs_run, 2u);
  EXPECT_EQ(totals.ingested_txs, totals.committed_txs + totals.pending_txs);
  EXPECT_TRUE(pipe.chain().validate_full());
  EXPECT_EQ(pipe.chain().size(), 3u);  // genesis + 2 epochs
  EXPECT_EQ(pipe.chain().total_txs(), totals.committed_txs);
}

TEST(ServeSessionStop, EarlyStopStillFlushesValidArtifacts) {
  // Satellite hardening: a stop request landing mid-run (what the SIGINT
  // handler does) must still leave a valid root-chain checkpoint and
  // validator-passing exporter artifacts — the scope-exit flush path.
  const std::string dir = ::testing::TempDir();
  mvcom::pipeline::ServeConfig config;
  config.pipeline = small_config();
  config.pipeline.epochs = 6;
  config.stream.num_blocks = 90;
  config.stream.target_total_txs = 45'000;
  config.stream.mean_interblock_seconds = 15.0;
  config.metrics_out = dir + "serve_stop_metrics.prom";
  config.metrics_csv_out = dir + "serve_stop_metrics.csv";
  config.trace_out = dir + "serve_stop_trace.json";
  config.checkpoint_out = dir + "serve_stop_checkpoint.json";
  config.checkpoint_every = 1;
  mvcom::pipeline::ServeSession session(config);
  std::size_t seen = 0;
  const mvcom::pipeline::ServeSummary summary =
      session.run([&](const EpochReport&) {
        // Fires from inside the pipeline, like the signal handler would.
        if (++seen == 2) session.request_stop();
      });
  EXPECT_TRUE(summary.totals.stopped_early);
  EXPECT_EQ(summary.totals.epochs_run, 2u);
  EXPECT_TRUE(summary.chain_valid);
  EXPECT_TRUE(summary.artifacts_valid);
  EXPECT_GE(summary.checkpoints_written, 2u);
  // Truncated-run accounting stays exact.
  EXPECT_EQ(summary.totals.ingested_txs,
            summary.totals.committed_txs + summary.totals.pending_txs);
}

TEST(PipelineChain, EveryEpochExtendsTheRootChain) {
  const Trace trace = small_trace();
  EpochPipeline pipe(trace, small_config());
  const PipelineTotals totals = pipe.run();
  EXPECT_EQ(pipe.chain().size(), totals.epochs_run + 1);
  EXPECT_EQ(pipe.chain().total_txs(), totals.committed_txs);
  EXPECT_TRUE(pipe.chain().validate_full());
}

}  // namespace
