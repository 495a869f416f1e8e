// Cross-epoch carry-over walkthrough — the paper's Fig. 3 rule: a committee
// refused at epoch j keeps its shard and re-enters epoch j+1 with its
// two-phase latency rebased against the new epoch's start, so "a refused
// committee will be more likely to be permitted with a new smaller two-phase
// latency at epoch j+1."
//
// The chain runs on the streaming EpochPipeline: each epoch's pending set is
// the fresh formation plus every shard refused earlier, and the epoch starts
// no earlier than the previous final block's commit.
//
// Run: ./build/examples/epoch_chain

#include <cstdio>

#include "common/rng.hpp"
#include "pipeline/epoch_pipeline.hpp"
#include "txn/trace_generator.hpp"

int main() {
  mvcom::common::Rng rng(17);
  mvcom::txn::TraceGeneratorConfig tc;
  tc.num_blocks = 400;
  tc.target_total_txs = 400'000;
  tc.mean_interblock_seconds = 15.0;  // epoch windows ~ two-phase latencies
  const mvcom::txn::Trace trace = mvcom::txn::generate_trace(tc, rng);

  mvcom::pipeline::PipelineConfig config;
  config.committees = 30;
  config.epochs = 5;
  config.alpha = 1.5;
  config.capacity_fraction = 0.4;  // tight: refusals are guaranteed
  config.n_min = 10;
  config.se.threads = 4;
  config.se.max_iterations = 2000;
  config.seed = 99;

  mvcom::pipeline::EpochPipeline pipeline(trace, config);
  std::printf("epoch |   utility | shards pending | refused, carried to next "
              "epoch\n");
  const auto totals =
      pipeline.run([](const mvcom::pipeline::EpochReport& r) {
        std::printf("  %2zu  | %9.1f | %14zu | %zu (%llu TXs)\n", r.epoch,
                    r.utility, r.shards_pending,
                    r.shards_pending - r.shards_committed,
                    static_cast<unsigned long long>(r.carried_txs));
      });

  std::printf("\ntotal committed TXs across the chain: %llu of %llu "
              "(%llu still pending)\n",
              static_cast<unsigned long long>(totals.committed_txs),
              static_cast<unsigned long long>(totals.ingested_txs),
              static_cast<unsigned long long>(totals.pending_txs));
  std::printf("(refused committees re-enter with latency rebased against the\n"
              " next epoch's start — Fig. 3 — so their shards are not lost,\n"
              " just deferred to a later final block; the most-deferred shard\n"
              " was refused %zu times)\n",
              totals.max_shard_carries);
  return 0;
}
