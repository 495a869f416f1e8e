#pragma once
// The streaming epoch pipeline — consecutive MVCom epochs over a continuous
// transaction stream, with software-pipelined epoch overlap (DESIGN.md §13).
//
// The paper's throughput story (Eq. (2), Figs. 10–14) is about *consecutive*
// epochs: cumulative TX age only matters because the system keeps running.
// This module drives exactly that regime. Each epoch is split into two
// stages:
//
//   Stage A — formation. Window the incoming trace, deal fresh blocks to the
//     epoch's member committees, sample their two-phase (PoW formation +
//     intra-committee PBFT) completion times, optionally grind real PoW
//     midstates, and compute each shard's root digest. Stage A is a *pure
//     function* of (trace, config, epoch index): its randomness comes from
//     Rng::stream(seed, slot(e)) — per-epoch stream roots derived from
//     (seed, epoch index), never from a shared forking engine — so epoch
//     e+1's formation can run concurrently with anything without perturbing
//     a single draw.
//
//   Stage B — scheduling + final consensus. Rebase carried shards against
//     the *realized* epoch boundary (max of the nominal window edge and the
//     previous final block's commit instant), build the EpochInstance, pick
//     the final committee's shards under the configured FinalPolicy (by
//     default the SE scheduler, warm-started from a greedy cross-epoch
//     seed; when that seed is exactly P = {i : gain_i > 0} and fits Ĉ and
//     N_min, no selection can beat Σ_i max(gain_i, 0), so the seed is
//     committed as it is and SE does not run), decide the DDL, run stage-4
//     final consensus as a real discrete-event PBFT round, account
//     committed per-TX ages, extend the root chain, and carry the refused
//     shards forward. Stage B mutates all cross-epoch state and therefore
//     executes strictly in epoch order.
//
// Overlap: with overlap_depth d >= 2, step k runs {B(k), A(k+d-1)} as one
// thread-pool batch — the root chain never idles waiting for formation.
// Because stage A is pure and only one stage B is in flight per batch, the
// pipelined schedule is *bitwise identical* to the sequential reference
// (overlap_depth = 1) for any worker count: same per-epoch event-order
// digests, same utilities, same committed/deferred accounting. That is the
// determinism contract the test_pipeline matrix enforces, mirroring the
// PR-5 serial-fork/ordered-merge discipline of the Elastico lanes.

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "chain/root_chain.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "mvcom/se_scheduler.hpp"
#include "obs/context.hpp"
#include "txn/trace.hpp"

namespace mvcom::obs {
class Counter;
class Gauge;
}  // namespace mvcom::obs

namespace mvcom::pipeline {

/// How stage B picks the final committee's shards from the pending set.
enum class FinalPolicy {
  kMvcomSe,       // SE maximizing Eq. (2) under Ĉ — the paper's scheduler
  kThroughputDp,  // throughput DP: the most TXs under Ĉ, blind to age
  kWaitAll,       // no capacity: keep every shard, DDL = slowest submission
};

struct PipelineConfig {
  std::size_t committees = 20;     // member committees formed per epoch
  std::size_t epochs = 6;          // epoch windows spanning the trace
  /// 1 = strictly sequential (the bitwise-determinism reference);
  /// d >= 2 overlaps epoch e's stage B with epoch e+d-1's stage A.
  std::size_t overlap_depth = 1;
  /// Thread-pool workers for the overlap batch (0 = run batches inline on
  /// the calling thread; results are identical either way).
  std::size_t workers = 0;
  double alpha = 1.5;              // Eq.-(2) throughput weight
  /// Ĉ as a fraction of pending TXs; the constructor throws unless it is
  /// in (0, 1].
  double capacity_fraction = 0.6;
  std::size_t n_min = 0;           // Eq.-(3) lower bound
  FinalPolicy policy = FinalPolicy::kMvcomSe;  // final-committee selection
  core::SeParams se;               // SE scheduler knobs (threads, iterations…)
  /// SE policy only: seed epoch e+1's explorers from a greedy cross-epoch
  /// selection via SeScheduler::warm_start; the reported utility can then
  /// never fall below the seed's. A certified seed (GreedySeed) is
  /// committed without running SE.
  bool warm_start = true;
  /// > 0: stage A really grinds PoW midstates at this difficulty (bits of
  /// leading zeros) per committee — makes formation genuinely CPU-bound and
  /// folds the winning nonces into the epoch digest. 0 uses the calibrated
  /// latency model only.
  int pow_grind_bits = 0;
  std::uint64_t seed = 1;          // root of every per-epoch Rng stream
};

/// What stage B decided for one epoch.
struct EpochReport {
  std::size_t epoch = 0;
  double window_end = 0.0;   // nominal window edge
  double start = 0.0;        // realized boundary: max(window_end, prev commit)
  double commit = 0.0;       // final-block commit instant
  bool feasible = false;     // the policy found an admissible selection
  double utility = 0.0;      // Eq.-(2) utility of the committed selection
  /// Utility of the greedy warm-start seed (NaN when cold or infeasible).
  double warm_seed_utility = 0.0;
  std::size_t shards_pending = 0;    // instance size (carried + fresh)
  std::size_t shards_committed = 0;
  std::uint64_t committed_txs = 0;
  std::uint64_t carried_txs = 0;     // refused, still pending after this epoch
  double total_age = 0.0;            // Σ per-TX (commit − btime), committed
  std::uint64_t se_iterations = 0;   // 0 when the seed was certified
  std::uint64_t des_events = 0;          // stage-4 simulator events
  std::uint64_t event_order_digest = 0;  // formation + DES + selection fold
};

/// Aggregates over a whole run (possibly stopped early).
struct PipelineTotals {
  std::size_t epochs_run = 0;
  bool stopped_early = false;
  std::uint64_t ingested_txs = 0;   // TXs that entered scheduling
  std::uint64_t committed_txs = 0;
  std::uint64_t pending_txs = 0;    // still carried at exit
  double total_age = 0.0;
  std::size_t max_shard_carries = 0;  // most times any one shard was deferred
  std::uint64_t digest = 0;           // fold of the per-epoch digests
};

/// Stage B's greedy cross-epoch warm seed, and whether it is provably
/// optimal.
struct GreedySeed {
  core::Selection selection;  // empty when no feasible seed was found
  /// The selection is exactly P = {i : gain_i > 0}, non-empty, within Ĉ and
  /// with |P| >= N_min. No selection's Eq.-(2) utility can exceed
  /// Σ_i max(gain_i, 0), and P reaches it, so P is optimal (DESIGN.md §13).
  bool certified = false;
};

/// Descending-gain fill under Ĉ, then a smallest-shards top-up toward N_min.
/// Deterministic (ties broken by index) and O(I log I) — cheap next to one
/// SE iteration block. Certified when the fill skipped no positive-gain
/// shard for capacity, took no non-positive one and needed no top-up.
[[nodiscard]] GreedySeed greedy_seed(const core::EpochInstance& instance);

class EpochPipeline {
 public:
  /// `trace` must outlive the pipeline and be btime-sorted (the generator's
  /// postcondition).
  EpochPipeline(const txn::Trace& trace, PipelineConfig config);

  /// Attaches observability: per-epoch metrics and sim-clocked trace spans.
  void set_obs(obs::ObsContext obs);

  /// Requests a graceful stop: the current step finishes, the loop exits
  /// before the next epoch. Safe to call from another thread or a signal
  /// handler (single relaxed atomic store).
  void request_stop() noexcept { stop_.store(true, std::memory_order_relaxed); }

  /// Also honor an external stop flag polled between epochs — `mvcom serve`
  /// points this at the atomic its SIGINT handler flips.
  void bind_external_stop(const std::atomic<bool>* flag) noexcept {
    external_stop_ = flag;
  }

  /// Drives every epoch (or until stopped). `on_epoch`, when set, fires
  /// after each epoch's stage B, in epoch order, on the driving thread.
  PipelineTotals run(
      const std::function<void(const EpochReport&)>& on_epoch = {});

  [[nodiscard]] const chain::RootChain& chain() const noexcept {
    return chain_;
  }

 private:
  /// One shard awaiting selection: fresh this epoch or carried from earlier.
  struct PendingShard {
    std::uint32_t id = 0;   // stable across carries (epoch-qualified)
    std::vector<std::size_t> block_indices;
    std::uint64_t txs = 0;
    double submit_time = 0.0;  // absolute two-phase completion instant
    crypto::Digest root{};     // shard root committed by the final block
    std::size_t carries = 0;   // number of epochs this shard was deferred
  };

  /// Stage A's output: everything epoch e's scheduling needs from formation.
  struct FormedEpoch {
    std::size_t epoch = 0;
    double window_end = 0.0;
    std::vector<PendingShard> shards;      // fresh shards, committee order
    std::uint64_t formation_digest = 0;    // latency bits + PoW nonces fold
  };

  [[nodiscard]] FormedEpoch form_epoch(std::size_t epoch) const;
  EpochReport schedule_epoch(FormedEpoch&& formed);

  [[nodiscard]] bool stop_requested() const noexcept {
    return stop_.load(std::memory_order_relaxed) ||
           (external_stop_ != nullptr &&
            external_stop_->load(std::memory_order_relaxed));
  }

  const txn::Trace* trace_;
  PipelineConfig config_;
  double trace_start_ = 0.0;
  double window_ = 0.0;  // nominal epoch window length

  // Cross-epoch state — touched exclusively by stage B, in epoch order.
  std::vector<PendingShard> carried_;
  double prev_commit_ = 0.0;
  chain::RootChain chain_;
  PipelineTotals totals_;

  std::atomic<bool> stop_{false};
  const std::atomic<bool>* external_stop_ = nullptr;

  obs::ObsContext obs_;
  obs::Counter* obs_epochs_ = nullptr;
  obs::Counter* obs_committed_ = nullptr;
  obs::Counter* obs_carried_ = nullptr;
  obs::Counter* obs_certified_ = nullptr;
  obs::Gauge* obs_utility_ = nullptr;
  obs::Gauge* obs_commit_time_ = nullptr;
};

}  // namespace mvcom::pipeline
