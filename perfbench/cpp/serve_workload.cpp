// Workload `serve`: the `mvcom serve` product path. A closed loop of
// ServeSession::run sessions; an op is one epoch. Each session streams one
// of several pre-generated block streams and is checked against that
// stream's overlap-depth-1 sequential reference, computed in set-up.

#include <malloc.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "chain/checkpoint.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "harness.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/epoch_pipeline.hpp"
#include "pipeline/serve.hpp"
#include "txn/trace_generator.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using mvcom::common::Rng;
using mvcom::pipeline::EpochReport;
using mvcom::pipeline::PipelineTotals;
using mvcom::pipeline::ServeConfig;

/// One block stream and its sequential reference run.
struct Stream {
  ServeConfig config;
  std::vector<std::uint64_t> epoch_digests;
  PipelineTotals totals;
  std::uint64_t shards_pending = 0;  // Σ over epochs of the SE instance size
};

struct ServeInputs {
  std::vector<Stream> streams;  // sessions cycle through these
  std::size_t epochs = 0;       // per session
  std::uint64_t fingerprint = 0;
};

ServeConfig serve_config(const Options& options, std::size_t stream) {
  ServeConfig config;
  auto& p = config.pipeline;
  p.committees = options.tiny ? 24 : 300;
  p.epochs = options.tiny ? 4 : 10;
  p.overlap_depth = 2;
  p.workers = 2;
  p.se.threads = 4;
  p.se.max_iterations = options.tiny ? 50 : 300;
  p.se.convergence_window = p.se.max_iterations;
  p.pow_grind_bits = 8;
  p.seed = Rng::stream(options.seed, 20 + 2 * stream)();
  // One block per committee per epoch window; the TX volume rides in the
  // block counts.
  config.stream.num_blocks = p.committees * p.epochs;
  config.stream.target_total_txs = config.stream.num_blocks * 1000;
  config.stream.mean_interblock_seconds = 15.0;
  config.stream_seed = Rng::stream(options.seed, 21 + 2 * stream)();
  config.checkpoint_every = 1;
  return config;
}

ServeInputs build_inputs(const Options& options) {
  ServeInputs in;
  in.fingerprint = mvcom::common::kFnv1aBasis;
  // Several streams, so that no one stream's carry pattern sets the numbers.
  const std::size_t streams = options.tiny ? 2 : 8;
  for (std::size_t k = 0; k < streams; ++k) {
    Stream s;
    s.config = serve_config(options, k);
    Rng rng(s.config.stream_seed);
    const auto trace = mvcom::txn::generate_trace(s.config.stream, rng);
    // The reference: strictly sequential epochs. Its SE explorers run on a
    // pool, which never changes a result bit, to keep set-up short.
    auto reference = s.config.pipeline;
    reference.overlap_depth = 1;
    reference.workers = 0;
    reference.se.parallel_execution = true;
    reference.se.max_pool_workers = 3;
    mvcom::pipeline::EpochPipeline pipe(trace, reference);
    s.totals = pipe.run([&](const EpochReport& r) {
      s.epoch_digests.push_back(r.event_order_digest);
      s.shards_pending += r.shards_pending;
    });
    in.fingerprint = mvcom::common::fnv1a_mix(in.fingerprint, s.totals.digest);
    in.epochs = s.config.pipeline.epochs;
    in.streams.push_back(std::move(s));
  }
  return in;
}

ServeConfig with_outputs(ServeConfig config, const fs::path& dir) {
  config.checkpoint_out = (dir / "chain.ckpt").string();
  config.metrics_out = (dir / "metrics.prom").string();
  config.trace_out = (dir / "trace.json").string();
  return config;
}

/// Session-level output checks shared by the timed and traced loops.
bool session_ok(Outcome& out, const Stream& stream,
                const PipelineTotals& totals,
                const std::vector<std::uint64_t>& digests, bool chain_valid,
                bool artifacts_valid) {
  bool ok = true;
  const auto expect = [&](bool cond, const char* what) {
    out.check(cond, what);
    ok = ok && cond;
  };
  expect(chain_valid, "serve: chain_valid is false");
  expect(artifacts_valid, "serve: artifacts_valid is false");
  expect(totals.committed_txs + totals.pending_txs == totals.ingested_txs,
         "serve: committed + pending != ingested");
  expect(totals.digest == stream.totals.digest,
         "serve: totals digest differs from the sequential reference");
  expect(digests == stream.epoch_digests,
         "serve: per-epoch digests differ from the sequential reference");
  return ok;
}

struct LoopStats {
  std::vector<double> op_ms;
  std::vector<std::size_t> op_keys;  // stream · epochs + epoch
  double wall_s = 0.0;
  std::uint64_t committed_txs = 0;
  RssWindows rss;  // one window per session
};

/// Runs sessions over the streams in turn until the budget is spent and
/// every stream has run once. `session` runs stream k's session given its
/// output config, appends one op time per epoch, and returns whether the
/// session passed its checks.
template <class Session>
LoopStats closed_loop(const Options& options, const ServeInputs& in,
                      const fs::path& dir, Outcome& out, Session session) {
  LoopStats stats;
  const std::size_t n = in.streams.size();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n || ms_since(t0) < options.seconds * 1000.0;
       ++i) {
    const std::size_t k = i % n;
    const std::size_t first = stats.op_ms.size();
    stats.rss.begin();
    const bool ok = session(in.streams[k],
                            with_outputs(in.streams[k].config, dir), stats);
    stats.rss.end();
    for (std::size_t op = first; op < stats.op_ms.size(); ++op) {
      stats.op_keys.push_back(k * in.epochs + (op - first));
      out.op(ok);
    }
  }
  stats.wall_s = ms_since(t0) / 1000.0;
  return stats;
}

LoopStats timed_loop(const Options& options, const ServeInputs& in,
                     const fs::path& dir, Outcome& out) {
  return closed_loop(
      options, in, dir, out,
      [&](const Stream& stream, const ServeConfig& config, LoopStats& stats) {
        // The first op of a session includes generating its stream.
        auto last = Clock::now();
        mvcom::pipeline::ServeSession session(config);
        std::vector<std::uint64_t> digests;
        const auto summary = session.run([&](const EpochReport& r) {
          const auto now = Clock::now();
          stats.op_ms.push_back(ms_between(last, now));
          last = now;
          digests.push_back(r.event_order_digest);
        });
        stats.committed_txs += summary.totals.committed_txs;
        return session_ok(out, stream, summary.totals, digests,
                          summary.chain_valid, summary.artifacts_valid);
      });
}

/// The traced loop: ServeSession::run's steps, driven from here so the
/// per-epoch checkpoint write can be timed as the `chain` layer. The
/// pipeline exports no PBFT or network counters for its stage-4 DES, so
/// `consensus` and `net` are not reported here.
LoopStats traced_loop(const Options& options, const ServeInputs& in,
                      const fs::path& dir, Outcome& out, SpanLog& spans) {
  std::vector<double> shards_pending;
  std::vector<double> se_iterations;
  std::vector<double> checkpoint_ms;
  std::size_t se_wins = 0;
  std::size_t max_carries = 0;
  double des_events = 0.0;
  std::uintmax_t checkpoint_bytes = 0;
  std::uint64_t op = 0;

  const LoopStats stats = closed_loop(
      options, in, dir, out,
      [&](const Stream& stream, const ServeConfig& config, LoopStats& s) {
        auto last = Clock::now();
        mvcom::obs::MetricsRegistry metrics;
        mvcom::obs::TraceRecorder recorder;
        Rng rng(config.stream_seed);
        const auto trace = mvcom::txn::generate_trace(config.stream, rng);
        mvcom::pipeline::EpochPipeline pipe(trace, config.pipeline);
        pipe.set_obs(mvcom::obs::ObsContext(&metrics, &recorder));
        std::vector<std::uint64_t> digests;
        // Times one checkpoint write; returns its [start, end).
        const auto write_checkpoint = [&] {
          const auto c0 = Clock::now();
          const bool written = mvcom::chain::write_checkpoint_file(
              pipe.chain(), config.checkpoint_out);
          const auto c1 = Clock::now();
          checkpoint_ms.push_back(ms_between(c0, c1));
          out.check(written, "serve: checkpoint write failed");
          checkpoint_bytes = fs::file_size(config.checkpoint_out);
          return std::pair{c0, c1};
        };
        const auto totals = pipe.run([&](const EpochReport& r) {
          // The op is the epoch plus its checkpoint, as in ServeSession.
          const auto [c0, c1] = write_checkpoint();
          const std::uint64_t id =
              spans.record("pipeline.epoch", 0, ++op, last, c1);
          spans.record("chain.checkpoint", id, op, c0, c1);
          s.op_ms.push_back(ms_between(last, c1));
          last = c1;
          digests.push_back(r.event_order_digest);
          shards_pending.push_back(static_cast<double>(r.shards_pending));
          se_iterations.push_back(static_cast<double>(r.se_iterations));
          if (r.feasible && r.utility > r.warm_seed_utility) ++se_wins;
          des_events += static_cast<double>(r.des_events);
        });
        const auto [c0, c1] = write_checkpoint();
        spans.record("chain.checkpoint", 0, op, c0, c1);
        const bool chain_valid = pipe.chain().validate_full();
        // Exports, as ServeSession::flush_artifacts writes them.
        const std::string prom = mvcom::obs::to_prometheus_text(metrics);
        const std::string json =
            mvcom::obs::to_chrome_trace_json(recorder.snapshot());
        std::ofstream(config.metrics_out, std::ios::trunc) << prom;
        std::ofstream(config.trace_out, std::ios::trunc) << json;
        const bool artifacts_valid =
            mvcom::obs::validate_prometheus_text(prom) &&
            mvcom::obs::validate_json(json);
        s.committed_txs += totals.committed_txs;
        max_carries = std::max(max_carries, totals.max_shard_carries);
        return session_ok(out, stream, totals, digests, chain_valid,
                          artifacts_valid);
      });

  const double n = static_cast<double>(std::max<std::size_t>(op, 1));
  out.metric("pipeline.shards_pending", mean(shards_pending), "count");
  out.metric("pipeline.max_shard_carries", static_cast<double>(max_carries),
             "count");
  out.metric("se.iterations_per_epoch", mean(se_iterations), "count");
  out.metric("se.win_frac", static_cast<double>(se_wins) / n, "frac");
  out.metric("chain.checkpoint_ms", median(checkpoint_ms), "ms");
  out.metric("chain.checkpoint_last_ms",
             checkpoint_ms.empty() ? 0.0 : checkpoint_ms.back(), "ms");
  out.metric("chain.checkpoint_bytes", static_cast<double>(checkpoint_bytes),
             "bytes");
  out.metric("sim.events_per_epoch", des_events / n, "count");
  return stats;
}

}  // namespace

void run_serve(const Options& options, Outcome& out) {
  // Serve's SE and stage-A work hop between pool threads from epoch to
  // epoch. With glibc's per-thread arenas that made one seed's peak memory
  // vary by 2x between runs; one arena makes it repeat, at no measurable
  // cost in speed here (the SE loops do not allocate).
  mallopt(M_ARENA_MAX, 1);
  const ServeInputs in =
      repeated_setup(options, out, [&] { return build_inputs(options); });
  const fs::path dir =
      fs::path(options.out_dir) / ("serve-" + std::to_string(options.seed));
  fs::create_directories(dir);

  PipelineTotals sum;
  std::uint64_t shards_pending = 0;
  for (const Stream& s : in.streams) {
    shards_pending += s.shards_pending;
    sum.ingested_txs += s.totals.ingested_txs;
    sum.committed_txs += s.totals.committed_txs;
    sum.pending_txs += s.totals.pending_txs;
    sum.total_age += s.totals.total_age;
  }
  out.info("streams", static_cast<std::uint64_t>(in.streams.size()));
  out.info("epochs_per_session", static_cast<std::uint64_t>(in.epochs));
  out.info("reference_ingested_txs", sum.ingested_txs);
  out.info("reference_committed_txs", sum.committed_txs);
  out.info("reference_pending_txs", sum.pending_txs);
  out.info("reference_shards_pending", shards_pending);
  out.info_hex("reference_digest", in.fingerprint);

  const LoopStats timed = timed_loop(options, in, dir, out);
  if (!options.trace) {
    add_end_to_end(out, timed.op_ms, timed.op_keys, timed.wall_s, timed.rss,
                   {timed.committed_txs, sum.total_age, sum.committed_txs,
                    sum.ingested_txs});
  } else {
    SpanLog spans;
    const LoopStats traced = traced_loop(options, in, dir, out, spans);
    add_trace_overhead(out, timed.op_ms.size(), timed.wall_s,
                       traced.op_ms.size(), traced.wall_s);
    write_spans(options, spans, out);
  }
  fs::remove_all(dir);
}

}  // namespace perfbench
