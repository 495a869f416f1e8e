// Workloads `des_faults` and `fabric_faults`: Elastico epochs at Fig.-2
// grain (message-level overlay, committees of 16) with node failures and
// message loss. `des_faults` runs the member-committee lanes on the
// in-process pool; `fabric_faults` ships the identical lanes to worker
// processes and kills one worker mid-run. An op is one epoch; every epoch is
// checked against a serial (lane_workers = 0) reference made in set-up.

#include <algorithm>
#include <bit>
#include <functional>
#include <string>
#include <vector>

#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/wire.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "sharding/elastico.hpp"
#include "sharding/lane.hpp"
#include "txn/trace_generator.hpp"

namespace perfbench {
namespace {

using mvcom::common::Rng;
using mvcom::common::SimTime;
using mvcom::sharding::ElasticoConfig;
using mvcom::sharding::ElasticoNetwork;
using mvcom::sharding::EpochOutcome;
using mvcom::sharding::LaneResult;
using mvcom::sharding::LaneTask;

constexpr std::size_t kLaneWorkers = 3;
constexpr std::size_t kFabricWorkers = 2;

/// The bits of one epoch the checks compare.
struct EpochRef {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t makespan_bits = 0;
  std::uint64_t final_txs = 0;
  bool final_committed = false;

  static EpochRef of(const EpochOutcome& o) {
    return {o.event_order_digest, o.events_executed,
            std::bit_cast<std::uint64_t>(o.epoch_makespan.seconds()),
            o.final_block_txs, o.final_committed};
  }
  bool operator==(const EpochRef&) const = default;
};

/// What a user of the sharded chain sees of one epoch.
struct Quality {
  double age_tx_seconds = 0.0;      // Σ over committed TXs of their age
  std::uint64_t committed_txs = 0;  // TXs in the committed final block
  std::uint64_t dealt_txs = 0;      // TXs dealt to member committees
  std::uint64_t formed = 0;         // member committees formed
  std::uint64_t committed = 0;      // member committees that committed
  std::uint64_t view_changes = 0;

  void add(const EpochOutcome& o) {
    for (const auto& c : o.committees) {
      dealt_txs += c.tx_count;
      if (c.member_count > 0) ++formed;
      if (c.committed) ++committed;
      view_changes += c.view_changes;
    }
    if (!o.final_committed) return;
    committed_txs += o.final_block_txs;
    // A shard's TXs wait from its two-phase submission to the final block.
    for (const std::uint32_t id : o.selected) {
      const auto& c = o.committees.at(id);
      age_tx_seconds += static_cast<double>(c.tx_count) *
                        (o.epoch_makespan - c.two_phase_latency()).seconds();
    }
  }
};

/// One simulated network: its block trace, its RNG seed and the serial
/// reference of its first `epochs` epochs.
struct Network {
  mvcom::txn::Trace trace;
  std::uint64_t seed = 0;
  std::vector<EpochRef> reference;
};

struct DesInputs {
  ElasticoConfig config;
  std::size_t epochs = 0;         // per session, one session per network
  std::vector<Network> networks;  // sessions cycle through these
  Quality quality;                // over every reference epoch
  std::uint64_t fingerprint = 0;  // fold of every reference epoch digest
};

DesInputs build_inputs(const Options& options) {
  DesInputs in;
  ElasticoConfig& c = in.config;
  // Fig.-2 grain: ~14 nodes per committee slot, committees of 16.
  c.num_nodes = options.tiny ? 512 : 2048;
  c.committee_bits = options.tiny ? 4 : 7;
  c.committee_size = 16;
  c.message_level_overlay = true;
  c.pow_expected_solve = SimTime(600.0);
  c.overlay_cost_per_node = SimTime(0.5);
  c.link_latency_mean = SimTime(2.0);
  c.pbft.verification_mean = SimTime(16.0);
  c.pbft.view_change_timeout = SimTime(180.0);
  c.node_failure_probability = 0.05;
  c.message_loss_probability = 0.01;
  c.lane_workers = kLaneWorkers;
  in.epochs = options.tiny ? 4 : 16;
  // Several networks, so that no one draw of node speeds sets the numbers.
  const std::size_t networks = options.tiny ? 2 : 4;

  ElasticoConfig serial = c;
  serial.lane_workers = 0;
  in.fingerprint = mvcom::common::kFnv1aBasis;
  for (std::size_t k = 0; k < networks; ++k) {
    Network net;
    net.seed = Rng::stream(options.seed, 10 + 2 * k)();
    Rng trace_rng(Rng::stream(options.seed, 11 + 2 * k)());
    mvcom::txn::TraceGeneratorConfig tc;
    tc.num_blocks = 2 * (std::size_t{1} << c.committee_bits);
    tc.target_total_txs = tc.num_blocks * 1000;
    net.trace = mvcom::txn::generate_trace(tc, trace_rng);
    ElasticoNetwork network(serial, Rng(net.seed));
    for (std::size_t e = 0; e < in.epochs; ++e) {
      const EpochOutcome o = network.run_epoch(net.trace);
      net.reference.push_back(EpochRef::of(o));
      in.quality.add(o);
      in.fingerprint =
          mvcom::common::fnv1a_mix(in.fingerprint, o.event_order_digest);
    }
    in.networks.push_back(std::move(net));
  }
  return in;
}

struct LoopStats {
  std::vector<double> op_ms;
  std::vector<std::size_t> op_keys;  // which reference epoch each op ran
  double wall_s = 0.0;
  std::uint64_t committed_txs = 0;
  std::uint64_t events = 0;
  RssWindows rss;  // one window per session
};

/// Called after every epoch with its op index and [start, end); returns
/// false when the epoch must count as failed (an unplanned respawn).
using EpochHook =
    std::function<bool(std::size_t, Clock::time_point, Clock::time_point)>;

/// The closed loop: sessions of `in.epochs` epochs, each on a fresh copy of
/// the next network, every epoch checked against the serial reference, until
/// the budget is spent and every network has run once.
LoopStats run_loop(const Options& options, const DesInputs& in, Outcome& out,
                   const std::function<void(ElasticoNetwork&)>& install,
                   const EpochHook& hook) {
  LoopStats stats;
  const auto t0 = Clock::now();
  for (std::size_t session = 0;
       session < in.networks.size() || ms_since(t0) < options.seconds * 1000.0;
       ++session) {
    const std::size_t k = session % in.networks.size();
    const Network& net = in.networks[k];
    stats.rss.begin();
    ElasticoNetwork network(in.config, Rng(net.seed));
    install(network);
    for (std::size_t e = 0; e < in.epochs; ++e) {
      const auto start = Clock::now();
      const EpochOutcome o = network.run_epoch(net.trace);
      const auto end = Clock::now();
      const std::size_t op = stats.op_ms.size();
      stats.op_ms.push_back(ms_between(start, end));
      stats.op_keys.push_back(k * in.epochs + e);
      const bool same = EpochRef::of(o) == net.reference[e];
      out.check(same, "epoch differs from the lane_workers=0 reference");
      const bool hook_ok = hook(op, start, end);
      out.op(same && hook_ok);
      if (o.final_committed) stats.committed_txs += o.final_block_txs;
      stats.events += o.events_executed;
    }
    stats.rss.end();
  }
  stats.wall_s = ms_since(t0) / 1000.0;
  return stats;
}

const EpochHook kNoHook = [](std::size_t, Clock::time_point,
                             Clock::time_point) { return true; };

void report_end_to_end(Outcome& out, const DesInputs& in,
                       const LoopStats& stats) {
  const Quality& q = in.quality;
  add_end_to_end(out, stats.op_ms, stats.op_keys, stats.wall_s, stats.rss,
                 {stats.committed_txs, q.age_tx_seconds, q.committed_txs,
                  q.dealt_txs});
}

void report_common_info(Outcome& out, const DesInputs& in) {
  const Quality& q = in.quality;
  std::uint64_t events = 0;
  for (const Network& net : in.networks) {
    for (const EpochRef& r : net.reference) events += r.events;
  }
  out.info("networks", static_cast<std::uint64_t>(in.networks.size()));
  out.info("epochs_per_session", static_cast<std::uint64_t>(in.epochs));
  out.info("reference_events", events);
  out.info("reference_committed_txs", q.committed_txs);
  out.info("reference_view_changes", q.view_changes);
  out.info("reference_committees_formed", q.formed);
  out.info("reference_committees_committed", q.committed);
  out.info_hex("reference_digest", in.fingerprint);
}

/// Per-epoch layer timings gathered by the traced loops.
struct LayerTimes {
  std::vector<double> epoch_ms;
  std::vector<double> lanes_ms;
  std::vector<double> lane_busy_ms;
  std::vector<double> lane_max_ms;
  std::uint64_t lane_events = 0;
  double lane_busy_total_ms = 0.0;
};

void report_layers(Outcome& out, const DesInputs& in, const LayerTimes& t,
                   const LoopStats& stats,
                   const mvcom::obs::MetricsRegistry& metrics) {
  const double epochs = static_cast<double>(stats.op_ms.size());
  std::vector<double> coordinator_ms;
  for (std::size_t i = 0; i < t.epoch_ms.size(); ++i) {
    coordinator_ms.push_back(t.epoch_ms[i] - t.lanes_ms[i]);
  }
  out.metric("sharding.epoch_ms", median(t.epoch_ms), "ms");
  out.metric("sharding.lanes_ms", median(t.lanes_ms), "ms");
  out.metric("sharding.coordinator_ms", median(coordinator_ms), "ms");
  out.metric("sharding.committed_frac",
             static_cast<double>(in.quality.committed) /
                 static_cast<double>(in.quality.formed),
             "frac");
  out.metric("sim.events_per_epoch", static_cast<double>(stats.events) / epochs,
             "count");
  // Lane time is only visible when the lanes run in this process.
  if (!t.lane_busy_ms.empty()) {
    out.metric("sharding.lane_busy_ms", median(t.lane_busy_ms), "ms");
    out.metric("sharding.lane_max_ms", median(t.lane_max_ms), "ms");
    out.metric("sim.events_per_busy_s",
               static_cast<double>(t.lane_events) /
                   (t.lane_busy_total_ms / 1000.0),
               "1/s");
  }
  out.metric("consensus.view_changes_per_epoch",
             counter_total(metrics, "mvcom_pbft_view_changes_total") / epochs,
             "count");
  out.metric("consensus.messages_per_epoch",
             counter_total(metrics, "mvcom_pbft_messages_total") / epochs,
             "count");
  out.metric("net.messages_per_epoch",
             counter_total(metrics, "mvcom_net_messages_total") / epochs,
             "count");
  // Their sum is the epoch by construction; report how closely the medians
  // of the parts add up to the median epoch.
  out.info("sharding_split_residual_frac",
           median(t.epoch_ms) > 0.0
               ? (median(t.epoch_ms) - median(t.lanes_ms) -
                  median(coordinator_ms)) /
                     median(t.epoch_ms)
               : 0.0);
}

}  // namespace

void run_des_faults(const Options& options, Outcome& out) {
  const DesInputs in =
      repeated_setup(options, out, [&] { return build_inputs(options); });
  report_common_info(out, in);
  const LoopStats timed =
      run_loop(options, in, out, [](ElasticoNetwork&) {}, kNoHook);
  if (!options.trace) {
    report_end_to_end(out, in, timed);
    return;
  }

  // Traced: the same lanes on a pool of the same size, each call timed.
  mvcom::obs::MetricsRegistry metrics;
  const mvcom::obs::ObsContext obs(&metrics, nullptr);
  SpanLog spans;
  LayerTimes times;
  struct LaneSpan {
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<LaneSpan> lane_spans;
  LaneSpan lanes_span;
  const auto executor = [&](std::vector<LaneTask>& tasks,
                            std::vector<LaneResult>& results) {
    lane_spans.assign(tasks.size(), LaneSpan{});
    lanes_span.start = Clock::now();
    mvcom::common::ThreadPool pool(kLaneWorkers);
    pool.parallel_for(tasks.size(), [&](std::size_t c) {
      lane_spans[c].start = Clock::now();
      results[c] = mvcom::sharding::run_committee_lane(tasks[c], obs);
      lane_spans[c].end = Clock::now();
    });
    lanes_span.end = Clock::now();
    for (const LaneResult& r : results) times.lane_events += r.events_executed;
  };
  const EpochHook hook = [&](std::size_t op, Clock::time_point start,
                             Clock::time_point end) {
    const std::uint64_t epoch_id =
        spans.record("sharding.epoch", 0, op, start, end);
    const std::uint64_t lanes_id = spans.record(
        "sharding.lanes", epoch_id, op, lanes_span.start, lanes_span.end);
    double busy = 0.0;
    double slowest = 0.0;
    for (const LaneSpan& s : lane_spans) {
      spans.record("sharding.lane", lanes_id, op, s.start, s.end);
      const double ms = ms_between(s.start, s.end);
      busy += ms;
      slowest = std::max(slowest, ms);
    }
    times.epoch_ms.push_back(ms_between(start, end));
    times.lanes_ms.push_back(ms_between(lanes_span.start, lanes_span.end));
    times.lane_busy_ms.push_back(busy);
    times.lane_max_ms.push_back(slowest);
    times.lane_busy_total_ms += busy;
    return true;
  };
  const LoopStats traced = run_loop(
      options, in, out,
      [&](ElasticoNetwork& network) {
        network.set_obs(obs);
        network.set_lane_executor(executor);
      },
      hook);
  report_layers(out, in, times, traced, metrics);
  add_trace_overhead(out, timed.op_ms.size(), timed.wall_s,
                     traced.op_ms.size(), traced.wall_s);
  write_spans(options, spans, out);
}

void run_fabric_faults(const Options& options, Outcome& out) {
  const DesInputs in =
      repeated_setup(options, out, [&] { return build_inputs(options); });
  report_common_info(out, in);
  mvcom::fabric::FabricConfig fabric_config;
  fabric_config.workers = kFabricWorkers;
  // One SIGKILL mid-way through the first session; the fabric re-forks the
  // worker and replays that epoch.
  const std::uint64_t kill_epoch = in.epochs / 2;
  constexpr std::uint64_t kKills = 1;

  // Returns false for an epoch whose respawns were not injected.
  const auto respawn_check = [&](mvcom::fabric::ProcessFabric& fleet,
                                 std::uint64_t& seen) {
    const std::uint64_t planned = fleet.epochs_run() - 1 == kill_epoch ? 1 : 0;
    const std::uint64_t now = fleet.respawns();
    const bool ok = now - seen == planned;
    seen = now;
    out.check(ok, "fabric: unplanned worker respawn");
    return ok;
  };

  LoopStats timed;
  {
    mvcom::fabric::ProcessFabric fleet(fabric_config);
    fleet.inject_kill(1, kill_epoch);
    std::uint64_t seen = 0;
    timed = run_loop(
        options, in, out,
        [&](ElasticoNetwork& network) {
          network.set_lane_executor(fleet.executor());
        },
        [&](std::size_t, Clock::time_point, Clock::time_point) {
          return respawn_check(fleet, seen);
        });
    out.check(fleet.respawns() == kKills,
              "fabric: respawns differ from injected kills");
    out.info("respawns_untraced", fleet.respawns());
  }
  if (!options.trace) {
    report_end_to_end(out, in, timed);
    return;
  }

  // Traced: the fabric's executor wrapped in a timing lambda; the first
  // session's tasks are kept to time the wire format afterwards.
  mvcom::obs::MetricsRegistry metrics;
  const mvcom::obs::ObsContext obs(&metrics, nullptr);
  SpanLog spans;
  LayerTimes times;
  std::vector<std::vector<LaneTask>> captured;
  Clock::time_point rt_start;
  Clock::time_point rt_end;
  mvcom::fabric::ProcessFabric fleet(fabric_config, obs);
  fleet.inject_kill(1, kill_epoch);
  std::uint64_t seen = 0;
  const auto executor = [&](std::vector<LaneTask>& tasks,
                            std::vector<LaneResult>& results) {
    if (captured.size() < in.epochs) captured.push_back(tasks);
    rt_start = Clock::now();
    fleet.execute(tasks, results);
    rt_end = Clock::now();
  };
  const EpochHook hook = [&](std::size_t op, Clock::time_point start,
                             Clock::time_point end) {
    const std::uint64_t epoch_id =
        spans.record("sharding.epoch", 0, op, start, end);
    spans.record("fabric.roundtrip", epoch_id, op, rt_start, rt_end);
    times.epoch_ms.push_back(ms_between(start, end));
    times.lanes_ms.push_back(ms_between(rt_start, rt_end));
    return respawn_check(fleet, seen);
  };
  const LoopStats traced = run_loop(
      options, in, out,
      [&](ElasticoNetwork& network) {
        network.set_obs(obs);
        network.set_lane_executor(executor);
      },
      hook);
  out.check(fleet.respawns() == kKills,
            "fabric: respawns differ from injected kills");

  // The wire: each captured epoch encoded as the per-worker batches the
  // coordinator sends (armed tasks, committee id mod workers), then decoded.
  std::vector<double> encode_ms;
  std::vector<double> decode_ms;
  double wire_bytes = 0.0;
  for (std::size_t e = 0; e < captured.size(); ++e) {
    std::vector<mvcom::fabric::TaskBatch> batches(kFabricWorkers);
    for (const LaneTask& task : captured[e]) {
      if (task.armed) {
        batches[task.committee_id % kFabricWorkers].tasks.push_back(task);
      }
    }
    std::vector<std::vector<std::uint8_t>> payloads(kFabricWorkers);
    const auto e0 = Clock::now();
    for (std::size_t w = 0; w < kFabricWorkers; ++w) {
      batches[w].epoch = e;
      mvcom::fabric::encode_task_batch(payloads[w], batches[w]);
    }
    const auto e1 = Clock::now();
    bool decoded_ok = true;
    for (std::size_t w = 0; w < kFabricWorkers; ++w) {
      mvcom::fabric::TaskBatch decoded;
      decoded_ok = mvcom::fabric::decode_task_batch(payloads[w], decoded) &&
                   decoded.tasks.size() == batches[w].tasks.size() &&
                   decoded_ok;
      wire_bytes += static_cast<double>(payloads[w].size());
    }
    const auto e2 = Clock::now();
    out.check(decoded_ok, "fabric: captured task batch failed to round-trip");
    encode_ms.push_back(ms_between(e0, e1));
    decode_ms.push_back(ms_between(e1, e2));
  }

  report_layers(out, in, times, traced, metrics);
  add_trace_overhead(out, timed.op_ms.size(), timed.wall_s,
                     traced.op_ms.size(), traced.wall_s);
  // On the fabric the lane call is the round trip.
  out.metric("fabric.roundtrip_ms", median(times.lanes_ms), "ms");
  out.metric("fabric.wire_bytes",
             captured.empty() ? 0.0
                              : wire_bytes / static_cast<double>(captured.size()),
             "bytes");
  out.metric("fabric.encode_ms", median(encode_ms), "ms");
  out.metric("fabric.decode_ms", median(decode_ms), "ms");
  out.metric("fabric.replay_ms",
             traced.op_ms.at(kill_epoch) - median(traced.op_ms), "ms");
  out.metric("fabric.respawns", static_cast<double>(fleet.respawns()), "count");
  write_spans(options, spans, out);
}

}  // namespace perfbench
