#include "sharding/lane.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "net/latency.hpp"
#include "sharding/overlay.hpp"
#include "sim/simulator.hpp"

namespace mvcom::sharding {

using common::fnv1a_mix;
using common::kFnv1aBasis;
using common::Rng;

LaneResult run_committee_lane(const LaneTask& task, obs::ObsContext obs) {
  LaneResult result;
  result.committee_id = task.committee_id;
  if (!task.armed) return result;

  std::uint64_t digest = kFnv1aBasis;
  std::uint64_t events = 0;
  result.formation = task.formation;

  // The link model is stateless (all sampling goes through the lane's own
  // Network RNG), so a per-lane instance with the epoch's parameters is
  // indistinguishable from the shared instance the closure used to borrow.
  const auto link = std::make_shared<net::LognormalLatency>(
      task.link_latency_mean,
      SimTime(0.5 * task.link_latency_mean.seconds()));

  if (task.message_level_overlay) {
    // Stage 2 as the real directory exchange: the first solver collects
    // JOINs from its committee peers plus one identity announcement per
    // network node (the Elastico directory learns the whole membership —
    // the linear-in-N term), then pushes the list back out. Each exchange
    // runs on an isolated event fabric so its absolute-time scheduling
    // cannot collide with the other committees' stages.
    sim::Simulator overlay_sim;
    overlay_sim.set_obs(obs);
    net::Network overlay_net(overlay_sim, Rng(task.overlay_seed), link,
                             task.num_nodes);
    overlay_net.set_obs(obs);
    const OverlayResult exchanged = run_overlay_configuration(
        overlay_sim, overlay_net, task.participants, task.ready_at,
        task.participants.front(), task.overlay_identity_processing);
    digest = fnv1a_mix(digest, overlay_sim.order_digest());
    events += overlay_sim.events_executed();
    // Directory-side verification of the *network-wide* identity list.
    const SimTime directory_scan =
        SimTime(static_cast<double>(task.num_nodes) *
                task.overlay_identity_processing.seconds());
    SimTime configured = SimTime::zero();
    for (const SimTime t : exchanged.configured_at) {
      configured = std::max(configured, t);
    }
    if (configured.is_infinite() ||
        exchanged.directory_complete.is_infinite()) {
      // Exchange failed: committee unformed. The digest and event count
      // still merge (the exchange's events happened), but the coordinator
      // clears the membership.
      result.order_digest = digest;
      result.events_executed = events;
      return result;
    }
    result.formation = configured + directory_scan;
  }
  result.formed = true;

  if (task.committee_id < task.member_committees) {
    sim::Simulator lane_sim;
    lane_sim.set_obs(obs);
    net::Network lane_net(lane_sim, Rng(task.net_seed), link, task.num_nodes);
    lane_net.set_obs(obs);
    lane_net.set_loss_probability(task.message_loss_probability);
    for (std::size_t r = 0; r < task.participants.size(); ++r) {
      if (task.failed[r] != 0) lane_net.set_failed(task.participants[r], true);
    }
    consensus::PbftCluster cluster(lane_sim, lane_net, task.pbft,
                                   Rng(task.cluster_seed), task.participants);
    cluster.set_obs(obs);
    for (std::size_t r = 0; r < task.participants.size(); ++r) {
      cluster.set_speed_factor(r, task.verify_speeds[r]);
    }
    // Shard payload: Merkle root over a synthetic per-shard block digest.
    const crypto::Digest payload = crypto::Sha256::hash(
        task.randomness + "|shard|" + std::to_string(task.committee_id) +
        "|" + std::to_string(task.shard_txs));
    bool decided = false;
    const SimTime start = result.formation;
    lane_sim.schedule_at(start, [&cluster, payload, &result, &decided] {
      cluster.start_consensus(
          payload, [&result, &decided](const consensus::PbftResult& res) {
            result.committed = res.committed;
            result.consensus_latency = res.latency;
            result.view_changes = res.view_changes;
            decided = true;
          });
    });
    // Drive this committee to quiescence (the cluster's horizon event
    // bounds the run); by then nothing references the lane's objects.
    lane_sim.run();
    assert(decided);
    (void)decided;
    digest = fnv1a_mix(digest, lane_sim.order_digest());
    events += lane_sim.events_executed();
  }
  result.order_digest = digest;
  result.events_executed = events;
  return result;
}

}  // namespace mvcom::sharding
