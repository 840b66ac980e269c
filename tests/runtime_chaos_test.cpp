// Integration tests of the chaos layer against the protocol runtime: fault
// plans attached with Cluster::set_chaos must degrade delivery, not
// diagnosis -- an innocent forwarder whose IP link flaps draws a link
// verdict, never an accusation.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "net/chaos.h"
#include "net/topology_gen.h"
#include "runtime/cluster.h"
#include "util/metrics.h"

namespace concilium::runtime {
namespace {

using overlay::MemberIndex;
using util::kMinute;
using util::kSecond;

/// The runtime_cluster_test world: small topology, 50-node overlay, and an
/// initially healthy failure timeline (chaos supplies the faults here).
struct ChaosWorld {
    explicit ChaosWorld(std::uint64_t seed = 5, std::size_t nodes = 50)
        : rng(seed),
          topology(net::generate_topology(alter(net::small_params()), rng)),
          ca(seed + 1) {
        overlay.emplace(overlay::build_overlay_from_hosts(
            topology.end_hosts(), nodes, ca, rng));
        trees.emplace(*overlay, topology);
        timeline.finalize();
    }

    static net::TopologyParams alter(net::TopologyParams p) {
        p.end_hosts = 300;
        return p;
    }

    Cluster make_cluster(RuntimeParams params = {},
                         std::vector<NodeBehavior> behaviors = {}) {
        return Cluster(sim, timeline, *overlay, *trees, params,
                       std::move(behaviors), rng.fork());
    }

    util::Rng rng;
    net::Topology topology;
    crypto::CertificateAuthority ca;
    std::optional<overlay::OverlayNetwork> overlay;
    std::optional<tomography::OverlayTrees> trees;
    net::FailureTimeline timeline;
    net::EventSim sim;
};

/// A route of at least `min_len` hops, searched deterministically.
std::optional<std::pair<MemberIndex, util::NodeId>> long_route(
    const overlay::OverlayNetwork& net, std::size_t min_len) {
    util::Rng search(3);
    for (int attempt = 0; attempt < 20000; ++attempt) {
        const auto from =
            static_cast<MemberIndex>(search.uniform_index(net.size()));
        const util::NodeId key = util::NodeId::random(search);
        try {
            if (net.route(from, key).size() >= min_len) {
                return std::make_pair(from, key);
            }
        } catch (const std::exception&) {
        }
    }
    return std::nullopt;
}

TEST(ClusterChaos, InnocentForwarderUnderFlappingLinkIsNotAccused) {
    ChaosWorld world;
    const auto picked = long_route(*world.overlay, 3);
    ASSERT_TRUE(picked.has_value()) << "no 3-hop route in small world";
    const auto [from, key] = *picked;
    const auto hops = world.overlay->route(from, key);
    const MemberIndex forwarder = hops[1];

    // Flap a shared *transit* link of the forwarder's outgoing segment:
    // not on the upstream segment (the message must reach the forwarder),
    // not either endpoint's last mile, and observed by at least two leaves
    // of the forwarder's probe tree.  Correlated silence behind a shared
    // link survives the suppression filter (the silent leaves are each
    // other's only siblings), so the forwarder's reactive heavyweight
    // probing localizes the outage and its innocent verdict on the next
    // hop rides the revision chain back to the sender.  (A flapped
    // last-mile link is observationally identical to an offline node and
    // is deliberately convicted; see
    // Cluster.OfflineNodeIsBlamedLikeADropperAndRecovers.)
    const auto upstream = world.trees->path_links(hops[0], hops[1]);
    const auto segment = world.trees->path_links(hops[1], hops[2]);
    ASSERT_GE(segment.size(), 3u);
    const auto& tree = world.trees->tree(forwarder);
    std::optional<net::LinkId> flapped;
    for (std::size_t i = 1; i + 1 < segment.size() && !flapped; ++i) {
        const net::LinkId link = segment[i];
        if (std::find(upstream.begin(), upstream.end(), link) !=
            upstream.end()) {
            continue;
        }
        int observers = 0;
        for (std::size_t s = 0; s < tree.leaves().size(); ++s) {
            const auto path = tree.path_links(static_cast<int>(s));
            if (std::find(path.begin(), path.end(), link) != path.end()) {
                ++observers;
            }
        }
        if (observers >= 2) flapped = link;
    }
    ASSERT_TRUE(flapped.has_value()) << "no shared transit link on segment";

    // 150 s down / 90 s up, forever.  Sends land 60 s into the down
    // window, so the whole +-delta blame window sits inside the outage
    // and every admissible probe of the flapped link voted "down".
    net::FaultPlan plan;
    for (util::SimTime t = 0; t < 3 * util::kHour; t += 4 * kMinute) {
        plan.downs.add_down(*flapped, {t, t + 150 * kSecond});
    }
    plan.downs.finalize();

    RuntimeParams params;
    params.forward_retry.max_attempts = 3;
    Cluster cluster = world.make_cluster(params);
    cluster.set_chaos(&plan);
    cluster.start();
    // 5 min = 60 s into the second down window; every send below advances
    // by two full flap cycles, so each lands at the same cycle position.
    world.sim.run_until(5 * kMinute);

    std::size_t network_blamed = 0;
    std::size_t node_blamed = 0;
    std::size_t delivered = 0;
    const util::NodeId forwarder_id = world.overlay->member(forwarder).id();
    bool forwarder_ever_blamed = false;
    for (int i = 0; i < 12; ++i) {
        cluster.send(from, key,
                     [&](const Cluster::MessageOutcome& out) {
                         if (out.delivered) {
                             ++delivered;
                             return;
                         }
                         if (out.network_blamed) ++network_blamed;
                         if (out.blamed.has_value()) {
                             ++node_blamed;
                             forwarder_ever_blamed =
                                 forwarder_ever_blamed ||
                                 *out.blamed == forwarder_id;
                         }
                     });
        world.sim.run_until(world.sim.now() + 8 * kMinute);
    }
    world.sim.run_until(world.sim.now() + 5 * kMinute);

    // Every send died inside a down window and was diagnosed as such.
    EXPECT_GT(network_blamed, 0u) << "no send hit a down window";
    // The point of the chaos layer: an IP fault yields a link verdict, not
    // a node verdict, and never an accusation against the honest forwarder.
    EXPECT_FALSE(forwarder_ever_blamed);
    EXPECT_EQ(node_blamed, 0u);
    EXPECT_TRUE(cluster.accusations_against(forwarder).empty());
    EXPECT_EQ(cluster.stats().accusations_filed, 0u);
}

TEST(ClusterChaos, RetransmissionImprovesDeliveryUnderResidualLoss) {
    const auto run = [](int max_attempts) {
        ChaosWorld world;
        RuntimeParams params;
        params.transport.healthy_link_loss = 0.05;
        params.forward_retry.max_attempts = max_attempts;
        Cluster cluster = world.make_cluster(params);
        cluster.start();
        world.sim.run_until(3 * kMinute);
        std::size_t delivered = 0;
        util::Rng pick(7);
        for (int i = 0; i < 30; ++i) {
            const auto from = static_cast<MemberIndex>(
                pick.uniform_index(world.overlay->size()));
            cluster.send(from, util::NodeId::random(pick),
                         [&](const Cluster::MessageOutcome& out) {
                             if (out.delivered) ++delivered;
                         });
            world.sim.run_until(world.sim.now() + 30 * kSecond);
        }
        world.sim.run_until(world.sim.now() + 2 * kMinute);
        return std::make_pair(delivered, cluster.stats());
    };

    const auto [without_retry, stats_without] = run(1);
    const auto [with_retry, stats_with] = run(4);
    EXPECT_EQ(stats_without.forward_retransmissions, 0u);
    EXPECT_GT(stats_with.forward_retransmissions, 0u);
    // Retransmission heals IP loss the steward could not otherwise tell
    // apart from a malicious drop.
    EXPECT_GT(with_retry, without_retry);
}

TEST(ClusterChaos, DuplicatedPacketsDeliverExactlyOnce) {
    ChaosWorld world;
    net::FaultPlan plan;
    plan.duplicate_rate = 1.0;  // every transmission is duplicated
    plan.downs.finalize();

    Cluster cluster = world.make_cluster();
    cluster.set_chaos(&plan);
    cluster.start();
    world.sim.run_until(3 * kMinute);

    std::size_t callbacks = 0;
    std::size_t delivered = 0;
    util::Rng pick(11);
    for (int i = 0; i < 15; ++i) {
        const auto from = static_cast<MemberIndex>(
            pick.uniform_index(world.overlay->size()));
        cluster.send(from, util::NodeId::random(pick),
                     [&](const Cluster::MessageOutcome& out) {
                         ++callbacks;
                         if (out.delivered) ++delivered;
                     });
        world.sim.run_until(world.sim.now() + 30 * kSecond);
    }
    world.sim.run_until(world.sim.now() + 2 * kMinute);

    // Exactly one completion per send despite the duplicate copies, and
    // the receivers actually saw (and suppressed) duplicates.
    EXPECT_EQ(callbacks, 15u);
    EXPECT_EQ(delivered, 15u);
    EXPECT_GT(cluster.stats().duplicates_suppressed, 0u);
    EXPECT_EQ(cluster.stats().accusations_filed, 0u);
}

TEST(ClusterChaos, ChurnScheduleTogglesNodesAndRecovers) {
    ChaosWorld world;
    net::FaultPlan plan;
    // Every node leaves once, staggered, for 2 minutes each.
    for (std::size_t n = 0; n < world.overlay->size(); ++n) {
        const auto leave =
            static_cast<util::SimTime>(5 * kMinute + n * 10 * kSecond);
        plan.churn.push_back({n, leave, leave + 2 * kMinute});
    }
    plan.downs.finalize();

    Cluster cluster = world.make_cluster();
    cluster.set_chaos(&plan);
    cluster.start();
    world.sim.run_until(30 * kMinute);

    EXPECT_EQ(cluster.stats().churn_leaves, world.overlay->size());
    EXPECT_EQ(cluster.stats().churn_rejoins, world.overlay->size());

    // After the churn wave has fully passed, the cluster delivers again.
    std::size_t delivered = 0;
    util::Rng pick(13);
    for (int i = 0; i < 10; ++i) {
        const auto from = static_cast<MemberIndex>(
            pick.uniform_index(world.overlay->size()));
        cluster.send(from, util::NodeId::random(pick),
                     [&](const Cluster::MessageOutcome& out) {
                         if (out.delivered) ++delivered;
                     });
        world.sim.run_until(world.sim.now() + 30 * kSecond);
    }
    world.sim.run_until(world.sim.now() + 2 * kMinute);
    EXPECT_GT(delivered, 7u);
}

TEST(ClusterChaos, SnapshotRetryExhaustionDegradesGracefully) {
    ChaosWorld world;
    const auto picked = long_route(*world.overlay, 3);
    ASSERT_TRUE(picked.has_value());
    const auto [from, key] = *picked;
    const auto hops = world.overlay->route(from, key);

    // Take the whole forwarder segment down hard: snapshot exchanges over
    // it fail every retry, and the budget must bound the attempts.
    net::FaultPlan plan;
    for (const net::LinkId l : world.trees->path_links(hops[1], hops[2])) {
        plan.downs.add_down(l, {0, 2 * util::kHour});
    }
    plan.downs.finalize();

    Cluster cluster = world.make_cluster();
    cluster.set_chaos(&plan);
    cluster.start();
    world.sim.run_until(10 * kMinute);

    std::optional<Cluster::MessageOutcome> outcome;
    cluster.send(from, key, [&](const Cluster::MessageOutcome& out) {
        outcome = out;
    });
    world.sim.run_until(world.sim.now() + 3 * kMinute);

    // Some snapshot deliveries exhausted their retry budget...
    EXPECT_GT(cluster.stats().snapshot_retries, 0u);
    // ...yet diagnosis still completed instead of wedging on the missing
    // evidence, and nobody was accused for an IP outage.
    ASSERT_TRUE(outcome.has_value());
    EXPECT_FALSE(outcome->delivered);
    EXPECT_EQ(cluster.stats().accusations_filed, 0u);
}

TEST(ClusterChaos, EmptyFaultPlanIsTheLosslessPlane) {
    // A plan with no faults loses no snapshot copy, so each publication's
    // copies land in the one event they share without a plan: the same
    // protocol, event for event.
    const auto run = [](bool attach_plan) {
        ChaosWorld world;
        net::FaultPlan plan;
        plan.downs.finalize();
        Cluster cluster = world.make_cluster();
        if (attach_plan) cluster.set_chaos(&plan);
        const auto& executed =
            util::metrics::Registry::global().counter("net.events_executed");
        const std::int64_t before = executed.value();
        cluster.start();
        world.sim.run_until(3 * kMinute);
        util::Rng pick(17);
        for (int i = 0; i < 15; ++i) {
            const auto from = static_cast<MemberIndex>(
                pick.uniform_index(world.overlay->size()));
            cluster.send(from, util::NodeId::random(pick),
                         [](const Cluster::MessageOutcome&) {});
            world.sim.run_until(world.sim.now() + 30 * kSecond);
        }
        world.sim.run_until(world.sim.now() + 2 * kMinute);
        return std::make_pair(cluster.stats(), executed.value() - before);
    };

    const auto [lossless, lossless_events] = run(false);
    const auto [planned, planned_events] = run(true);
    EXPECT_GT(lossless.snapshots_published, 0u);
    for (const StatRow& row : kStatTable) {
        EXPECT_EQ(lossless.*row.field, planned.*row.field) << row.name;
    }
    EXPECT_EQ(lossless_events, planned_events);
}

}  // namespace
}  // namespace concilium::runtime
