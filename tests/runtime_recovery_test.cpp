// Integration tests of crash recovery and partition tolerance
// (RECOVERY.md): a crashed forwarder must never be accused, journaled
// epochs must survive a restart without tripping the equivocation
// defenses, partitions must heal back into a delivering cluster, and
// degraded mode must still convict a live malicious dropper.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "net/chaos.h"
#include "net/topology_gen.h"
#include "runtime/cluster.h"

namespace concilium::runtime {
namespace {

using overlay::MemberIndex;
using util::kMinute;
using util::kSecond;

/// The runtime_chaos_test world: small topology, 50-node overlay, healthy
/// IP ground truth -- every fault below comes from the recovery plan.
struct RecoveryWorld {
    explicit RecoveryWorld(std::uint64_t seed = 5, std::size_t nodes = 50)
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

// The headline scenario: the forwarder crash-stops before the sends, so
// every message dies at its hop with the evidence hollowed out -- no
// snapshots, no probe coverage, no commitment.  Degraded-mode diagnosis
// must close those messages as insufficient evidence, never as guilt, and
// after the restart the forwarder must carry traffic again.
TEST(ClusterRecovery, CrashedForwarderDrawsInsufficientEvidenceNotGuilt) {
    RecoveryWorld world;
    const auto picked = long_route(*world.overlay, 3);
    ASSERT_TRUE(picked.has_value()) << "no 3-hop route in small world";
    const auto [from, key] = *picked;
    const auto hops = world.overlay->route(from, key);
    const MemberIndex forwarder = hops[1];
    const util::NodeId forwarder_id = world.overlay->member(forwarder).id();

    net::FaultPlan plan;
    plan.crashes.push_back({forwarder, 5 * kMinute, 9 * kMinute});
    plan.downs.finalize();

    RuntimeParams params;
    params.forward_retry.max_attempts = 3;
    Cluster cluster = world.make_cluster(params);
    cluster.set_chaos(&plan);
    cluster.start();
    world.sim.run_until(5 * kMinute + 30 * kSecond);
    ASSERT_TRUE(cluster.is_crashed(forwarder));

    std::size_t insufficient = 0;
    std::size_t node_blamed = 0;
    bool forwarder_ever_blamed = false;
    for (int i = 0; i < 6; ++i) {
        cluster.send(from, key,
                     [&](const Cluster::MessageOutcome& out) {
                         if (out.insufficient_evidence) ++insufficient;
                         if (out.blamed.has_value()) {
                             ++node_blamed;
                             forwarder_ever_blamed =
                                 forwarder_ever_blamed ||
                                 *out.blamed == forwarder_id;
                         }
                     });
        world.sim.run_until(world.sim.now() + 30 * kSecond);
    }
    // Run past the restart so the recovery handshake completes.
    world.sim.run_until(15 * kMinute);

    EXPECT_GT(insufficient, 0u) << "no send was closed as insufficient";
    EXPECT_FALSE(forwarder_ever_blamed);
    EXPECT_EQ(node_blamed, 0u);
    EXPECT_TRUE(cluster.accusations_against(forwarder).empty());
    EXPECT_EQ(cluster.stats().accusations_filed, 0u);
    EXPECT_GT(cluster.stats().insufficient_verdicts, 0u);

    // The restart actually happened and announced itself.
    EXPECT_FALSE(cluster.is_crashed(forwarder));
    EXPECT_EQ(cluster.stats().crashes, 1u);
    EXPECT_EQ(cluster.stats().restarts, 1u);
    EXPECT_EQ(cluster.stats().journal_replays, 1u);
    EXPECT_GE(cluster.stats().recovery_announcements, 1u);

    // And the recovered forwarder carries traffic again.
    std::size_t delivered_after = 0;
    for (int i = 0; i < 5; ++i) {
        cluster.send(from, key,
                     [&](const Cluster::MessageOutcome& out) {
                         if (out.delivered) ++delivered_after;
                     });
        world.sim.run_until(world.sim.now() + 30 * kSecond);
    }
    world.sim.run_until(world.sim.now() + 2 * kMinute);
    EXPECT_GT(delivered_after, 0u);
}

TEST(ClusterRecovery, JournaledEpochSurvivesRestartWithoutEquivocating) {
    RecoveryWorld world;
    const MemberIndex victim = 7;

    net::FaultPlan plan;
    plan.crashes.push_back({victim, 6 * kMinute, 8 * kMinute});
    plan.downs.finalize();

    Cluster cluster = world.make_cluster();
    cluster.set_chaos(&plan);
    cluster.start();
    // The crash erases the victim's archive; the restart refills it.
    world.sim.run_until(6 * kMinute - 1);
    EXPECT_GT(cluster.archive(victim).size(), 0u);
    world.sim.run_until(6 * kMinute);
    ASSERT_TRUE(cluster.is_crashed(victim));
    EXPECT_EQ(cluster.archive(victim).size(), 0u);
    // Long enough for several snapshot publications on both sides of the
    // crash/restart cycle.
    world.sim.run_until(20 * kMinute);
    EXPECT_GT(cluster.archive(victim).size(), 0u);

    // The journal checkpointed epochs beyond the initial one, and the
    // restarted node resumed above them.
    const auto& recovered = cluster.journal(victim).state();
    EXPECT_GT(recovered.next_epoch, 1u);
    EXPECT_EQ(recovered.incarnations, 1u);
    EXPECT_EQ(cluster.stats().restarts, 1u);

    // The decisive part: peers hold the victim's pre-crash snapshots, so a
    // node restarting from epoch 1 would be rejected by every archive's
    // replay floor (and look like an equivocator).  With the journal the
    // epoch stream stays strictly increasing: zero epoch rejections, zero
    // equivocation proofs, and the peers accepted the recovery repairs.
    EXPECT_EQ(cluster.stats().snapshots_rejected_epoch, 0u);
    EXPECT_EQ(cluster.stats().equivocation_proofs_filed, 0u);
    EXPECT_GT(cluster.stats().recovery_repairs_accepted, 0u);
    EXPECT_GT(cluster.stats().snapshots_published, 0u);
}

TEST(ClusterRecovery, PartitionBlocksCrossCutTrafficThenHealsAndDelivers) {
    RecoveryWorld world;
    const auto picked = long_route(*world.overlay, 3);
    ASSERT_TRUE(picked.has_value());
    const auto [from, key] = *picked;
    const auto hops = world.overlay->route(from, key);

    // Isolate the route's second forwarder on its own side of the cut for
    // two minutes: messages die on the segment into it, acks die coming
    // back out of it.
    net::FaultPlan plan;
    net::PartitionEvent ev;
    ev.start = 5 * kMinute;
    ev.heal = 7 * kMinute;
    ev.side.assign(world.overlay->size(), 0);
    ev.side[hops[2]] = 1;
    plan.partitions.push_back(std::move(ev));
    plan.downs.finalize();

    Cluster cluster = world.make_cluster();
    cluster.set_chaos(&plan);
    cluster.start();
    world.sim.run_until(5 * kMinute + 10 * kSecond);

    std::size_t delivered_during = 0;
    std::size_t node_blamed = 0;
    for (int i = 0; i < 3; ++i) {
        cluster.send(from, key,
                     [&](const Cluster::MessageOutcome& out) {
                         if (out.delivered) ++delivered_during;
                         if (out.blamed.has_value()) ++node_blamed;
                     });
        world.sim.run_until(world.sim.now() + 30 * kSecond);
    }
    EXPECT_EQ(delivered_during, 0u) << "the cut leaked a message";
    EXPECT_GT(cluster.stats().partition_blocked_packets, 0u);

    // Heal, then give the post-heal anti-entropy a moment to resync.
    world.sim.run_until(9 * kMinute);
    EXPECT_EQ(cluster.stats().partition_activations, 1u);
    EXPECT_EQ(cluster.stats().partition_heals, 1u);
    EXPECT_GT(cluster.stats().resync_rounds, 0u);

    std::size_t delivered_after = 0;
    for (int i = 0; i < 5; ++i) {
        cluster.send(from, key,
                     [&](const Cluster::MessageOutcome& out) {
                         if (out.delivered) ++delivered_after;
                         if (out.blamed.has_value()) ++node_blamed;
                     });
        world.sim.run_until(world.sim.now() + 30 * kSecond);
    }
    world.sim.run_until(world.sim.now() + 2 * kMinute);

    // Post-heal convergence: the cluster delivers again, and at no point
    // did an IP-invisible cut turn into a node accusation.
    EXPECT_GT(delivered_after, 0u);
    EXPECT_EQ(node_blamed, 0u);
    EXPECT_EQ(cluster.stats().accusations_filed, 0u);
}

// A churn window that ends inside a crash must not revive the node: a
// rejoin leaves a crashed node down, wiped state and all, and only
// the restart brings it back.
TEST(ClusterRecovery, ChurnRejoinDuringACrashLeavesTheNodeDown) {
    RecoveryWorld world;
    const MemberIndex node = 5;
    net::FaultPlan plan;
    plan.churn.push_back({node, 30 * kSecond, 120 * kSecond});
    plan.crashes.push_back({node, 60 * kSecond, 300 * kSecond});
    plan.downs.finalize();

    Cluster cluster = world.make_cluster();
    cluster.set_chaos(&plan);
    cluster.start();
    world.sim.run_until(150 * kSecond);
    EXPECT_EQ(cluster.stats().churn_rejoins, 1u);
    EXPECT_TRUE(cluster.is_crashed(node));
    EXPECT_FALSE(cluster.is_online(node));

    world.sim.run_until(310 * kSecond);
    EXPECT_EQ(cluster.stats().restarts, 1u);
    EXPECT_FALSE(cluster.is_crashed(node));
    EXPECT_TRUE(cluster.is_online(node));
}

// Degraded mode must not become an amnesty: a live malicious dropper
// leaves post-incident probe coverage on its links (its peers keep
// answering), so the coverage test passes and the conviction stands even
// while crash faults elsewhere hold the cluster in degraded mode.
TEST(ClusterRecovery, DegradedModeStillConvictsALiveDropper) {
    RecoveryWorld world;
    const auto picked = long_route(*world.overlay, 4);
    ASSERT_TRUE(picked.has_value()) << "no 4-hop route in small world";
    const auto [from, key] = *picked;
    const auto hops = world.overlay->route(from, key);
    const MemberIndex dropper = hops[2];
    const util::NodeId dropper_id = world.overlay->member(dropper).id();

    // A crash far away (an unrelated node, late enough not to overlap the
    // sends) keeps has_recovery_faults() -- and with it degraded mode --
    // active for every judgment below.
    MemberIndex bystander = 0;
    while (bystander == dropper ||
           std::find(hops.begin(), hops.end(), bystander) != hops.end()) {
        ++bystander;
    }
    net::FaultPlan plan;
    plan.crashes.push_back({bystander, 30 * kMinute, 32 * kMinute});
    plan.downs.finalize();

    std::vector<NodeBehavior> behaviors(world.overlay->size());
    behaviors[dropper].drop_forward_probability = 1.0;
    Cluster cluster = world.make_cluster(RuntimeParams{}, behaviors);
    cluster.set_chaos(&plan);
    cluster.start();
    world.sim.run_until(3 * kMinute);

    int blamed_dropper = 0;
    for (int i = 0; i < 8; ++i) {
        cluster.send(from, key,
                     [&](const Cluster::MessageOutcome& out) {
                         EXPECT_FALSE(out.delivered);
                         if (out.blamed == dropper_id) ++blamed_dropper;
                     });
        world.sim.run_until(world.sim.now() + 30 * kSecond);
    }
    world.sim.run_until(world.sim.now() + 2 * kMinute);

    EXPECT_GE(blamed_dropper, 7);
    EXPECT_FALSE(cluster.accusations_against(dropper).empty());
    EXPECT_GT(cluster.stats().guilty_verdicts, 0u);
}

}  // namespace
}  // namespace concilium::runtime
