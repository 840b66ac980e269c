// End-to-end tests of the Byzantine campaign roles against the
// evidence-integrity defenses.  These are the headline guarantees of the
// attack layer: a node that lies in signed snapshots is caught by a
// self-verifying proof and never evades accusation for its drops, while an
// honest node a slanderer targets is never credibly blacklisted.

#include <gtest/gtest.h>

#include "net/chaos.h"
#include "net/topology_gen.h"
#include "runtime/cluster.h"
#include "util/metrics.h"

namespace concilium::runtime {
namespace {

using overlay::MemberIndex;

/// Deliveries so far whose equivocation check fell through to the peer scan.
std::int64_t equivocation_scans() {
    return util::metrics::Registry::global()
        .counter("defense.equivocation_scans")
        .value();
}

/// The RuntimeWorld of runtime_cluster_test: small topology, 50-node
/// overlay, empty failure timeline.
struct AttackWorld {
    explicit AttackWorld(std::uint64_t seed = 5, std::size_t nodes = 50)
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

    /// A (sender, key) pair whose route has length >= 4; the returned hops
    /// let callers place an attacker at a chosen interior position.
    std::tuple<MemberIndex, util::NodeId, std::vector<MemberIndex>>
    long_route(std::uint64_t search_seed) {
        util::Rng search(search_seed);
        for (int attempt = 0; attempt < 20000; ++attempt) {
            const auto from = static_cast<MemberIndex>(
                search.uniform_index(overlay->size()));
            const util::NodeId key = util::NodeId::random(search);
            std::vector<MemberIndex> hops;
            try {
                hops = overlay->route(from, key);
            } catch (const std::exception&) {
                continue;
            }
            if (hops.size() >= 4) return {from, key, hops};
        }
        ADD_FAILURE() << "no 4-hop route in small world";
        return {0, util::NodeId{}, {}};
    }

    util::Rng rng;
    net::Topology topology;
    crypto::CertificateAuthority ca;
    std::optional<overlay::OverlayNetwork> overlay;
    std::optional<tomography::OverlayTrees> trees;
    net::FailureTimeline timeline;
    net::EventSim sim;
};

/// Headline: an equivocating node is caught with a self-verifying proof --
/// its contradictory same-epoch signatures convict it to any third party --
/// and it never evades diagnosis for the messages it drops.  Only its twins
/// send deliveries to the peer scan; an honest world never scans at all.
TEST(ClusterAttack, EquivocatorIsCaughtWithSelfVerifyingProof) {
    {
        // All honest, over a lossy control plane: some copies arrive only
        // on retry, but every copy of an epoch carries the same digest.
        AttackWorld world;
        const util::SimTime duration = 20 * util::kMinute;
        util::Rng plan_rng(77);
        const net::FaultPlan plan = net::build_fault_plan(
            net::FaultSpec::parse("flap:0.05,loss:0.05,churn:0.01"),
            duration, world.trees->member_peer_paths(), world.overlay->size(),
            plan_rng);
        Cluster cluster = world.make_cluster();
        cluster.set_chaos(&plan);
        const std::int64_t scans_before = equivocation_scans();
        cluster.start();
        world.sim.run_until(duration);
        EXPECT_GT(cluster.stats().snapshot_retries, 0u);
        EXPECT_EQ(equivocation_scans(), scans_before);
        EXPECT_EQ(cluster.stats().equivocation_proofs_filed, 0u);
    }

    AttackWorld world;
    const auto [from, key, hops] = world.long_route(31);
    ASSERT_GE(hops.size(), 4u);
    const MemberIndex attacker = hops[2];

    std::vector<NodeBehavior> behaviors(world.overlay->size());
    behaviors[attacker].equivocate_snapshots = true;
    behaviors[attacker].drop_forward_probability = 1.0;
    Cluster cluster = world.make_cluster(RuntimeParams{}, behaviors);
    const std::int64_t scans_before = equivocation_scans();
    cluster.start();
    world.sim.run_until(3 * util::kMinute);

    std::vector<Cluster::MessageOutcome> outcomes;
    for (int i = 0; i < 8; ++i) {
        cluster.send(from, key, [&](const Cluster::MessageOutcome& out) {
            outcomes.push_back(out);
        });
        world.sim.run_until(world.sim.now() + 30 * util::kSecond);
    }
    world.sim.run_until(world.sim.now() + 2 * util::kMinute);

    // The attacker equivocated, and honest peers cross-checked the
    // conflicting signatures into a proof stored under its key.
    EXPECT_GT(cluster.stats().equivocations_published, 0u);
    EXPECT_GT(equivocation_scans(), scans_before);
    ASSERT_GT(cluster.stats().equivocation_proofs_filed, 0u);
    const auto proofs = cluster.equivocation_proofs_against(attacker);
    ASSERT_FALSE(proofs.empty());
    for (const auto& proof : proofs) {
        EXPECT_EQ(cluster.verify(proof, attacker),
                  core::EquivocationCheck::kOk)
            << core::to_string(cluster.verify(proof, attacker));
    }

    // And the lying snapshots bought it nothing: every drop was still
    // diagnosed against it.
    ASSERT_EQ(outcomes.size(), 8u);
    const auto& attacker_id = world.overlay->member(attacker).id();
    int blamed = 0;
    for (const auto& out : outcomes) {
        EXPECT_FALSE(out.delivered);
        if (out.blamed == attacker_id) ++blamed;
    }
    EXPECT_GE(blamed, 7);
    // No proof ever implicates anyone else.
    for (MemberIndex m = 0; m < world.overlay->size(); ++m) {
        if (m == attacker) continue;
        EXPECT_TRUE(cluster.equivocation_proofs_against(m).empty())
            << "honest member " << m << " has an equivocation proof on file";
    }
}

/// Headline: a replaying node's stale snapshots are rejected at every
/// archive (the signed epoch regressed), so it never evades accusation for
/// its drops.
TEST(ClusterAttack, ReplayerNeverEvadesAccusation) {
    AttackWorld world;
    const auto [from, key, hops] = world.long_route(47);
    ASSERT_GE(hops.size(), 4u);
    const MemberIndex attacker = hops[2];

    std::vector<NodeBehavior> behaviors(world.overlay->size());
    behaviors[attacker].replay_snapshots = true;
    behaviors[attacker].drop_forward_probability = 1.0;
    Cluster cluster = world.make_cluster(RuntimeParams{}, behaviors);
    cluster.start();
    world.sim.run_until(3 * util::kMinute);

    std::vector<Cluster::MessageOutcome> outcomes;
    for (int i = 0; i < 8; ++i) {
        cluster.send(from, key, [&](const Cluster::MessageOutcome& out) {
            outcomes.push_back(out);
        });
        world.sim.run_until(world.sim.now() + 30 * util::kSecond);
    }
    world.sim.run_until(world.sim.now() + 2 * util::kMinute);

    // The replays happened and the archives threw them out.
    EXPECT_GT(cluster.stats().replays_published, 0u);
    EXPECT_GT(cluster.stats().snapshots_rejected_epoch +
                  cluster.stats().snapshots_rejected_stale,
              0u);

    ASSERT_EQ(outcomes.size(), 8u);
    const auto& attacker_id = world.overlay->member(attacker).id();
    int blamed = 0;
    for (const auto& out : outcomes) {
        EXPECT_FALSE(out.delivered);
        if (out.blamed == attacker_id) ++blamed;
    }
    EXPECT_GE(blamed, 7);

    // Formal accusations landed in the DHT and verify for third parties.
    const auto accusations = cluster.accusations_against(attacker);
    ASSERT_FALSE(accusations.empty());
    bool verified = false;
    for (const auto& acc : accusations) {
        if (cluster.verify(acc) == core::AccusationCheck::kOk) {
            verified = true;
        }
    }
    EXPECT_TRUE(verified);
}

/// Headline: a slanderer's forged accusations against honest nodes never
/// verify for a third party, so no honest node is ever blacklisted.
TEST(ClusterAttack, SlanderedHonestNodeIsNeverBlacklisted) {
    AttackWorld world;
    std::vector<NodeBehavior> behaviors(world.overlay->size());
    behaviors[7].slander = true;
    behaviors[23].slander = true;
    Cluster cluster = world.make_cluster(RuntimeParams{}, behaviors);
    cluster.start();
    world.sim.run_until(3 * util::kMinute);

    util::Rng pick(9);
    for (int i = 0; i < 10; ++i) {
        const auto from = static_cast<MemberIndex>(
            pick.uniform_index(world.overlay->size()));
        cluster.send(from, util::NodeId::random(pick));
        world.sim.run_until(world.sim.now() + 30 * util::kSecond);
    }
    world.sim.run_until(world.sim.now() + 2 * util::kMinute);

    // The slanderers were active...
    ASSERT_GT(cluster.stats().slanders_filed, 0u);
    // ...but in an all-honest-forwarding world, nothing they filed (and
    // nothing anyone filed) verifies against anybody: a third party running
    // the sanction policy never blacklists an honest node.
    for (MemberIndex m = 0; m < world.overlay->size(); ++m) {
        for (const auto& acc : cluster.accusations_against(m)) {
            EXPECT_NE(cluster.verify(acc), core::AccusationCheck::kOk)
                << "slander against member " << m << " verified";
        }
    }
}

/// A verdict colluder that drops and then pushes a fabricated revision
/// blaming its next hop: the sender re-verifies pushed revisions, rejects
/// the fabrication, and blame stays on the colluder.
TEST(ClusterAttack, ColluderFabricatedRevisionIsRejected) {
    AttackWorld world;
    const auto [from, key, hops] = world.long_route(63);
    ASSERT_GE(hops.size(), 4u);
    const MemberIndex attacker = hops[1];
    const MemberIndex framed = hops[2];

    std::vector<NodeBehavior> behaviors(world.overlay->size());
    behaviors[attacker].collude_revisions = true;
    behaviors[attacker].drop_forward_probability = 1.0;
    Cluster cluster = world.make_cluster(RuntimeParams{}, behaviors);
    cluster.start();
    world.sim.run_until(3 * util::kMinute);

    std::vector<Cluster::MessageOutcome> outcomes;
    for (int i = 0; i < 8; ++i) {
        cluster.send(from, key, [&](const Cluster::MessageOutcome& out) {
            outcomes.push_back(out);
        });
        world.sim.run_until(world.sim.now() + 30 * util::kSecond);
    }
    world.sim.run_until(world.sim.now() + 2 * util::kMinute);

    // Fabricated revisions were pushed and every one was rejected on
    // re-verification.
    EXPECT_GT(cluster.stats().collusions_pushed, 0u);
    EXPECT_GT(cluster.stats().revisions_rejected, 0u);

    // Blame never moved to the framed next hop.
    const auto& attacker_id = world.overlay->member(attacker).id();
    const auto& framed_id = world.overlay->member(framed).id();
    int blamed_attacker = 0;
    for (const auto& out : outcomes) {
        EXPECT_NE(out.blamed, framed_id);
        if (out.blamed == attacker_id) ++blamed_attacker;
    }
    EXPECT_GE(blamed_attacker, 7);
    EXPECT_TRUE(cluster.accusations_against(framed).empty());
}

/// An accusation spammer floods a victim's DHT key with junk: the
/// per-writer quota contains the flood, readers skip the malformed values,
/// and a genuine accusation filed under the same key still verifies.
TEST(ClusterAttack, SpamCannotDrownRealAccusations) {
    AttackWorld world;
    const auto [from, key, hops] = world.long_route(31);
    ASSERT_GE(hops.size(), 4u);
    const MemberIndex dropper = hops[2];

    std::vector<NodeBehavior> behaviors(world.overlay->size());
    behaviors[dropper].drop_forward_probability = 1.0;
    // Every routing peer of the dropper spams, so the dropper's own
    // accusation key is among the flooded ones.
    for (const MemberIndex peer : world.overlay->routing_peers(dropper)) {
        behaviors[peer].spam_accusations = true;
    }
    // A tight quota: the spammers round-robin over their whole peer set, so
    // each (writer, key) pair sees only a handful of junk values in a short
    // test run.
    RuntimeParams params;
    params.dht_per_writer_quota = 2;
    Cluster cluster = world.make_cluster(params, behaviors);
    cluster.start();
    world.sim.run_until(3 * util::kMinute);

    for (int i = 0; i < 8; ++i) {
        cluster.send(from, key);
        world.sim.run_until(world.sim.now() + 30 * util::kSecond);
    }
    world.sim.run_until(world.sim.now() + 5 * util::kMinute);

    // The flood ran into the per-writer quota.
    EXPECT_GT(cluster.stats().spam_puts, 0u);
    EXPECT_GT(cluster.stats().dht_puts_rejected, 0u);

    // The genuine accusation still surfaces from the flooded key and
    // verifies; the junk values were skipped, not fatal.
    const auto accusations = cluster.accusations_against(dropper);
    ASSERT_FALSE(accusations.empty());
    bool verified = false;
    for (const auto& acc : accusations) {
        if (cluster.verify(acc) == core::AccusationCheck::kOk) {
            verified = true;
        }
    }
    EXPECT_TRUE(verified);
}

}  // namespace
}  // namespace concilium::runtime
