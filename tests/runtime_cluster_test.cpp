// End-to-end tests of the event-driven protocol runtime.

#include "runtime/cluster.h"

#include <gtest/gtest.h>

#include "net/topology_gen.h"
#include "util/metrics.h"

namespace concilium::runtime {
namespace {

using overlay::MemberIndex;

/// A deterministic world: small topology, 50-node overlay, and an initially
/// empty failure timeline (tests add failures where needed).
struct RuntimeWorld {
    explicit RuntimeWorld(std::uint64_t seed = 5, std::size_t nodes = 50)
        : rng(seed), topology(net::generate_topology(alter(net::small_params()), rng)),
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

    /// Finds (sender, key) whose route passes through `via` as an interior
    /// hop, with route length >= min_len.
    std::optional<std::pair<MemberIndex, util::NodeId>> route_through(
        MemberIndex via, std::size_t min_len = 3, std::size_t min_pos = 1) {
        util::Rng search(99);
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
            if (hops.size() < min_len) continue;
            for (std::size_t i = min_pos; i + 1 < hops.size(); ++i) {
                if (hops[i] == via) return std::make_pair(from, key);
            }
        }
        return std::nullopt;
    }

    util::Rng rng;
    net::Topology topology;
    crypto::CertificateAuthority ca;
    std::optional<overlay::OverlayNetwork> overlay;
    std::optional<tomography::OverlayTrees> trees;
    net::FailureTimeline timeline;
    net::EventSim sim;
};

TEST(Cluster, HealthyWorldDeliversEverything) {
    RuntimeWorld world;
    Cluster cluster = world.make_cluster();
    cluster.start();
    world.sim.run_until(3 * util::kMinute);  // let probing warm up

    int delivered = 0;
    util::Rng pick(7);
    for (int i = 0; i < 25; ++i) {
        const auto from = static_cast<MemberIndex>(
            pick.uniform_index(world.overlay->size()));
        cluster.send(from, util::NodeId::random(pick),
                     [&](const Cluster::MessageOutcome& out) {
                         if (out.delivered) ++delivered;
                     });
        world.sim.run_until(world.sim.now() + 5 * util::kSecond);
    }
    world.sim.run_until(world.sim.now() + 2 * util::kMinute);

    EXPECT_EQ(delivered, 25);
    EXPECT_EQ(cluster.stats().delivered, 25u);
    EXPECT_EQ(cluster.stats().accusations_filed, 0u);
    EXPECT_EQ(cluster.stats().guilty_verdicts, 0u);
    EXPECT_GT(cluster.stats().snapshots_published, 0u);
    EXPECT_EQ(cluster.stats().snapshots_rejected, 0u);
    EXPECT_GT(cluster.stats().commitments_issued, 0u);
}

TEST(Cluster, DropperIsConvictedAndAccused) {
    RuntimeWorld world;
    // Find a route of length >= 4 and place the dropper two hops
    // downstream, so revisions must climb the chain.
    util::Rng search(31);
    std::vector<MemberIndex> hops;
    MemberIndex from = 0;
    util::NodeId key;
    for (int attempt = 0; attempt < 20000 && hops.size() < 4; ++attempt) {
        from = static_cast<MemberIndex>(
            search.uniform_index(world.overlay->size()));
        key = util::NodeId::random(search);
        try {
            hops = world.overlay->route(from, key);
        } catch (const std::exception&) {
            hops.clear();
        }
    }
    ASSERT_GE(hops.size(), 4u) << "no 4-hop route in small world";
    const MemberIndex dropper = hops[2];
    const auto route = std::make_optional(std::make_pair(from, key));

    std::vector<NodeBehavior> behaviors(world.overlay->size());
    behaviors[dropper].drop_forward_probability = 1.0;
    Cluster cluster = world.make_cluster(RuntimeParams{}, behaviors);
    cluster.start();
    world.sim.run_until(3 * util::kMinute);

    std::vector<Cluster::MessageOutcome> outcomes;
    for (int i = 0; i < 8; ++i) {
        cluster.send(route->first, route->second,
                     [&](const Cluster::MessageOutcome& out) {
                         outcomes.push_back(out);
                     });
        world.sim.run_until(world.sim.now() + 30 * util::kSecond);
    }
    world.sim.run_until(world.sim.now() + 2 * util::kMinute);

    ASSERT_EQ(outcomes.size(), 8u);
    const auto& dropper_id = world.overlay->member(dropper).id();
    int blamed_dropper = 0;
    for (const auto& out : outcomes) {
        EXPECT_FALSE(out.delivered);
        if (out.blamed == dropper_id) ++blamed_dropper;
    }
    // With a clean network and real probes the chain is deterministic.
    EXPECT_GE(blamed_dropper, 7);

    // Formal accusations landed in the DHT and verify for third parties.
    const auto accusations = cluster.accusations_against(dropper);
    ASSERT_FALSE(accusations.empty());
    for (const auto& acc : accusations) {
        EXPECT_EQ(cluster.verify(acc), core::AccusationCheck::kOk)
            << core::to_string(cluster.verify(acc));
        EXPECT_EQ(acc.accused(), dropper_id);
    }
    EXPECT_GT(cluster.stats().dropped_by_forwarder, 0u);
    EXPECT_GT(cluster.stats().revisions_pushed, 0u);
}

TEST(Cluster, UpstreamForwardersAreExonerated) {
    RuntimeWorld world;
    util::Rng search(47);
    std::vector<MemberIndex> hops;
    MemberIndex from = 0;
    util::NodeId key;
    for (int attempt = 0; attempt < 20000 && hops.size() < 4; ++attempt) {
        from = static_cast<MemberIndex>(
            search.uniform_index(world.overlay->size()));
        key = util::NodeId::random(search);
        try {
            hops = world.overlay->route(from, key);
        } catch (const std::exception&) {
            hops.clear();
        }
    }
    ASSERT_GE(hops.size(), 4u);
    const MemberIndex dropper = hops[hops.size() - 2];
    const auto route = std::make_optional(std::make_pair(from, key));

    std::vector<NodeBehavior> behaviors(world.overlay->size());
    behaviors[dropper].drop_forward_probability = 1.0;
    Cluster cluster = world.make_cluster(RuntimeParams{}, behaviors);
    cluster.start();
    world.sim.run_until(3 * util::kMinute);

    for (int i = 0; i < 8; ++i) {
        cluster.send(route->first, route->second);
        world.sim.run_until(world.sim.now() + 30 * util::kSecond);
    }
    world.sim.run_until(world.sim.now() + 2 * util::kMinute);

    // No formal accusation should target any *other* member.
    for (MemberIndex m = 0; m < world.overlay->size(); ++m) {
        if (m == dropper) continue;
        EXPECT_TRUE(cluster.accusations_against(m).empty())
            << "innocent member " << m << " was accused";
    }
}

TEST(Cluster, NetworkFaultIsBlamedOnNetwork) {
    RuntimeWorld world;
    // Kill the first IP segment of some route permanently.
    util::Rng pick(3);
    const auto from = static_cast<MemberIndex>(
        pick.uniform_index(world.overlay->size()));
    const util::NodeId key = util::NodeId::random(pick);
    const auto hops = world.overlay->route(from, key);
    if (hops.size() < 3) GTEST_SKIP() << "route too short";
    for (const net::LinkId l :
         world.trees->path_links(hops[0], hops[1])) {
        // Fail just the last-mile link of the segment (edge-biased, like the
        // paper's failure model); probes elsewhere stay healthy.
        world.timeline.add_down(
            l, net::DownInterval{0, 2 * util::kHour});
        break;
    }
    world.timeline.finalize();

    Cluster cluster = world.make_cluster();
    cluster.start();
    world.sim.run_until(5 * util::kMinute);  // heavyweight probing kicks in

    std::optional<Cluster::MessageOutcome> outcome;
    cluster.send(from, key, [&](const Cluster::MessageOutcome& out) {
        outcome = out;
    });
    world.sim.run_until(world.sim.now() + 3 * util::kMinute);

    ASSERT_TRUE(outcome.has_value());
    EXPECT_FALSE(outcome->delivered);
    EXPECT_TRUE(outcome->network_blamed)
        << "blamed node instead: "
        << (outcome->blamed ? outcome->blamed->short_hex() : "none");
    EXPECT_EQ(cluster.stats().accusations_filed, 0u);
    EXPECT_GT(cluster.stats().heavyweight_sessions, 0u);
}

TEST(Cluster, RevisionRefusalShiftsBlameToRefuser) {
    RuntimeWorld world;
    // Find a route of length >= 5 so an interior refuser sits upstream of
    // the dropper.
    util::Rng search(11);
    std::vector<MemberIndex> hops;
    MemberIndex from = 0;
    util::NodeId key;
    for (int attempt = 0; attempt < 20000 && hops.size() < 5; ++attempt) {
        from = static_cast<MemberIndex>(
            search.uniform_index(world.overlay->size()));
        key = util::NodeId::random(search);
        try {
            hops = world.overlay->route(from, key);
        } catch (const std::exception&) {
            hops.clear();
        }
    }
    if (hops.size() < 5) GTEST_SKIP() << "no 5-hop route in small world";

    const MemberIndex refuser = hops[2];
    const MemberIndex dropper = hops[3];
    std::vector<NodeBehavior> behaviors(world.overlay->size());
    behaviors[refuser].refuse_revisions = true;
    behaviors[dropper].drop_forward_probability = 1.0;
    Cluster cluster = world.make_cluster(RuntimeParams{}, behaviors);
    cluster.start();
    world.sim.run_until(3 * util::kMinute);

    std::optional<Cluster::MessageOutcome> outcome;
    cluster.send(from, key, [&](const Cluster::MessageOutcome& out) {
        outcome = out;
    });
    world.sim.run_until(world.sim.now() + 3 * util::kMinute);

    ASSERT_TRUE(outcome.has_value());
    ASSERT_TRUE(outcome->blamed.has_value());
    // The refuser withheld the verdict that would have exonerated it, so
    // blame sticks with it ("They do so at their own peril").
    EXPECT_EQ(*outcome->blamed, world.overlay->member(refuser).id());
}

TEST(Cluster, CommitmentRefusalDrawsReputationVotes) {
    RuntimeWorld world;
    const MemberIndex refuser = 17;
    const auto route = world.route_through(refuser);
    ASSERT_TRUE(route.has_value());

    std::vector<NodeBehavior> behaviors(world.overlay->size());
    behaviors[refuser].refuse_commitments = true;
    behaviors[refuser].drop_forward_probability = 1.0;
    Cluster cluster = world.make_cluster(RuntimeParams{}, behaviors);
    cluster.start();
    world.sim.run_until(2 * util::kMinute);

    for (int i = 0; i < 8; ++i) {
        cluster.send(route->first, route->second);
        world.sim.run_until(world.sim.now() + 30 * util::kSecond);
    }
    world.sim.run_until(world.sim.now() + 2 * util::kMinute);

    // Votes of no confidence accumulate (Section 3.6)...
    EXPECT_GT(cluster.stats().commitments_refused, 0u);
    EXPECT_GT(cluster.reputation().votes_against(
                  world.overlay->member(refuser).id()),
              0);
    // ...and every accusation that did get filed verifies (a chain can
    // legitimately stop upstream of the refuser, but it must never be
    // forged).
    for (MemberIndex m = 0; m < world.overlay->size(); ++m) {
        for (const auto& acc : cluster.accusations_against(m)) {
            EXPECT_EQ(cluster.verify(acc), core::AccusationCheck::kOk);
        }
    }
}

TEST(Cluster, FlippedReportsCannotExonerateTheFlipper) {
    RuntimeWorld world;
    const MemberIndex villain = 9;
    const auto route = world.route_through(villain);
    ASSERT_TRUE(route.has_value());

    std::vector<NodeBehavior> behaviors(world.overlay->size());
    behaviors[villain].drop_forward_probability = 1.0;
    behaviors[villain].flip_probe_reports = true;  // claims its links down
    Cluster cluster = world.make_cluster(RuntimeParams{}, behaviors);
    cluster.start();
    world.sim.run_until(3 * util::kMinute);

    std::vector<Cluster::MessageOutcome> outcomes;
    for (int i = 0; i < 8; ++i) {
        cluster.send(route->first, route->second,
                     [&](const Cluster::MessageOutcome& out) {
                         outcomes.push_back(out);
                     });
        world.sim.run_until(world.sim.now() + 30 * util::kSecond);
    }
    world.sim.run_until(world.sim.now() + 2 * util::kMinute);

    // The flipper's own snapshots are excluded when it is judged, so its
    // "my links were down" lie cannot save it.
    int blamed_villain = 0;
    for (const auto& out : outcomes) {
        if (out.blamed == world.overlay->member(villain).id()) {
            ++blamed_villain;
        }
    }
    EXPECT_GE(blamed_villain, 6);
}

TEST(Cluster, DeterministicGivenSeed) {
    auto run = [](std::uint64_t seed) {
        RuntimeWorld world(seed);
        Cluster cluster = world.make_cluster();
        cluster.start();
        world.sim.run_until(2 * util::kMinute);
        util::Rng pick(1);
        for (int i = 0; i < 5; ++i) {
            cluster.send(static_cast<MemberIndex>(
                             pick.uniform_index(world.overlay->size())),
                         util::NodeId::random(pick));
        }
        world.sim.run_until(world.sim.now() + util::kMinute);
        return cluster.stats();
    };
    const auto a = run(42);
    const auto b = run(42);
    EXPECT_EQ(a.snapshots_published, b.snapshots_published);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.lightweight_rounds, b.lightweight_rounds);
}

TEST(Cluster, ProbeSuppressorDoesNotPoisonSnapshots) {
    // A leaf that suppresses probe acknowledgments looks dead; Section 3.3's
    // feedback verification must exclude it so reporters neither mark its
    // last mile down nor let it corrupt shared-link inference.
    RuntimeWorld world;
    const MemberIndex suppressor = 5;
    std::vector<NodeBehavior> behaviors(world.overlay->size());
    behaviors[suppressor].suppress_probe_acks = 1.0;
    RuntimeParams params;
    params.heavyweight_min_gap = 30 * util::kSecond;
    Cluster cluster = world.make_cluster(params, behaviors);
    cluster.start();
    world.sim.run_until(10 * util::kMinute);

    // The suppressor's access link (its only link).
    const auto ip = world.overlay->member(suppressor).ip();
    ASSERT_EQ(world.topology.degree(ip), 1u);
    const net::LinkId access = world.topology.neighbors(ip)[0].link;

    // Inspect what the suppressor's routing peers have archived about it.
    int down_votes = 0;
    int up_votes = 0;
    for (const auto peer : world.overlay->routing_peers(suppressor)) {
        const std::vector<net::LinkId> links{access};
        const auto probes = cluster.archive(peer).probes_for(
            links, 9 * util::kMinute, 10 * util::kMinute,
            util::NodeId::from_hex("ff"));
        for (const auto& p : probes) {
            // The suppressor's own (self-serving) snapshots do not count.
            if (p.reporter == world.overlay->member(suppressor).id()) {
                continue;
            }
            (p.link_up ? up_votes : down_votes)++;
        }
    }
    // The link is actually healthy (no failures in this world); honest
    // reporters must not have convicted it just because its host is mute.
    EXPECT_EQ(down_votes, 0)
        << "suppressor's healthy last mile was reported down";
}

TEST(Cluster, FabricatedAcksCannotFakeALiveLink) {
    // A node behind a dead last mile fabricates acknowledgments for probes
    // it never received (Section 3.3).  Without the nonce defence, honest
    // reporters would publish "link up" for a dead link; with it, the
    // fabricator is excluded and the dead link is either reported down or
    // not reported at all -- never up.
    RuntimeWorld world;
    const MemberIndex fabricator = 11;
    const auto ip = world.overlay->member(fabricator).ip();
    ASSERT_EQ(world.topology.degree(ip), 1u);
    const net::LinkId access = world.topology.neighbors(ip)[0].link;
    world.timeline.add_down(access, net::DownInterval{0, 2 * util::kHour});
    world.timeline.finalize();

    std::vector<NodeBehavior> behaviors(world.overlay->size());
    behaviors[fabricator].fabricate_probe_acks = true;
    RuntimeParams params;
    params.heavyweight_min_gap = 30 * util::kSecond;
    Cluster cluster = world.make_cluster(params, behaviors);
    cluster.start();
    world.sim.run_until(10 * util::kMinute);

    int up_votes = 0;
    for (const auto peer : world.overlay->routing_peers(fabricator)) {
        const std::vector<net::LinkId> links{access};
        const auto probes = cluster.archive(peer).probes_for(
            links, 9 * util::kMinute, 10 * util::kMinute,
            world.overlay->member(fabricator).id());
        for (const auto& p : probes) {
            if (p.link_up) ++up_votes;
        }
    }
    EXPECT_EQ(up_votes, 0) << "fabricated acks revived a dead link";
}

TEST(Cluster, SendToSelfDeliversImmediately) {
    RuntimeWorld world;
    Cluster cluster = world.make_cluster();
    cluster.start();
    world.sim.run_until(util::kMinute);
    bool delivered = false;
    // Route to one's own identifier has length 1.
    cluster.send(3, world.overlay->member(3).id(),
                 [&](const Cluster::MessageOutcome& out) {
                     delivered = out.delivered;
                 });
    world.sim.run_until(world.sim.now() + util::kSecond);
    EXPECT_TRUE(delivered);
}

TEST(Cluster, StatsAccumulateAcrossWorkload) {
    RuntimeWorld world;
    Cluster cluster = world.make_cluster();
    cluster.start();
    world.sim.run_until(5 * util::kMinute);
    const auto rounds = cluster.stats().lightweight_rounds;
    // ~50 nodes probing with mean period 60 s for 5 minutes.
    EXPECT_GT(rounds, 150u);
    EXPECT_LT(rounds, 800u);
    EXPECT_GE(cluster.stats().snapshots_published, rounds);
}

// Snapshot gossip checks each seal's signature once: a seal delivered to k
// peers costs one verification (a cache miss) and k - 1 reads of the
// verdict the seal keeps (cache hits).  An equivocator's twin is one more
// seal per publication, shared by all of its odd-ranked peers.
TEST(Cluster, EachSealIsVerifiedOnceAcrossItsPeers) {
    RuntimeWorld world(5, 30);
    MemberIndex equivocator = 0;
    while (world.overlay->routing_peers(equivocator).size() < 3) {
        ++equivocator;
    }
    std::vector<NodeBehavior> behaviors(world.overlay->size());
    behaviors[equivocator].equivocate_snapshots = true;
    auto& registry = util::metrics::Registry::global();
    auto& hits = registry.counter("crypto.verify.cache_hit");
    auto& misses = registry.counter("crypto.verify.cache_miss");
    const std::int64_t hits_before = hits.value();
    const std::int64_t misses_before = misses.value();

    Cluster cluster = world.make_cluster({}, behaviors);
    cluster.start();
    world.sim.run_until(10 * util::kMinute);
    // Silence every member, then let the copies in flight land: offline
    // members publish nothing but still receive.
    for (MemberIndex m = 0; m < world.overlay->size(); ++m) {
        cluster.set_online(m, false);
    }
    world.sim.run_until(world.sim.now() + util::kMinute);

    std::uint64_t published = 0;
    std::uint64_t peer_copies_beyond_first = 0;
    for (MemberIndex m = 0; m < world.overlay->size(); ++m) {
        // Epochs count publications from 1.
        const std::uint64_t epochs =
            cluster.journal(m).state().next_epoch - 1;
        const std::size_t k = world.overlay->routing_peers(m).size();
        ASSERT_GE(k, 1u);
        published += epochs;
        peer_copies_beyond_first += epochs * (k - 1);
    }
    const std::uint64_t twins = cluster.stats().equivocations_published;
    ASSERT_GT(twins, 0u);
    EXPECT_EQ(published, cluster.stats().snapshots_published);
    EXPECT_EQ(cluster.stats().snapshots_rejected, 0u);
    EXPECT_EQ(static_cast<std::uint64_t>(misses.value() - misses_before),
              published + twins);
    // The equivocator's peers split between two seals, one miss each.
    EXPECT_EQ(static_cast<std::uint64_t>(hits.value() - hits_before),
              peer_copies_beyond_first - twins);
}

TEST(Cluster, OfflineNodeIsBlamedLikeADropperAndRecovers) {
    // Our churn extension: a node that goes offline stops forwarding and
    // answering probes.  To the protocol it is a total dropper -- its
    // upstream neighbour convicts it -- and service resumes when it
    // returns.
    RuntimeWorld world;
    util::Rng search(53);
    std::vector<MemberIndex> hops;
    MemberIndex from = 0;
    util::NodeId key;
    for (int attempt = 0; attempt < 20000 && hops.size() < 3; ++attempt) {
        from = static_cast<MemberIndex>(
            search.uniform_index(world.overlay->size()));
        key = util::NodeId::random(search);
        try {
            hops = world.overlay->route(from, key);
        } catch (const std::exception&) {
            hops.clear();
        }
    }
    ASSERT_GE(hops.size(), 3u);
    const MemberIndex victim = hops[1];

    Cluster cluster = world.make_cluster();
    cluster.start();
    world.sim.run_until(3 * util::kMinute);

    // Phase 1: victim offline -> every message through it dies and the
    // diagnosis lands on the victim.
    cluster.set_online(victim, false);
    EXPECT_FALSE(cluster.is_online(victim));
    world.sim.run_until(world.sim.now() + 2 * util::kMinute);
    int blamed_victim = 0;
    int delivered = 0;
    for (int i = 0; i < 4; ++i) {
        cluster.send(from, key,
                     [&](const Cluster::MessageOutcome& out) {
                         if (out.delivered) ++delivered;
                         if (out.blamed ==
                             world.overlay->member(victim).id()) {
                             ++blamed_victim;
                         }
                     });
        world.sim.run_until(world.sim.now() + 30 * util::kSecond);
    }
    world.sim.run_until(world.sim.now() + util::kMinute);
    EXPECT_EQ(delivered, 0);
    EXPECT_GE(blamed_victim, 3);

    // Phase 2: victim returns; deliveries resume.
    cluster.set_online(victim, true);
    world.sim.run_until(world.sim.now() + 3 * util::kMinute);
    for (int i = 0; i < 4; ++i) {
        cluster.send(from, key,
                     [&](const Cluster::MessageOutcome& out) {
                         if (out.delivered) ++delivered;
                     });
        world.sim.run_until(world.sim.now() + 30 * util::kSecond);
    }
    world.sim.run_until(world.sim.now() + util::kMinute);
    EXPECT_EQ(delivered, 4);
}

TEST(Cluster, OfflineDestinationBlamedNotTheForwarders) {
    // When the *destination* is down, stewards' tomography shows clean
    // paths, so the guilty chain runs through every forwarder and sticks at
    // the silent destination -- not at an innocent intermediate.
    RuntimeWorld world;
    util::Rng search(59);
    std::vector<MemberIndex> hops;
    MemberIndex from = 0;
    util::NodeId key;
    for (int attempt = 0; attempt < 20000 && hops.size() < 3; ++attempt) {
        from = static_cast<MemberIndex>(
            search.uniform_index(world.overlay->size()));
        key = util::NodeId::random(search);
        try {
            hops = world.overlay->route(from, key);
        } catch (const std::exception&) {
            hops.clear();
        }
    }
    ASSERT_GE(hops.size(), 3u);
    const MemberIndex destination = hops.back();

    Cluster cluster = world.make_cluster();
    cluster.start();
    world.sim.run_until(3 * util::kMinute);
    cluster.set_online(destination, false);
    world.sim.run_until(world.sim.now() + 2 * util::kMinute);

    std::optional<Cluster::MessageOutcome> outcome;
    cluster.send(from, key, [&](const Cluster::MessageOutcome& out) {
        outcome = out;
    });
    world.sim.run_until(world.sim.now() + 2 * util::kMinute);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_FALSE(outcome->delivered);
    if (outcome->blamed.has_value()) {
        EXPECT_EQ(*outcome->blamed,
                  world.overlay->member(destination).id());
    }
}

TEST(Cluster, RoutingStateExchangeAcceptsHonestAdvertisements) {
    RuntimeWorld world;
    RuntimeParams params;
    params.validation.gamma = 2.5;  // density is noisy in a 50-node overlay
    Cluster cluster = world.make_cluster(params);
    cluster.start();
    EXPECT_GT(cluster.stats().advertisements_accepted, 0u);
    // Honest advertisements overwhelmingly pass; a rare density-variance
    // straggler is tolerated.
    EXPECT_LT(cluster.stats().advertisements_rejected,
              cluster.stats().advertisements_accepted / 10 + 2);
}

TEST(Cluster, SuppressedAdvertisementIsRejectedByPeers) {
    RuntimeWorld world;
    const MemberIndex attacker = 7;
    std::vector<NodeBehavior> behaviors(world.overlay->size());
    behaviors[attacker].advertised_table_fraction = 0.3;
    RuntimeParams params;
    params.validation.gamma = 2.5;
    Cluster cluster = world.make_cluster(params, behaviors);
    cluster.start();
    // Every online peer of the attacker flags the sparse table.
    const auto& rejecters = cluster.advertisement_rejecters(attacker);
    EXPECT_GE(rejecters.size(),
              world.overlay->routing_peers(attacker).size() / 2);
    // And nobody (or nearly nobody) flags honest members.
    std::size_t honest_rejections = 0;
    for (MemberIndex m = 0; m < world.overlay->size(); ++m) {
        if (m == attacker) continue;
        honest_rejections += cluster.advertisement_rejecters(m).size();
    }
    EXPECT_LT(honest_rejections, cluster.stats().advertisements_accepted / 10 + 2);
}

TEST(Cluster, BehaviorSizeMismatchRejected) {
    RuntimeWorld world;
    EXPECT_THROW(world.make_cluster(RuntimeParams{},
                                    std::vector<NodeBehavior>(3)),
                 std::invalid_argument);
}

}  // namespace
}  // namespace concilium::runtime
