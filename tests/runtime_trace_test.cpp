// Tests for the diagnosis journal: a Cluster with an attached
// DiagnosisTrace records the full blame derivation for every diagnosed
// message, and the ring buffer evicts oldest-first.

#include "core/trace.h"

#include <gtest/gtest.h>

#include "net/topology_gen.h"
#include "runtime/cluster.h"

namespace concilium::runtime {
namespace {

using overlay::MemberIndex;

/// Same deterministic world the cluster tests use: small topology,
/// 50-node overlay, clean failure timeline.
struct TraceWorld {
    explicit TraceWorld(std::uint64_t seed = 5, std::size_t nodes = 50)
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

    util::Rng rng;
    net::Topology topology;
    crypto::CertificateAuthority ca;
    std::optional<overlay::OverlayNetwork> overlay;
    std::optional<tomography::OverlayTrees> trees;
    net::FailureTimeline timeline;
    net::EventSim sim;
};

TEST(DiagnosisTrace, JournalNamesTheGuiltyForwarder) {
    TraceWorld world;
    // Same route search as Cluster.DropperIsConvictedAndAccused: a route of
    // length >= 4 with the dropper two hops downstream, so the journal must
    // capture a revision chain, not just the sender's own judgment.
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

    std::vector<NodeBehavior> behaviors(world.overlay->size());
    behaviors[dropper].drop_forward_probability = 1.0;
    Cluster cluster(world.sim, world.timeline, *world.overlay, *world.trees,
                    RuntimeParams{}, behaviors, world.rng.fork());
    core::DiagnosisTrace trace;
    cluster.set_trace(&trace);
    cluster.start();
    world.sim.run_until(3 * util::kMinute);

    for (int i = 0; i < 8; ++i) {
        cluster.send(from, key);
        world.sim.run_until(world.sim.now() + 30 * util::kSecond);
    }
    world.sim.run_until(world.sim.now() + 2 * util::kMinute);

    const auto records = trace.records();
    ASSERT_EQ(records.size(), 8u);
    EXPECT_EQ(trace.total_recorded(), 8u);

    const auto& dropper_id = world.overlay->member(dropper).id();
    int named_dropper = 0;
    for (const auto& rec : records) {
        EXPECT_GE(rec.completed_at, rec.sent_at);
        // The forwarder chain is the route, sender first.
        ASSERT_EQ(rec.forwarder_chain.size(), hops.size());
        EXPECT_EQ(rec.forwarder_chain.front(),
                  world.overlay->member(from).id());
        if (rec.verdict == core::DiagnosisRecord::Verdict::kNodeBlamed &&
            rec.blamed == dropper_id) {
            ++named_dropper;
            // The judgment that convicted the dropper must carry the
            // Equation 2-3 evidence it was derived from.
            bool found = false;
            for (const auto& j : rec.judgments) {
                if (j.suspect != dropper_id || !j.guilty) continue;
                found = true;
                EXPECT_GT(j.breakdown.blame, 0.0);
                EXPECT_FALSE(j.breakdown.links.empty());
                EXPECT_FALSE(j.path_links.empty());
                // The dropper sits downstream of the sender, so its
                // conviction arrived as a revision.
                EXPECT_TRUE(j.revision);
            }
            EXPECT_TRUE(found);
        }
    }
    // Matches the conviction rate the cluster test asserts.
    EXPECT_GE(named_dropper, 7);

    // The JSON dump round-trips the verdict and the guilty node.
    const std::string json = trace.to_json();
    EXPECT_NE(json.find("\"verdict\": \"node\""), std::string::npos);
    EXPECT_NE(json.find(dropper_id.to_hex()), std::string::npos);
}

TEST(DiagnosisTrace, RingBufferEvictsOldestFirst) {
    core::DiagnosisTrace trace(3);
    for (std::uint64_t i = 0; i < 5; ++i) {
        core::DiagnosisRecord rec;
        rec.message_id = i;
        trace.record(std::move(rec));
    }
    EXPECT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.total_recorded(), 5u);
    const auto records = trace.records();
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records.front().message_id, 2u);
    EXPECT_EQ(records.back().message_id, 4u);
    trace.clear();
    EXPECT_EQ(trace.size(), 0u);
    EXPECT_EQ(trace.total_recorded(), 5u);
}

TEST(DiagnosisTrace, ZeroCapacityIsRejected) {
    EXPECT_THROW(core::DiagnosisTrace(0), std::invalid_argument);
}

TEST(DiagnosisTrace, EmptyJournalSerializes) {
    const core::DiagnosisTrace trace;
    EXPECT_EQ(trace.records_json(), "[]");
    EXPECT_EQ(trace.to_json(), "{\"total_recorded\": 0, \"records\": []}\n");
}

}  // namespace
}  // namespace concilium::runtime
