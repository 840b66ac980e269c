// Golden seams for the memory-layout, event-API and runtime-split
// refactors.
//
// The memory-architecture refactors (flat storage, interned digests, the
// flat probe tree and bit-packed probe sessions, the CSR oracle and the
// chunked parallel tree build, shared archives and the digest record that
// gates the equivocation scan, member-indexed ring archives), the move of
// every runtime event onto EventSim's POD queue and of that queue from a
// calendar wheel to one (time, sequence) heap, the one-event snapshot
// fan-out with its per-seal signature verdict, and
// the split of runtime::Cluster into five state-owning parts (a crash now
// being each part forgetting its own node state) must be
// behaviour-preserving: routes, overlay trees, verdicts, generated
// topologies, probing results, whole cluster runs, lossless and lossy, and
// filed equivocation proofs are required to come out byte-identical before
// and after.
// These checksums were captured against the pre-refactor implementations;
// any divergence means the refactor changed observable behaviour, not just
// layout.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/accusation.h"
#include "core/equivocation.h"
#include "core/trace.h"
#include "core/verdicts.h"
#include "crypto/certificates.h"
#include "net/chaos.h"
#include "net/event_sim.h"
#include "net/link_state.h"
#include "net/paths.h"
#include "net/topology_gen.h"
#include "net/transport.h"
#include "overlay/network.h"
#include "runtime/attack.h"
#include "runtime/cluster.h"
#include "tomography/inference.h"
#include "tomography/overlay_trees.h"
#include "tomography/probing.h"
#include "tomography/snapshot.h"
#include "tomography/verification.h"
#include "util/arena.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/time.h"

namespace concilium {
namespace {

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
    return h;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

TEST(GoldenRefactor, PathOracleRoutesAreByteIdentical) {
    util::Rng rng(7);
    const auto topo = net::generate_topology(net::small_params(), rng);
    ASSERT_EQ(topo.router_count(), 204u);
    ASSERT_EQ(topo.link_count(), 241u);

    const net::PathOracle oracle(topo);
    std::vector<net::RouterId> dsts;
    for (net::RouterId r = 0; r < topo.router_count(); r += 17) {
        dsts.push_back(r);
    }
    std::uint64_t h = kFnvOffset;
    util::Arena arena;
    for (net::RouterId src = 0; src < topo.router_count(); src += 41) {
        const auto paths = oracle.paths_into(src, dsts, arena);
        for (const auto& p : paths) {
            h = fnv(h, p.routers.size());
            for (const auto r : p.routers) h = fnv(h, r);
            for (const auto l : p.links) h = fnv(h, l);
        }
    }
    EXPECT_EQ(h, 0xe41f4298f8a83b96ULL);
}

TEST(GoldenRefactor, OverlayTreesAreByteIdentical) {
    // 600 members on the medium preset: ten build chunks and enough BFS
    // visits for two workers, so on a multi-core machine the chunks are
    // built concurrently and concatenated in order.
    util::Rng rng(21);
    const auto topo = net::generate_topology(net::medium_params(), rng);
    crypto::CertificateAuthority ca(22);
    const auto net = overlay::build_overlay_from_hosts(
        topo.end_hosts(), 600, ca, rng);
    ASSERT_GE(net.size() * topo.router_count(), 8'000'000u);
    const tomography::OverlayTrees trees(net, topo);
    ASSERT_EQ(trees.size(), net.size());

    std::uint64_t h = kFnvOffset;
    const auto mix = [&h](const auto& values) {
        h = fnv(h, values.size());
        for (const auto v : values) h = fnv(h, static_cast<std::uint64_t>(v));
    };
    for (overlay::MemberIndex m = 0; m < trees.size(); ++m) {
        const auto& tree = trees.tree(m);
        mix(tree.parent());
        mix(tree.via());
        mix(tree.leaf_slot());
        mix(trees.leaf_members(m));
        for (const util::NodeId& id : trees.leaf_ids(m)) mix(id.bytes());
        for (const overlay::MemberIndex p : net.routing_peers(m)) {
            const auto slot = trees.leaf_slot(m, p);
            h = fnv(h, slot.has_value() ? static_cast<std::uint64_t>(*slot)
                                        : ~std::uint64_t{0});
        }
        for (std::size_t s = 0; s < tree.leaves().size(); ++s) {
            mix(trees.slot_path_links(m, static_cast<int>(s)));
        }
    }
    for (const auto& path : trees.member_peer_paths()) {
        mix(path.routers);
        mix(path.links);
    }
    h = fnv(h, trees.path_bytes());
    EXPECT_EQ(h, 0x7b817d5ea55290d9ULL);
}

TEST(GoldenRefactor, VerdictOutcomesAreByteIdentical) {
    core::VerdictLedger ledger{core::VerdictParams{}};
    util::Rng rng(1234);
    std::uint64_t h = kFnvOffset;
    for (int i = 0; i < 5000; ++i) {
        const auto suspect =
            util::NodeId::hash_of(std::string(1, static_cast<char>('a' + i % 23)));
        const auto out = ledger.record(suspect, rng.uniform(),
                                       i * util::kSecond);
        h = fnv(h, static_cast<std::uint64_t>(out.guilty));
        h = fnv(h, static_cast<std::uint64_t>(out.guilty_in_window));
        h = fnv(h, static_cast<std::uint64_t>(out.accusation_triggered));
    }
    for (int k = 0; k < 23; ++k) {
        const auto suspect =
            util::NodeId::hash_of(std::string(1, static_cast<char>('a' + k)));
        const int n = ledger.retract_guilty(suspect, 1000 * util::kSecond,
                                            3000 * util::kSecond);
        h = fnv(h, static_cast<std::uint64_t>(n));
        h = fnv(h, static_cast<std::uint64_t>(ledger.guilty_count(suspect)));
        h = fnv(h, static_cast<std::uint64_t>(ledger.verdict_count(suspect)));
    }
    for (const auto& w : ledger.export_windows()) {
        for (const auto b : w.suspect.bytes()) h = fnv(h, b);
        for (const auto& e : w.entries) {
            h = fnv(h, static_cast<std::uint64_t>(e.guilty));
            h = fnv(h, static_cast<std::uint64_t>(e.at));
        }
    }
    EXPECT_EQ(h, 0x9bce516a5f11c3a9ULL);
}

TEST(GoldenRefactor, FullScanTopologyStatsAreByteIdentical) {
    // Matches `concilium topology --full --seed 1`, which ROADMAP pins as a
    // byte-determinism acceptance gate for the refactor.
    util::Rng rng(1);
    const auto topo = net::generate_topology(net::scan_like_params(), rng);
    const auto s = net::summarize(topo);
    EXPECT_EQ(s.routers, 113302u);
    EXPECT_EQ(s.links, 172975u);
    EXPECT_EQ(s.core_routers, 600u);
    EXPECT_EQ(s.stub_routers, 75302u);
    EXPECT_EQ(s.end_hosts, 37400u);
    EXPECT_NEAR(s.link_router_ratio, 1.526672, 1e-6);
    EXPECT_NEAR(s.mean_interior_degree, 4.065110, 1e-6);
    EXPECT_TRUE(topo.connected());
}

std::uint64_t fnv_inference(std::uint64_t h,
                            const tomography::InferenceResult& r) {
    for (const double a : r.cumulative_pass) {
        h = fnv(h, std::bit_cast<std::uint64_t>(a));
    }
    for (const auto& e : r.links) {
        h = fnv(h, e.link);
        h = fnv(h, std::bit_cast<std::uint64_t>(e.loss));
        h = fnv(h, static_cast<std::uint64_t>(e.chain_length));
        h = fnv(h, static_cast<std::uint64_t>(e.observable));
    }
    return h;
}

// The probe tree both probing goldens sample: 82 leaves (multi-word rows),
// a probed branch point and a probed single-child router.  Link ids follow
// add_link order: 0 is 0-1, 1 is 1-2, 2 is 1-3, 3 is 2-4, 4 is 4-5, 5 is
// 3-6, then one link per host (6-45 under 5, 46-75 under 3, 76-85 under 6).
//
//   0 - 1 -+- 2 - 4 - 5 -< 40 hosts      (4 and 5 are also probed)
//          +- 3 -+-< 30 hosts
//                +- 6 -< 10 hosts
tomography::ProbeTree golden_probe_tree() {
    net::Topology topo;
    for (int i = 0; i < 7; ++i) topo.add_router(net::RouterTier::kCore);
    topo.add_link(0, 1);
    topo.add_link(1, 2);
    topo.add_link(1, 3);
    topo.add_link(2, 4);
    topo.add_link(4, 5);
    topo.add_link(3, 6);
    std::vector<net::RouterId> hosts;
    const auto add_hosts = [&](net::RouterId at, int count) {
        for (int i = 0; i < count; ++i) {
            hosts.push_back(topo.add_router(net::RouterTier::kEndHost));
            topo.add_link(at, hosts.back());
        }
    };
    add_hosts(5, 40);
    add_hosts(3, 30);
    add_hosts(6, 10);
    // Interleave the subtrees across leaf slots, probed routers mid-way.
    std::vector<net::RouterId> dsts;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
        dsts.push_back(hosts[(i * 37) % hosts.size()]);
        if (i == 20) dsts.push_back(5);
        if (i == 50) dsts.push_back(4);
    }
    const net::PathOracle oracle(topo);
    util::Arena arena;
    return tomography::ProbeTree(0, oracle.paths_into(0, dsts, arena));
}

// The probing pipeline end to end: striped sampling (RNG draw order), the
// fabricator and suppressor tests, leaf exclusion, MINC, and the snapshot
// built from it.  Every link's pass probability lies strictly inside (0, 1)
// so every link draws, and every leaf may suppress so every received leaf
// draws.
TEST(GoldenRefactor, ProbeSessionsAreByteIdentical) {
    const tomography::ProbeTree tree = golden_probe_tree();
    ASSERT_EQ(tree.leaves().size(), 82u);

    const auto pass = [](net::LinkId l, util::SimTime t) {
        const auto k = (static_cast<std::uint64_t>(l) * 7919 +
                        static_cast<std::uint64_t>(t / util::kMillisecond)) %
                       97;
        return 0.80 + 0.19 * static_cast<double>(k) / 97.0;
    };
    std::vector<tomography::LeafBehavior> behaviors(tree.leaves().size());
    for (auto& b : behaviors) b.suppress_ack_probability = 0.02;
    behaviors[3].suppress_ack_probability = 0.9;
    behaviors[70].fabricate_acks = true;

    crypto::CertificateAuthority ca(17);
    const auto origin = ca.admit(0);
    std::vector<util::NodeId> leaf_ids;
    util::Rng id_rng(19);
    for (std::size_t i = 0; i < tree.leaves().size(); ++i) {
        leaf_ids.push_back(util::NodeId::random(id_rng));
    }

    std::uint64_t h = kFnvOffset;
    for (const std::uint64_t seed : {1, 2, 3}) {
        util::Rng rng(seed);
        const util::SimTime t0 = static_cast<util::SimTime>(seed) * 7 *
                                 util::kSecond;
        const auto session = tomography::run_heavyweight_session(
            tree, pass, t0, tomography::HeavyweightParams{.probe_count = 100},
            behaviors, rng);
        h = fnv(h, static_cast<std::uint64_t>(session.finished_at));
        for (const int c : session.ack_counts) {
            h = fnv(h, static_cast<std::uint64_t>(c));
        }
        const auto fabricators = tomography::detect_fabricators(
            tree.leaves().size(), session.probes);
        const auto suppressors = tomography::detect_suppressors(
            tree, session.probes, tomography::SuppressionTestParams{});
        EXPECT_TRUE(fabricators[70]);
        EXPECT_TRUE(suppressors[3]);
        std::vector<bool> excluded(tree.leaves().size(), false);
        for (std::size_t leaf = 0; leaf < excluded.size(); ++leaf) {
            excluded[leaf] = fabricators[leaf] || suppressors[leaf];
            h = fnv(h, (fabricators[leaf] ? 1u : 0u) |
                           (suppressors[leaf] ? 2u : 0u));
        }
        h = fnv_inference(h,
                          tomography::infer_link_loss(tree, session.probes));
        const auto cleaned =
            tomography::exclude_leaves(session.probes, excluded);
        const auto inference = tomography::infer_link_loss(tree, cleaned);
        h = fnv_inference(h, inference);
        const auto snapshot = tomography::make_snapshot(
            origin.certificate.node_id, origin.keys, t0, tree, inference,
            tomography::SnapshotParams{}, leaf_ids);
        for (const std::uint8_t b : snapshot.signed_payload()) h = fnv(h, b);

        const auto light = tomography::run_lightweight_probe(
            tree, pass, t0, 2, behaviors, rng);
        for (const bool r : light.responsive) h = fnv(h, r ? 1u : 0u);
        // The stream position after the chain pins the number of draws.
        h = fnv(h, static_cast<std::uint64_t>(rng.uniform_int(0, 1'000'000)));
    }
    EXPECT_EQ(h, 0x6006a9aae9cc70e9ULL);
}

// Probe sessions through a real Transport while links change state: the
// scenario timeline and the fault plan take links down and bring them back
// in the middle of sessions (one boundary falls exactly on a stripe time),
// overlapping loss spikes give fractional pass probabilities for part of a
// session, and the last sessions see no change at all.  Leaf 3 suppresses,
// leaf 70 fabricates, every other leaf is honest.  Sessions start every
// 10 s and last 5 s (100 stripes, 50 ms apart).
TEST(GoldenRefactor, ProbeSessionsAcrossLinkStateChangesAreByteIdentical) {
    const tomography::ProbeTree tree = golden_probe_tree();
    ASSERT_EQ(tree.leaves().size(), 82u);
    constexpr util::SimTime kMs = util::kMillisecond;
    constexpr util::SimTime kS = util::kSecond;

    net::FailureTimeline timeline;
    timeline.add_down(20, {0, 2500 * kMs});  // from t = 0 to mid session 0
    timeline.add_down(1, {12500 * kMs, 13007 * kMs});  // inside session 1
    timeline.add_down(5, {21 * kS, 34300 * kMs});  // stripe 20 of session 2
    timeline.add_down(0, {44 * kS, 44500 * kMs});  // root link, stripes 80-89
    timeline.finalize();
    net::FaultPlan plan;
    plan.downs.add_down(3, {41234 * kMs, 43 * kS});
    plan.downs.add_down(3, {42500 * kMs, 44100 * kMs});  // merges with it
    plan.downs.add_down(1, {42 * kS, 48 * kS});  // past the session's end
    plan.downs.add_down(5, {30 * kS, 32 * kS});  // inside a scenario down
    plan.add_spike({/*link=*/1, 44200 * kMs, 45500 * kMs, 0.4});
    plan.add_spike({/*link=*/2, 51 * kS, 53500 * kMs, 0.5});
    plan.add_spike({/*link=*/2, 52200 * kMs, 56 * kS, 0.3});
    plan.add_spike({/*link=*/60, 50500 * kMs, 52 * kS, 0.25});
    plan.add_spike({/*link=*/70, 58 * kS, 61300 * kMs, 0.1});
    plan.finalize();
    net::Transport transport(timeline, util::Rng(6));
    transport.set_chaos(&plan);

    std::vector<tomography::LeafBehavior> behaviors(tree.leaves().size());
    behaviors[3].suppress_ack_probability = 0.9;
    behaviors[70].fabricate_acks = true;

    util::Rng rng(5);
    std::uint64_t h = kFnvOffset;
    for (int k = 0; k < 9; ++k) {
        const util::SimTime t0 = k * 10 * kS;
        const auto session = tomography::run_heavyweight_session(
            tree, transport, t0,
            tomography::HeavyweightParams{.probe_count = 100}, behaviors,
            rng);
        h = fnv(h, static_cast<std::uint64_t>(session.finished_at));
        for (const auto plane : {tomography::ProbePlane::kReceived,
                                 tomography::ProbePlane::kValidAck,
                                 tomography::ProbePlane::kFabricatedAck}) {
            for (std::size_t i = 0; i < session.probes.size(); ++i) {
                for (const std::uint64_t w : session.probes.row(plane, i)) {
                    h = fnv(h, w);
                }
            }
        }
        for (const int c : session.ack_counts) {
            h = fnv(h, static_cast<std::uint64_t>(c));
        }
        h = fnv_inference(h,
                          tomography::infer_link_loss(tree, session.probes));

        const auto light = tomography::run_lightweight_probe(
            tree, transport, t0 + 2500 * kMs, 2, behaviors, rng);
        for (const bool r : light.responsive) h = fnv(h, r ? 1u : 0u);
    }
    // The stream position after the chain pins the number of draws.
    h = fnv(h, static_cast<std::uint64_t>(rng.uniform_int(0, 1'000'000)));
    EXPECT_EQ(h, 0x6c4e8941a664c0adULL);
}

// One cluster run under every chaos kind and every attack role.  Besides
// the common paths it reaches the ones neither benchmark workload fires:
// partition heal and resync, a stewardship abandoned at restart, and
// colluders' fabricated revisions.
TEST(GoldenRefactor, ClusterRunIsByteIdentical) {
    util::Rng rng(41);
    net::TopologyParams topo_params = net::small_params();
    topo_params.end_hosts = 300;
    const auto topo = net::generate_topology(topo_params, rng);
    crypto::CertificateAuthority ca(42);
    const auto members = overlay::build_overlay_from_hosts(
        topo.end_hosts(), 40, ca, rng);
    const tomography::OverlayTrees trees(members, topo);
    net::FailureTimeline timeline;
    timeline.finalize();

    const util::SimTime duration = 40 * util::kMinute;
    util::Rng plan_rng = rng.fork();
    net::FaultPlan plan = net::build_fault_plan(
        net::FaultSpec::parse("flap:0.02,churn:0.01,dup:0.05,reorder:0.05,"
                              "ackdrop:0.05,ackdelay:0.05,crash:0.01,"
                              "partition:0.08"),
        duration, trees.member_peer_paths(), members.size(), plan_rng);
    util::Rng attack_rng = rng.fork();
    const std::vector<runtime::NodeBehavior> behaviors =
        runtime::materialize_attackers(
            runtime::AttackCampaign::parse("equivocate:0.05,replay:0.05,"
                                           "slander:0.05,spam:0.05,"
                                           "collude:0.15"),
            members.size(), attack_rng);

    // An honest sender that crashes 1 ms after sending leaves its
    // stewardship open in its journal; it restarts two minutes later, past
    // the resume horizon, and abandons the stewardship.
    const util::SimTime crash_at = 20 * util::kMinute;
    const auto clear_of_crash = [&](util::SimTime from, util::SimTime to) {
        return to < crash_at - 6 * util::kMinute ||
               from > crash_at + 6 * util::kMinute;
    };
    const auto quiet = [&](overlay::MemberIndex m) {
        for (const net::ChurnEvent& c : plan.churn) {
            if (c.node == m && !clear_of_crash(c.leave, c.rejoin)) return false;
        }
        for (const net::CrashEvent& c : plan.crashes) {
            if (c.node == m && !clear_of_crash(c.crash, c.restart)) {
                return false;
            }
        }
        return behaviors[m].drop_forward_probability == 0.0 &&
               !behaviors[m].byzantine();
    };
    overlay::MemberIndex sender = 0;
    while (sender < members.size() && !quiet(sender)) ++sender;
    ASSERT_LT(sender, members.size());
    util::Rng key_rng(43);
    util::NodeId key = util::NodeId::random(key_rng);
    while (members.route(sender, key).size() < 3) {
        key = util::NodeId::random(key_rng);
    }
    plan.crashes.push_back({sender, crash_at, crash_at + 2 * util::kMinute});

    runtime::RuntimeParams params;
    params.forward_retry.max_attempts = 3;
    core::DiagnosisTrace trace(4096);
    net::EventSim sim;
    runtime::Cluster cluster(sim, timeline, members, trees, params, behaviors,
                             rng.fork());
    cluster.set_chaos(&plan);
    cluster.set_trace(&trace);
    cluster.start();

    std::uint64_t completed = 0;
    const auto count = [&](const runtime::Cluster::MessageOutcome&) {
        ++completed;
    };
    util::Rng traffic(44);
    const auto traffic_until = [&](util::SimTime until) {
        while (sim.now() + 20 * util::kSecond <= until) {
            cluster.send(static_cast<overlay::MemberIndex>(
                             traffic.uniform_index(members.size())),
                         util::NodeId::random(traffic), count);
            sim.run_until(sim.now() + 20 * util::kSecond);
        }
        sim.run_until(until);
    };
    sim.run_until(3 * util::kMinute);
    traffic_until(crash_at - util::kMillisecond);
    cluster.send(sender, key, count);
    traffic_until(duration);
    sim.run_until(duration + 10 * util::kMinute);

    const runtime::Cluster::Stats& stats = cluster.stats();
    EXPECT_GT(stats.partition_heals, 0u);
    EXPECT_GT(stats.resync_rounds, 0u);
    EXPECT_GT(stats.stewardships_abandoned, 0u);
    EXPECT_GT(stats.collusions_pushed, 0u);

    std::uint64_t h = kFnvOffset;
    constexpr std::size_t kStatsFields =
        sizeof(runtime::Cluster::Stats) / sizeof(std::size_t);
    for (const std::size_t v :
         std::bit_cast<std::array<std::size_t, kStatsFields>>(stats)) {
        h = fnv(h, v);
    }
    for (const char c : trace.to_json()) {
        h = fnv(h, static_cast<unsigned char>(c));
    }
    for (overlay::MemberIndex m = 0; m < members.size(); ++m) {
        h = fnv(h, cluster.journal(m).fnv());
        h = fnv(h, cluster.accusations_against(m).size());
        h = fnv(h, cluster.equivocation_proofs_against(m).size());
    }
    h = fnv(h, completed);
    EXPECT_EQ(h, 0x7bfdede08cfc6d6bULL) << std::hex << h;
}

// The same attack campaign on a lossless control plane: no chaos plan, so
// every publication takes the lossless dissemination path, including the
// equivocators' twins and the replayers' stale re-advertisements.  Besides
// the run's outputs, the digest covers the bytes of every DHT value stored
// under each member's accusation and proof keys, and the signature checks
// the run paid for and saved.
TEST(GoldenRefactor, LosslessGossipIsByteIdentical) {
    util::Rng rng(61);
    net::TopologyParams topo_params = net::small_params();
    topo_params.end_hosts = 300;
    const auto topo = net::generate_topology(topo_params, rng);
    crypto::CertificateAuthority ca(62);
    const auto members = overlay::build_overlay_from_hosts(
        topo.end_hosts(), 40, ca, rng);
    const tomography::OverlayTrees trees(members, topo);
    net::FailureTimeline timeline;
    timeline.finalize();

    util::Rng attack_rng = rng.fork();
    const std::vector<runtime::NodeBehavior> behaviors =
        runtime::materialize_attackers(
            runtime::AttackCampaign::parse("equivocate:0.05,replay:0.05,"
                                           "slander:0.05,spam:0.05,"
                                           "collude:0.15"),
            members.size(), attack_rng);

    auto& registry = util::metrics::Registry::global();
    auto& cache_hit = registry.counter("crypto.verify.cache_hit");
    auto& cache_miss = registry.counter("crypto.verify.cache_miss");
    const std::int64_t hits_before = cache_hit.value();
    const std::int64_t misses_before = cache_miss.value();

    core::DiagnosisTrace trace(4096);
    net::EventSim sim;
    runtime::Cluster cluster(sim, timeline, members, trees,
                             runtime::RuntimeParams{}, behaviors, rng.fork());
    cluster.set_trace(&trace);
    cluster.start();

    std::uint64_t completed = 0;
    util::Rng traffic(64);
    const util::SimTime duration = 30 * util::kMinute;
    sim.run_until(3 * util::kMinute);
    while (sim.now() + 20 * util::kSecond <= duration) {
        cluster.send(static_cast<overlay::MemberIndex>(
                         traffic.uniform_index(members.size())),
                     util::NodeId::random(traffic),
                     [&](const runtime::Cluster::MessageOutcome&) {
                         ++completed;
                     });
        sim.run_until(sim.now() + 20 * util::kSecond);
    }
    sim.run_until(duration + 5 * util::kMinute);

    const runtime::Cluster::Stats& stats = cluster.stats();
    EXPECT_GT(stats.equivocation_proofs_filed, 0u);
    EXPECT_GT(stats.snapshots_rejected_stale, 0u);
    EXPECT_GT(stats.slanders_filed, 0u);
    EXPECT_GT(stats.collusions_pushed, 0u);

    std::uint64_t h = kFnvOffset;
    constexpr std::size_t kStatsFields =
        sizeof(runtime::Cluster::Stats) / sizeof(std::size_t);
    for (const std::size_t v :
         std::bit_cast<std::array<std::size_t, kStatsFields>>(stats)) {
        h = fnv(h, v);
    }
    for (const char c : trace.to_json()) {
        h = fnv(h, static_cast<unsigned char>(c));
    }
    for (overlay::MemberIndex m = 0; m < members.size(); ++m) {
        h = fnv(h, cluster.journal(m).fnv());
        const crypto::PublicKey& key = members.member(m).keys.public_key();
        for (const util::NodeId& dht_key :
             {core::FaultAccusation::dht_key(key),
              core::EquivocationProof::dht_key(key)}) {
            const auto result =
                cluster.repository().get((m + 1) % members.size(), dht_key);
            h = fnv(h, result.values.size());
            for (const auto& value : result.values) {
                for (const std::uint8_t byte : value) h = fnv(h, byte);
            }
        }
    }
    h = fnv(h, static_cast<std::uint64_t>(cache_hit.value() - hits_before));
    h = fnv(h,
            static_cast<std::uint64_t>(cache_miss.value() - misses_before));
    h = fnv(h, completed);
    EXPECT_EQ(h, 0x3e6607fa682350f0ULL) << std::hex << h;
}

// Pins the equivocation defense: which proofs get filed, by which peer and
// over which pair of twins.  Two equivocators in a 40-member world whose
// control plane is lossy, so some twins reach a peer only through a
// snapshot retry.  The digest covers the bytes of every DHT value stored
// under each member's equivocation-proof key.
TEST(GoldenRefactor, EquivocationProofsAreByteIdentical) {
    util::Rng rng(51);
    net::TopologyParams topo_params = net::small_params();
    topo_params.end_hosts = 300;
    const auto topo = net::generate_topology(topo_params, rng);
    crypto::CertificateAuthority ca(52);
    const auto members = overlay::build_overlay_from_hosts(
        topo.end_hosts(), 40, ca, rng);
    const tomography::OverlayTrees trees(members, topo);
    net::FailureTimeline timeline;
    timeline.finalize();

    const util::SimTime duration = 30 * util::kMinute;
    util::Rng plan_rng = rng.fork();
    const net::FaultPlan plan = net::build_fault_plan(
        net::FaultSpec::parse("flap:0.05,loss:0.05,corr:0.02"), duration,
        trees.member_peer_paths(), members.size(), plan_rng);
    std::vector<runtime::NodeBehavior> behaviors(members.size());
    behaviors[7].equivocate_snapshots = true;
    behaviors[23].equivocate_snapshots = true;

    net::EventSim sim;
    runtime::Cluster cluster(sim, timeline, members, trees,
                             runtime::RuntimeParams{}, behaviors, rng.fork());
    cluster.set_chaos(&plan);
    cluster.start();
    sim.run_until(duration);

    const runtime::Cluster::Stats& stats = cluster.stats();
    EXPECT_GT(stats.snapshot_retries, 0u);
    EXPECT_GT(stats.equivocation_proofs_filed, 0u);

    std::uint64_t h = kFnvOffset;
    std::size_t values = 0;
    for (overlay::MemberIndex m = 0; m < members.size(); ++m) {
        const auto key = core::EquivocationProof::dht_key(
            members.member(m).keys.public_key());
        const auto result =
            cluster.repository().get((m + 1) % members.size(), key);
        h = fnv(h, result.values.size());
        for (const auto& value : result.values) {
            ++values;
            for (const std::uint8_t byte : value) h = fnv(h, byte);
        }
    }
    EXPECT_GT(values, 0u);
    EXPECT_EQ(h, 0x85d758a2a13e6fdaULL) << std::hex << h;
}

}  // namespace
}  // namespace concilium
