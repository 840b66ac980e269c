#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <initializer_list>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/paths.h"
#include "net/topology.h"
#include "net/topology_gen.h"
#include "util/arena.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace concilium::net {
namespace {

TEST(Topology, AddRoutersAndLinks) {
    Topology topo;
    const RouterId a = topo.add_router(RouterTier::kCore);
    const RouterId b = topo.add_router(RouterTier::kStub);
    const LinkId l = topo.add_link(a, b);
    EXPECT_EQ(topo.router_count(), 2u);
    EXPECT_EQ(topo.link_count(), 1u);
    EXPECT_EQ(topo.degree(a), 1u);
    EXPECT_EQ(topo.link(l).other(a), b);
    EXPECT_EQ(topo.link(l).other(b), a);
    EXPECT_EQ(topo.find_link(a, b), l);
    EXPECT_EQ(topo.find_link(b, a), l);
}

TEST(Topology, RejectsSelfLoopsAndDuplicates) {
    Topology topo;
    const RouterId a = topo.add_router(RouterTier::kCore);
    const RouterId b = topo.add_router(RouterTier::kCore);
    topo.add_link(a, b);
    EXPECT_THROW(topo.add_link(a, a), std::invalid_argument);
    EXPECT_THROW(topo.add_link(a, b), std::invalid_argument);
    EXPECT_THROW(topo.add_link(b, a), std::invalid_argument);
    EXPECT_THROW(topo.add_link(a, 99), std::invalid_argument);
}

TEST(Topology, EndHostsAreDegreeOne) {
    Topology topo;
    const RouterId core = topo.add_router(RouterTier::kCore);
    const RouterId stub = topo.add_router(RouterTier::kStub);
    const RouterId host = topo.add_router(RouterTier::kEndHost);
    topo.add_link(core, stub);
    topo.add_link(stub, host);
    const auto hosts = topo.end_hosts();
    ASSERT_EQ(hosts.size(), 2u);  // core also has degree 1 here
    EXPECT_EQ(hosts[0], core);
    EXPECT_EQ(hosts[1], host);
}

TEST(Topology, ConnectivityCheck) {
    Topology topo;
    const RouterId a = topo.add_router(RouterTier::kCore);
    const RouterId b = topo.add_router(RouterTier::kCore);
    const RouterId c = topo.add_router(RouterTier::kCore);
    topo.add_link(a, b);
    EXPECT_FALSE(topo.connected());
    topo.add_link(b, c);
    EXPECT_TRUE(topo.connected());
}

TEST(TopologyGen, SmallPresetIsConnectedWithRequestedHosts) {
    util::Rng rng(1);
    const TopologyParams params = small_params();
    const Topology topo = generate_topology(params, rng);
    EXPECT_TRUE(topo.connected());
    const TopologyStats stats = summarize(topo);
    EXPECT_EQ(stats.end_hosts, static_cast<std::size_t>(params.end_hosts));
    EXPECT_GT(stats.core_routers, 0u);
    EXPECT_GT(stats.stub_routers, 0u);
}

TEST(TopologyGen, EndHostsAreAllDegreeOne) {
    util::Rng rng(2);
    const Topology topo = generate_topology(small_params(), rng);
    for (RouterId r = 0; r < topo.router_count(); ++r) {
        if (topo.tier(r) == RouterTier::kEndHost) {
            EXPECT_EQ(topo.degree(r), 1u);
        }
    }
}

TEST(TopologyGen, DeterministicGivenSeed) {
    util::Rng rng1(7);
    util::Rng rng2(7);
    const Topology a = generate_topology(small_params(), rng1);
    const Topology b = generate_topology(small_params(), rng2);
    ASSERT_EQ(a.router_count(), b.router_count());
    ASSERT_EQ(a.link_count(), b.link_count());
    for (LinkId l = 0; l < a.link_count(); ++l) {
        EXPECT_EQ(a.link(l).a, b.link(l).a);
        EXPECT_EQ(a.link(l).b, b.link(l).b);
    }
}

TEST(TopologyGen, MediumPresetMatchesScanShape) {
    util::Rng rng(3);
    const Topology topo = generate_topology(medium_params(), rng);
    EXPECT_TRUE(topo.connected());
    const TopologyStats stats = summarize(topo);
    // SCAN's structural signature: link/router ratio ~1.61, end hosts a
    // ~30% minority (Section 4.2 derives 37.7k of 113k).
    EXPECT_NEAR(stats.link_router_ratio, 1.61, 0.25);
    const double host_fraction = static_cast<double>(stats.end_hosts) /
                                 static_cast<double>(stats.routers);
    EXPECT_NEAR(host_fraction, 0.33, 0.08);
}

TEST(TopologyGen, RejectsDegenerateParams) {
    util::Rng rng(4);
    TopologyParams p = small_params();
    p.transit_domains = 0;
    EXPECT_THROW(generate_topology(p, rng), std::invalid_argument);
}

/// One destination through the batch API.
PathView route(const PathOracle& oracle, RouterId src, RouterId dst,
               util::Arena& arena) {
    return oracle.paths_into(src, {&dst, 1}, arena).front();
}

/// The plain BFS the oracle must reproduce: a deque over the topology's own
/// adjacency lists, every router expanded.  Returns each router's link to
/// its parent (kInvalidLink at src and at unreached routers).
std::vector<LinkId> reference_via(const Topology& topo, RouterId src) {
    std::vector<RouterId> parent(topo.router_count(), kInvalidRouter);
    std::vector<LinkId> via(topo.router_count(), kInvalidLink);
    parent[src] = src;
    std::deque<RouterId> queue{src};
    while (!queue.empty()) {
        const RouterId r = queue.front();
        queue.pop_front();
        for (const Topology::Edge& e : topo.neighbors(r)) {
            if (parent[e.neighbor] != kInvalidRouter) continue;
            parent[e.neighbor] = r;
            via[e.neighbor] = e.link;
            queue.push_back(e.neighbor);
        }
    }
    return via;
}

TEST(PathOracle, FindsShortestPath) {
    // Line: 0 - 1 - 2 - 3 plus shortcut 0 - 3.
    Topology topo;
    for (int i = 0; i < 4; ++i) topo.add_router(RouterTier::kCore);
    topo.add_link(0, 1);
    topo.add_link(1, 2);
    topo.add_link(2, 3);
    const LinkId shortcut = topo.add_link(0, 3);

    const PathOracle oracle(topo);
    util::Arena arena;
    const PathView p = route(oracle, 0, 3, arena);
    ASSERT_EQ(p.hops(), 1u);
    EXPECT_EQ(p.links[0], shortcut);
    EXPECT_EQ(p.routers.front(), 0u);
    EXPECT_EQ(p.routers.back(), 3u);
}

TEST(PathOracle, PathInvariants) {
    util::Rng rng(5);
    const Topology topo = generate_topology(small_params(), rng);
    const PathOracle oracle(topo);
    const auto hosts = topo.end_hosts();
    ASSERT_GE(hosts.size(), 2u);
    util::Arena arena;
    const PathView p = route(oracle, hosts[0], hosts[1], arena);
    ASSERT_FALSE(p.empty());
    EXPECT_EQ(p.routers.size(), p.links.size() + 1);
    for (std::size_t i = 0; i < p.links.size(); ++i) {
        const Link& l = topo.link(p.links[i]);
        EXPECT_EQ(l.other(p.routers[i]), p.routers[i + 1]);
    }
}

TEST(PathOracle, SelfPathIsEmpty) {
    Topology topo;
    topo.add_router(RouterTier::kCore);
    const PathOracle oracle(topo);
    util::Arena arena;
    EXPECT_TRUE(route(oracle, 0, 0, arena).empty());
    EXPECT_EQ(arena.bytes_used(), 0u);
}

TEST(PathOracle, UnreachableYieldsEmpty) {
    Topology topo;
    topo.add_router(RouterTier::kCore);
    topo.add_router(RouterTier::kCore);
    const PathOracle oracle(topo);
    util::Arena arena;
    EXPECT_TRUE(route(oracle, 0, 1, arena).empty());
}

TEST(PathOracle, PathsIntoMatchesSinglePathQueries) {
    util::Rng rng(6);
    const Topology topo = generate_topology(small_params(), rng);
    const PathOracle oracle(topo);
    const auto hosts = topo.end_hosts();
    ASSERT_GE(hosts.size(), 5u);
    const std::vector<RouterId> dsts(hosts.begin() + 1, hosts.begin() + 5);
    util::Arena arena;
    const auto batch = oracle.paths_into(hosts[0], dsts, arena);
    ASSERT_EQ(batch.size(), 4u);
    for (std::size_t i = 0; i < dsts.size(); ++i) {
        const PathView single = route(oracle, hosts[0], dsts[i], arena);
        EXPECT_TRUE(std::ranges::equal(batch[i].routers, single.routers));
        EXPECT_TRUE(std::ranges::equal(batch[i].links, single.links));
    }
}

/// Counts the (source, destination) pairs whose path differs from the
/// plain BFS's and reports the first, with every source taken in the order
/// given.  A path must be empty exactly when the reference has no via link
/// or the destination is the source; otherwise it runs from src to dst and
/// each of its links is the reference's link into the router it enters,
/// from that router's reference parent.  With `sweep`, every source goes
/// through it; without, through the 3-argument overload.
std::size_t mismatches_in_order(const Topology& topo,
                                const PathOracle& oracle,
                                std::span<const RouterId> srcs,
                                std::span<const RouterId> dsts,
                                PathOracle::Sweep* sweep) {
    std::size_t mismatches = 0;
    util::Arena arena;
    for (const RouterId src : srcs) {
        const auto via = reference_via(topo, src);
        const auto views = sweep != nullptr
                               ? oracle.paths_into(src, dsts, arena, *sweep)
                               : oracle.paths_into(src, dsts, arena);
        if (views.size() != dsts.size()) {
            ADD_FAILURE() << "source " << src << ": " << views.size()
                          << " paths for " << dsts.size() << " destinations";
            return mismatches + 1;
        }
        for (std::size_t i = 0; i < dsts.size(); ++i) {
            const PathView& p = views[i];
            const RouterId dst = dsts[i];
            bool ok = dst == src || via[dst] == kInvalidLink
                          ? p.routers.empty() && p.links.empty()
                          : p.routers.size() == p.links.size() + 1 &&
                                p.routers.front() == src &&
                                p.routers.back() == dst;
            for (std::size_t hop = 0; ok && hop < p.links.size(); ++hop) {
                const RouterId child = p.routers[hop + 1];
                ok = p.links[hop] == via[child] &&
                     topo.link(via[child]).other(child) == p.routers[hop];
            }
            if (!ok && mismatches++ == 0) {
                ADD_FAILURE() << "path " << src << " -> " << dst << " has "
                              << p.hops() << " hops and differs from the "
                              << "plain BFS's";
            }
        }
        arena.reset();
    }
    return mismatches;
}

/// mismatches_in_order over five runs of the sources: one call each
/// without a Sweep, then one shared Sweep per run with the sources in the
/// order given, in ascending id order, grouped by entry router (entry(),
/// then id, so sources with one entry share its core sweep) and in
/// descending id order.
std::size_t reference_mismatches(const Topology& topo,
                                 const PathOracle& oracle,
                                 std::span<const RouterId> srcs,
                                 std::span<const RouterId> dsts) {
    std::vector<RouterId> ascending(srcs.begin(), srcs.end());
    std::ranges::sort(ascending);
    std::vector<RouterId> by_entry = ascending;
    std::ranges::stable_sort(
        by_entry, {}, [&](RouterId r) { return oracle.entry(r); });
    std::vector<RouterId> descending(ascending.rbegin(), ascending.rend());
    const std::pair<const char*, std::span<const RouterId>> runs[] = {
        {"given order, one Sweep", srcs},
        {"ascending ids, one Sweep", ascending},
        {"grouped by entry router, one Sweep", by_entry},
        {"descending ids, one Sweep", descending},
    };
    std::size_t mismatches = 0;
    {
        SCOPED_TRACE("given order, no Sweep");
        mismatches += mismatches_in_order(topo, oracle, srcs, dsts, nullptr);
    }
    for (const auto& [name, order] : runs) {
        SCOPED_TRACE(name);
        PathOracle::Sweep sweep;
        mismatches += mismatches_in_order(topo, oracle, order, dsts, &sweep);
    }
    return mismatches;
}

std::vector<RouterId> all_routers(const Topology& topo) {
    std::vector<RouterId> out(topo.router_count());
    for (RouterId r = 0; r < out.size(); ++r) out[r] = r;
    return out;
}

/// A topology of `routers` routers with `links` added in the order given,
/// which fixes each router's adjacency order.
Topology graph(std::size_t routers,
               std::initializer_list<std::pair<RouterId, RouterId>> links) {
    Topology topo;
    for (std::size_t i = 0; i < routers; ++i) {
        topo.add_router(RouterTier::kCore);
    }
    for (const auto& [a, b] : links) topo.add_link(a, b);
    return topo;
}

TEST(PathOracle, PathsIntoMatchesReferenceBfs) {
    // Sources include end hosts (degree 1) and core routers; destinations
    // include the source itself and a router no link reaches.
    util::Rng rng(6);
    Topology topo = generate_topology(small_params(), rng);
    const RouterId isolated = topo.add_router(RouterTier::kCore);
    const PathOracle oracle(topo);
    const auto hosts = topo.end_hosts();
    std::vector<RouterId> dsts;
    for (RouterId r = 0; r < topo.router_count(); r += 3) dsts.push_back(r);
    dsts.push_back(isolated);
    const std::vector<RouterId> srcs{hosts[0], hosts[7], 0, 5};
    EXPECT_EQ(reference_mismatches(topo, oracle, srcs, dsts), 0u);
}

TEST(PathOracle, BridgePruningMatchesPlainBfsOnHandBuiltGraphs) {
    // Every source x every destination on graphs built around bridges:
    // a source's own sweep stops at the core, the core sweep is its entry
    // router's, and paths into other pendant parts follow the root BFS.
    const std::pair<const char*, Topology> cases[] = {
        {"root 4-cycle, pendant chain three bridges deep, then a triangle",
         graph(9, {{0, 1}, {1, 2}, {2, 3}, {3, 0},
                   {2, 4}, {4, 5}, {5, 6},
                   {6, 7}, {7, 8}, {8, 6}})},
        {"triangle off a triangle off a root 5-cycle",
         graph(11, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0},
                    {3, 5}, {5, 6}, {6, 7}, {7, 5},
                    {6, 8}, {8, 9}, {9, 10}, {10, 8}})},
        {"degree-1 leaves on the root and on pendant parts",
         graph(13, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 4}, {2, 5},
                    {1, 6}, {6, 7}, {7, 8}, {8, 6}, {7, 9}, {8, 10},
                    {3, 11}, {11, 12}})},
        {"second connected component with its own cycle",
         graph(12, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {4, 11},
                    {5, 6}, {6, 7}, {7, 8}, {8, 5}, {8, 9}, {9, 10}})},
        {"tree-only second component",
         graph(9, {{0, 1}, {1, 2}, {2, 0},
                   {3, 4}, {3, 5}, {4, 6}, {4, 7}, {7, 8}})},
        {"isolated router between a cycle and its leaf",
         graph(6, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 5}})},
        {"largest 2-edge-connected component away from router 0",
         graph(13, {{0, 1}, {1, 2}, {2, 0}, {2, 3},
                    {4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 9}, {9, 4},
                    {9, 10}, {10, 11}, {11, 12}, {12, 10}})},
        {"tie between equally large 2-edge-connected components",
         graph(14, {{0, 4}, {2, 4}, {4, 6}, {6, 8}, {8, 2},
                    {1, 3}, {3, 5}, {5, 7}, {7, 1}, {8, 9}, {9, 1},
                    {10, 11}, {11, 12}, {12, 13}, {13, 10}})},
    };
    for (const auto& [name, topo] : cases) {
        SCOPED_TRACE(name);
        const PathOracle oracle(topo);
        const auto routers = all_routers(topo);
        EXPECT_EQ(reference_mismatches(topo, oracle, routers, routers), 0u);
    }
}

TEST(PathOracle, BridgePruningMatchesPlainBfsOnRandomGraphs) {
    // Random trees of 20-80 routers, relabelled, plus up to five chords,
    // links added in a shuffled order: bridges everywhere, 2-edge-connected
    // components of every size, and adjacency orders that differ from the
    // router ids.
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        util::Rng rng(seed);
        const auto n = static_cast<std::size_t>(rng.uniform_int(20, 80));
        std::vector<RouterId> label(n);
        for (RouterId r = 0; r < n; ++r) label[r] = r;
        rng.shuffle(label);
        std::vector<std::pair<RouterId, RouterId>> links;
        for (RouterId v = 1; v < n; ++v) {
            links.emplace_back(label[v], label[rng.uniform_index(v)]);
        }
        const auto chords = rng.uniform_int(0, 5);
        for (std::int64_t c = 0; c < chords; ++c) {
            const auto a = static_cast<RouterId>(rng.uniform_index(n));
            const auto b = static_cast<RouterId>(rng.uniform_index(n));
            const bool taken = std::ranges::any_of(links, [&](const auto& l) {
                return (l.first == a && l.second == b) ||
                       (l.first == b && l.second == a);
            });
            if (a != b && !taken) links.emplace_back(a, b);
        }
        rng.shuffle(links);
        Topology topo;
        for (std::size_t i = 0; i < n; ++i) {
            topo.add_router(RouterTier::kCore);
        }
        for (const auto& [a, b] : links) topo.add_link(a, b);
        const PathOracle oracle(topo);
        const auto routers = all_routers(topo);
        EXPECT_EQ(reference_mismatches(topo, oracle, routers, routers), 0u);
    }
}

TEST(PathOracle, BridgePruningMatchesPlainBfsOnGeneratedTopologies) {
    {
        SCOPED_TRACE("small preset, every pair");
        util::Rng rng(9);
        const Topology topo = generate_topology(small_params(), rng);
        const PathOracle oracle(topo);
        const auto routers = all_routers(topo);
        EXPECT_EQ(reference_mismatches(topo, oracle, routers, routers), 0u);
    }
    {
        SCOPED_TRACE("medium preset, 32 sources x every 11th router");
        util::Rng rng(10);
        const Topology topo = generate_topology(medium_params(), rng);
        const PathOracle oracle(topo);
        const auto hosts = topo.end_hosts();
        std::vector<RouterId> srcs;
        for (std::size_t k = 0; k < 16; ++k) {
            srcs.push_back(hosts[k * hosts.size() / 16]);
            srcs.push_back(
                static_cast<RouterId>(k * topo.router_count() / 16));
        }
        std::vector<RouterId> dsts;
        for (RouterId r = 0; r < topo.router_count(); r += 11) {
            dsts.push_back(r);
        }
        EXPECT_EQ(reference_mismatches(topo, oracle, srcs, dsts), 0u);
    }
}

/// Core 4-cycle 0-1-2-3 (router 0 lowest), a pendant part hanging off 2
/// by the bridge 2-4 (the chain 4-5-6 into the triangle 6-7-8) and a leaf 9
/// off 1; then a second component, the triangle 10-11-12 with the chain
/// 12-13-14, and the isolated router 15.
Topology core_pendants_and_other_component() {
    return graph(16, {{0, 1}, {1, 2}, {2, 3}, {3, 0},
                      {2, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 6},
                      {1, 9},
                      {10, 11}, {11, 12}, {12, 10}, {12, 13}, {13, 14}});
}

TEST(PathOracle, OneSweepServesSourcesOutsideTheRootComponent) {
    // Sources of the other component and the isolated router, which sweep
    // no core, interleaved with core and pendant sources.
    const Topology topo = core_pendants_and_other_component();
    const PathOracle oracle(topo);
    const std::vector<RouterId> srcs{7, 13, 0,  15, 9,  10, 4, 14,
                                     2, 8,  12, 1,  5,  11, 3, 6, 13, 7};
    EXPECT_EQ(reference_mismatches(topo, oracle, srcs, all_routers(topo)),
              0u);
}

TEST(PathOracle, EntryNamesTheAttachmentRouter) {
    const Topology topo = core_pendants_and_other_component();
    const PathOracle oracle(topo);
    for (const RouterId core : {0u, 1u, 2u, 3u}) {
        EXPECT_EQ(oracle.entry(core), core);
    }
    for (const RouterId pendant : {4u, 5u, 6u, 7u, 8u}) {
        EXPECT_EQ(oracle.entry(pendant), 2u) << "router " << pendant;
    }
    EXPECT_EQ(oracle.entry(9), 1u);
    for (const RouterId other : {10u, 11u, 12u, 13u, 14u, 15u}) {
        EXPECT_EQ(oracle.entry(other), kInvalidRouter) << "router " << other;
    }
    for (const RouterId bad : {16u, kInvalidRouter}) {
        try {
            (void)oracle.entry(bad);
            ADD_FAILURE() << "entry(" << bad << ") did not throw";
        } catch (const std::out_of_range& e) {
            EXPECT_NE(std::string(e.what()).find(
                          "PathOracle::entry: router " + std::to_string(bad)),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(PathOracle, SweepHandedToAnotherOracleStartsOver) {
    // Two topologies with the same routers and entry routers whose cores
    // are different 4-cycles.  Each order ends (first topology) and starts
    // (second) with sources of entry router 2, so a Sweep that kept the
    // first oracle's core sweep would route the second over the first's
    // core links.
    const Topology a = graph(8, {{0, 1}, {1, 2}, {2, 3}, {3, 0},
                                 {2, 4}, {4, 5}, {1, 6}, {6, 7}});
    const Topology b = graph(8, {{0, 2}, {2, 1}, {1, 3}, {3, 0},
                                 {2, 4}, {4, 5}, {1, 6}, {6, 7}});
    const std::vector<RouterId> order_a{0, 1, 2, 3, 6, 7, 4, 5};
    const std::vector<RouterId> order_b{5, 4, 2, 0, 1, 3, 6, 7};
    const auto routers = all_routers(a);
    PathOracle::Sweep sweep;
    {
        SCOPED_TRACE("two live oracles, taking turns");
        const PathOracle first(a);
        const PathOracle second(b);
        for (int round = 0; round < 2; ++round) {
            EXPECT_EQ(
                mismatches_in_order(a, first, order_a, routers, &sweep), 0u);
            EXPECT_EQ(
                mismatches_in_order(b, second, order_b, routers, &sweep), 0u);
        }
    }
    {
        SCOPED_TRACE("second oracle built where the first was destroyed");
        std::optional<PathOracle> slot;
        slot.emplace(a);
        const PathOracle* first = &*slot;
        EXPECT_EQ(mismatches_in_order(a, *slot, order_a, routers, &sweep), 0u);
        slot.emplace(b);
        ASSERT_EQ(&*slot, first);
        EXPECT_EQ(mismatches_in_order(b, *slot, order_b, routers, &sweep), 0u);
    }
}

TEST(PathOracle, CountsTheRoutersEachSweepQueues) {
    // Core 4-cycle 0-1-2-3 (lowest router 0), then bridges 2-4, 4-5, 5-6
    // down to the triangle 6-7-8: one pendant part of five routers, entry
    // router 2.  A call counts the routers its own sweep expands (src's
    // pendant part; none from a core router), plus the four of the core
    // sweep when it runs one.  Without a Sweep every call sweeps the core:
    // 0 + 4 from 0, 5 + 4 from 7.  One Sweep carries entry 2's core sweep
    // from 7 to 4, and entry 0's from 0 to 0.
    const Topology topo = graph(9, {{0, 1}, {1, 2}, {2, 3}, {3, 0},
                                    {2, 4}, {4, 5}, {5, 6},
                                    {6, 7}, {7, 8}, {8, 6}});
    const PathOracle oracle(topo);
    auto& expanded =
        util::metrics::Registry::global().counter("net.bfs_routers_expanded");
    util::Arena arena;
    const std::vector<RouterId> dsts{8};
    struct Case {
        RouterId src;
        std::int64_t queued;
        std::size_t hops_to_8;
    };
    for (const Case& c : {Case{0, 4, 6}, Case{7, 9, 1}}) {
        const std::int64_t before = expanded.value();
        EXPECT_EQ(oracle.paths_into(c.src, dsts, arena)[0].hops(),
                  c.hops_to_8);
        EXPECT_EQ(expanded.value() - before, c.queued) << "source " << c.src;
    }
    PathOracle::Sweep sweep;
    for (const Case& c : {Case{7, 9, 1}, Case{4, 5, 3}, Case{0, 4, 6},
                          Case{0, 0, 6}}) {
        const std::int64_t before = expanded.value();
        EXPECT_EQ(oracle.paths_into(c.src, dsts, arena, sweep)[0].hops(),
                  c.hops_to_8);
        EXPECT_EQ(expanded.value() - before, c.queued)
            << "source " << c.src << ", one Sweep";
    }
}

TEST(PathOracle, RejectsOutOfRangeRouters) {
    Topology topo;
    topo.add_router(RouterTier::kCore);
    topo.add_router(RouterTier::kEndHost);
    topo.add_link(0, 1);
    const PathOracle oracle(topo);
    util::Arena arena;
    const std::vector<RouterId> good{1};
    const std::vector<RouterId> bad{1, 2};
    EXPECT_THROW((void)oracle.paths_into(2, good, arena), std::out_of_range);
    EXPECT_THROW((void)oracle.paths_into(kInvalidRouter, good, arena),
                 std::out_of_range);
    EXPECT_THROW((void)oracle.paths_into(0, bad, arena), std::out_of_range);
    try {
        (void)oracle.paths_into(0, bad, arena);
    } catch (const std::out_of_range& e) {
        EXPECT_NE(std::string(e.what()).find("destination router 2"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(arena.bytes_used(), 0u);
}

TEST(PathOracle, PathsFromOneSourceFormATree) {
    // Every router reached by two paths from the same source must be reached
    // via the same parent link -- the property ProbeTree relies on.
    util::Rng rng(8);
    const Topology topo = generate_topology(small_params(), rng);
    const PathOracle oracle(topo);
    const auto hosts = topo.end_hosts();
    const std::vector<RouterId> dsts(hosts.begin() + 1, hosts.end());
    util::Arena arena;
    const auto paths = oracle.paths_into(hosts[0], dsts, arena);
    std::unordered_map<RouterId, LinkId> parent;
    for (const PathView& p : paths) {
        for (std::size_t i = 0; i < p.links.size(); ++i) {
            const RouterId child = p.routers[i + 1];
            const auto [it, inserted] = parent.emplace(child, p.links[i]);
            if (!inserted) {
                EXPECT_EQ(it->second, p.links[i]);
            }
        }
    }
}

}  // namespace
}  // namespace concilium::net
