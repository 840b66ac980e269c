#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "net/paths.h"
#include "net/topology.h"
#include "net/topology_gen.h"
#include "util/arena.h"
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

TEST(PathOracle, PathsIntoMatchesReferenceBfs) {
    // The CSR sweep skips expanding degree-1 routers; every parent link
    // must still be the one a plain BFS picks.  Sources include end hosts
    // (degree 1) and core routers; destinations include the source itself
    // and a router no link reaches.
    util::Rng rng(6);
    Topology topo = generate_topology(small_params(), rng);
    const RouterId isolated = topo.add_router(RouterTier::kCore);
    const PathOracle oracle(topo);
    const auto hosts = topo.end_hosts();
    std::vector<RouterId> dsts;
    for (RouterId r = 0; r < topo.router_count(); r += 3) dsts.push_back(r);
    dsts.push_back(isolated);
    util::Arena arena;
    for (const RouterId src : {hosts[0], hosts[7], RouterId{0}, RouterId{5}}) {
        const auto via = reference_via(topo, src);
        const auto views = oracle.paths_into(src, dsts, arena);
        ASSERT_EQ(views.size(), dsts.size());
        for (std::size_t i = 0; i < dsts.size(); ++i) {
            const PathView& p = views[i];
            if (dsts[i] == src || via[dsts[i]] == kInvalidLink) {
                EXPECT_TRUE(p.empty());
                EXPECT_TRUE(p.routers.empty());
                continue;
            }
            ASSERT_EQ(p.routers.size(), p.links.size() + 1);
            EXPECT_EQ(p.routers.front(), src);
            EXPECT_EQ(p.routers.back(), dsts[i]);
            for (std::size_t hop = 0; hop < p.links.size(); ++hop) {
                EXPECT_EQ(p.links[hop], via[p.routers[hop + 1]]);
            }
        }
        EXPECT_TRUE(views.back().empty());
    }
    EXPECT_GT(arena.bytes_used(), 0u);
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
