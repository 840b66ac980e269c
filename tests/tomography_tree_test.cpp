#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "crypto/certificates.h"
#include "net/paths.h"
#include "net/topology.h"
#include "net/topology_gen.h"
#include "overlay/network.h"
#include "tomography/overlay_trees.h"
#include "tomography/tree.h"
#include "util/arena.h"
#include "util/rng.h"

namespace concilium::tomography {
namespace {

/// The canonical small tree used across tomography tests:
///        0 (root)
///        |
///        1
///       / \      links[0..5]: 0-1, 1-2, 1-3, 2-4, 2-5, 3-6
///      2   3
///     / \   \    (4, 5, 6 are probed leaves)
///    4   5   6
struct TreeFixture {
    TreeFixture() {
        for (int i = 0; i < 7; ++i) topo.add_router(net::RouterTier::kCore);
        links[0] = topo.add_link(0, 1);
        links[1] = topo.add_link(1, 2);
        links[2] = topo.add_link(1, 3);
        links[3] = topo.add_link(2, 4);
        links[4] = topo.add_link(2, 5);
        links[5] = topo.add_link(3, 6);
        const net::PathOracle oracle(topo);
        const std::vector<net::RouterId> dsts{4, 5, 6};
        paths = oracle.paths_into(0, dsts, arena);
    }

    net::Topology topo;
    net::LinkId links[6];
    util::Arena arena;
    std::vector<net::PathView> paths;
};

TEST(ProbeTree, MergesPathsIntoSharedTree) {
    TreeFixture f;
    const ProbeTree tree(0, f.paths);
    EXPECT_EQ(tree.root(), 0u);
    EXPECT_EQ(tree.node_count(), 7u);
    ASSERT_EQ(tree.links().size(), 6u);
    EXPECT_EQ(tree.parent()[0], -1);
    for (std::size_t k = 1; k < tree.node_count(); ++k) {
        EXPECT_LT(tree.parent()[k], static_cast<int>(k));  // parent first
        EXPECT_EQ(tree.links()[k - 1], tree.via()[k]);
    }
    ASSERT_EQ(tree.leaves().size(), 3u);
    EXPECT_EQ(tree.leaves()[0], 4u);
    EXPECT_EQ(tree.leaves()[1], 5u);
    EXPECT_EQ(tree.leaves()[2], 6u);
}

TEST(ProbeTree, PathLinksReconstructRootPaths) {
    TreeFixture f;
    const ProbeTree tree(0, f.paths);
    const auto to4 = tree.path_links(0);
    ASSERT_EQ(to4.size(), 3u);
    EXPECT_EQ(to4[0], f.links[0]);
    EXPECT_EQ(to4[1], f.links[1]);
    EXPECT_EQ(to4[2], f.links[3]);
    const auto to6 = tree.path_links(2);
    ASSERT_EQ(to6.size(), 3u);
    EXPECT_EQ(to6[2], f.links[5]);
    EXPECT_THROW((void)tree.path_links(3), std::out_of_range);
}

TEST(ProbeTree, LeafNodesAndSubtreeLeafMasks) {
    TreeFixture f;
    const ProbeTree tree(0, f.paths);
    ASSERT_EQ(tree.subtree_leaves(0).size(), 1u);  // one word per row
    for (std::size_t slot = 0; slot < tree.leaves().size(); ++slot) {
        const auto node = static_cast<std::size_t>(tree.leaf_nodes()[slot]);
        EXPECT_EQ(tree.leaf_slot()[node], static_cast<int>(slot));
        EXPECT_EQ(tree.subtree_leaves(node)[0], std::uint64_t{1} << slot);
    }
    // Router 2 is the shared parent of leaves 4 and 5 (slots 0 and 1).
    const int n2 = tree.parent()[tree.leaf_nodes()[0]];
    EXPECT_EQ(tree.parent()[tree.leaf_nodes()[1]], n2);
    EXPECT_EQ(tree.leaf_slot()[static_cast<std::size_t>(n2)],
              ProbeTree::kNoLeaf);
    EXPECT_EQ(tree.subtree_leaves(static_cast<std::size_t>(n2))[0], 0b011u);
    EXPECT_EQ(tree.subtree_leaves(0)[0], 0b111u);
}

TEST(ProbeTree, SkipsEmptyPaths) {
    TreeFixture f;
    f.paths.push_back(net::PathView{});  // unreachable peer
    const ProbeTree tree(0, f.paths);
    EXPECT_EQ(tree.leaves().size(), 3u);
}

TEST(ProbeTree, InteriorEndpointGetsLeafSlot) {
    TreeFixture f;
    // Also probe router 2, which lies on the way to 4 and 5.
    const net::PathOracle oracle(f.topo);
    const std::vector<net::RouterId> dsts{4, 5, 2};
    const auto paths = oracle.paths_into(0, dsts, f.arena);
    const ProbeTree tree(0, paths);
    ASSERT_EQ(tree.leaves().size(), 3u);
    EXPECT_EQ(tree.leaves()[2], 2u);
    // Slot 2 sits at the interior router the other two leaves hang under.
    const int n2 = tree.leaf_nodes()[2];
    EXPECT_EQ(tree.leaf_slot()[static_cast<std::size_t>(n2)], 2);
    EXPECT_EQ(tree.parent()[tree.leaf_nodes()[0]], n2);
    EXPECT_EQ(tree.parent()[tree.leaf_nodes()[1]], n2);
    EXPECT_EQ(tree.subtree_leaves(static_cast<std::size_t>(n2))[0], 0b111u);
}

TEST(ProbeTree, RejectsForeignPaths) {
    TreeFixture f;
    const net::PathOracle oracle(f.topo);
    const std::vector<net::RouterId> to4{4};
    const auto wrong = oracle.paths_into(1, to4, f.arena);  // starts at 1
    EXPECT_THROW(ProbeTree(0, wrong), std::invalid_argument);
}

TEST(ProbeTree, RejectsInconsistentParents) {
    TreeFixture f;
    // Add a second route to router 4 through 3 to fabricate a disagreement.
    const net::LinkId alt = f.topo.add_link(3, 4);
    const std::vector<net::RouterId> routers{0, 1, 3, 4};
    const std::vector<net::LinkId> hops{f.links[0], f.links[2], alt};
    auto paths = f.paths;
    paths.push_back(net::PathView{routers, hops});
    EXPECT_THROW(ProbeTree(0, paths), std::invalid_argument);
}

TEST(Forest, CoverageGrowsMonotonically) {
    TreeFixture f;
    const net::PathOracle oracle(f.topo);
    const ProbeTree t0(0, f.paths);
    // Peer trees rooted at 4 and 6, probing the other hosts.
    const std::vector<net::RouterId> d4{0, 5, 6};
    const auto p4 = oracle.paths_into(4, d4, f.arena);
    const ProbeTree t4(4, p4);
    const std::vector<net::RouterId> d6{0, 4, 5};
    const auto p6 = oracle.paths_into(6, d6, f.arena);
    const ProbeTree t6(6, p6);

    const ProbeTree* const trees[] = {&t0, &t4, &t6};
    const Forest forest(trees);
    double prev = 0.0;
    for (std::size_t k = 1; k <= 3; ++k) {
        const double c = forest.coverage(k);
        EXPECT_GE(c, prev);
        prev = c;
    }
    EXPECT_DOUBLE_EQ(forest.coverage(3), 1.0);  // trees cover same links here
    EXPECT_GE(forest.mean_vouchers(3), forest.mean_vouchers(1));
}

TEST(Forest, SingleTreeCoversItself) {
    TreeFixture f;
    const ProbeTree t0(0, f.paths);
    const ProbeTree* const own[] = {&t0};
    const Forest forest(own);
    EXPECT_DOUBLE_EQ(forest.coverage(1), 1.0);
    EXPECT_DOUBLE_EQ(forest.mean_vouchers(1), 1.0);
    EXPECT_THROW(Forest({}), std::invalid_argument);
}

TEST(Forest, GeneratedTopologyOwnTreeCoversMinority) {
    // On a realistic topology a node's own tree is a sliver of its forest
    // (Figure 4 starts near 25%).
    util::Rng rng(3);
    const net::Topology topo = net::generate_topology(net::small_params(), rng);
    const net::PathOracle oracle(topo);
    auto hosts = topo.end_hosts();
    ASSERT_GE(hosts.size(), 12u);
    // Tree per host: paths to 8 other random hosts.
    std::vector<ProbeTree> trees;
    util::Arena arena;
    for (std::size_t h = 0; h < 10; ++h) {
        std::vector<net::RouterId> dsts;
        for (std::size_t k = 1; k <= 8; ++k) {
            dsts.push_back(hosts[(h + k * 7) % hosts.size()]);
        }
        trees.emplace_back(hosts[h],
                           oracle.paths_into(hosts[h], dsts, arena));
    }
    std::vector<const ProbeTree*> ptrs;
    for (const auto& t : trees) ptrs.push_back(&t);
    const Forest forest(ptrs);
    EXPECT_LT(forest.coverage(1), 0.9);
    EXPECT_GT(forest.coverage(1), 0.05);
    EXPECT_DOUBLE_EQ(forest.coverage(10), 1.0);
}

TEST(Forest, PrefixCountsMatchASetRecountForEveryPrefix) {
    // coverage(k) and mean_vouchers(k) are prefix-count reads; they must
    // return exactly the doubles a recount over the first k trees gives.
    util::Rng rng(9);
    const net::Topology topo = net::generate_topology(net::small_params(), rng);
    const net::PathOracle oracle(topo);
    const auto hosts = topo.end_hosts();
    ASSERT_GE(hosts.size(), 40u);
    std::vector<ProbeTree> trees;
    util::Arena arena;
    for (std::size_t h = 0; h < 24; ++h) {
        std::vector<net::RouterId> dsts;
        for (std::size_t k = 1; k <= 12; ++k) {
            dsts.push_back(hosts[(h * 5 + k * 11) % hosts.size()]);
        }
        trees.emplace_back(hosts[h],
                           oracle.paths_into(hosts[h], dsts, arena));
    }
    std::vector<const ProbeTree*> ptrs;
    for (const auto& t : trees) ptrs.push_back(&t);
    const Forest forest(ptrs);

    std::unordered_set<net::LinkId> all;
    for (const auto& t : trees) all.insert(t.links().begin(), t.links().end());
    for (std::size_t k = 0; k <= trees.size() + 2; ++k) {
        std::unordered_map<net::LinkId, int> vouchers;
        for (std::size_t i = 0; i < std::min(k, trees.size()); ++i) {
            for (const net::LinkId l : trees[i].links()) ++vouchers[l];
        }
        double sum = 0.0;
        for (const auto& [link, n] : vouchers) sum += n;
        const double coverage = static_cast<double>(vouchers.size()) /
                                static_cast<double>(all.size());
        const double mean =
            vouchers.empty() ? 0.0
                             : sum / static_cast<double>(vouchers.size());
        EXPECT_EQ(forest.coverage(k), coverage) << "k = " << k;
        EXPECT_EQ(forest.mean_vouchers(k), mean) << "k = " << k;
    }
    EXPECT_GT(forest.mean_vouchers(trees.size()), 1.0);
}

TEST(OverlayTrees, MemberOutsideTheTopologyFailsTheBuild) {
    // 100k unlinked routers and 130 members make three build chunks and
    // enough BFS visits for three workers.  The last member's address is
    // no router, so every chunk whose members route to it throws; the
    // constructor rethrows on the caller instead of indexing past the
    // BFS arrays.
    net::Topology topo;
    for (int i = 0; i < 100'000; ++i) topo.add_router(net::RouterTier::kCore);
    crypto::CertificateAuthority ca(5);
    std::vector<overlay::Member> members;
    for (std::uint32_t i = 0; i < 130; ++i) {
        auto admission = ca.admit(i < 129 ? i : 4'000'000'000u);
        members.push_back(overlay::Member{std::move(admission.certificate),
                                          std::move(admission.keys)});
    }
    util::Rng rng(6);
    const overlay::OverlayNetwork net(std::move(members), rng);
    try {
        const OverlayTrees trees(net, topo);
        ADD_FAILURE() << "built trees for a member outside the topology";
    } catch (const std::out_of_range& e) {
        EXPECT_NE(std::string(e.what()).find("router 4000000000"),
                  std::string::npos)
            << e.what();
    }
}

TEST(OverlayTrees, MatchesOneOracleCallPerMember) {
    // The build sweeps members in entry-router order, sharing core sweeps
    // within a chunk; every table must equal one 3-argument paths_into
    // call per member in index order.  600 medium-preset members make ten
    // chunks and enough work for two workers.
    struct World {
        const char* name;
        net::TopologyParams params;
        std::uint64_t seed;
        std::size_t members;
    };
    for (const World& w : {World{"small preset", net::small_params(), 31, 100},
                           World{"medium preset", net::medium_params(), 33,
                                 600}}) {
        SCOPED_TRACE(w.name);
        util::Rng rng(w.seed);
        const auto topo = net::generate_topology(w.params, rng);
        crypto::CertificateAuthority ca(w.seed + 1);
        const auto net = overlay::build_overlay_from_hosts(
            topo.end_hosts(), w.members, ca, rng);
        const OverlayTrees trees(net, topo);
        ASSERT_EQ(trees.size(), net.size());

        const net::PathOracle oracle(topo);
        util::Arena arena;
        std::size_t next_path = 0;
        std::size_t mismatches = 0;
        for (overlay::MemberIndex m = 0; m < net.size(); ++m) {
            const auto& peers = net.routing_peers(m);
            std::vector<net::RouterId> dsts;
            for (const overlay::MemberIndex p : peers) {
                dsts.push_back(net.member(p).ip());
            }
            const auto paths =
                oracle.paths_into(net.member(m).ip(), dsts, arena);
            const ProbeTree expected(net.member(m).ip(), paths);
            const ProbeTree& tree = trees.tree(m);
            bool ok = std::ranges::equal(tree.links(), expected.links()) &&
                      tree.leaves() == expected.leaves() &&
                      std::ranges::equal(tree.parent(), expected.parent()) &&
                      std::ranges::equal(tree.via(), expected.via()) &&
                      std::ranges::equal(tree.leaf_slot(),
                                         expected.leaf_slot());
            std::vector<util::NodeId> ids;
            std::vector<overlay::MemberIndex> members;
            for (std::size_t k = 0; k < peers.size(); ++k) {
                const auto slot = trees.leaf_slot(m, peers[k]);
                if (paths[k].empty()) {
                    ok = ok && !slot.has_value();
                    continue;
                }
                ok = ok && slot == static_cast<int>(ids.size()) &&
                     next_path < trees.member_peer_paths().size();
                if (ok) {
                    const net::PathView& got =
                        trees.member_peer_paths()[next_path];
                    ok = std::ranges::equal(got.routers, paths[k].routers) &&
                         std::ranges::equal(got.links, paths[k].links);
                }
                ++next_path;
                ids.push_back(net.member(peers[k]).id());
                members.push_back(peers[k]);
            }
            ok = ok && trees.leaf_ids(m) == ids &&
                 trees.leaf_members(m) == members;
            if (!ok && mismatches++ == 0) {
                ADD_FAILURE() << "member " << m << "'s tables differ from "
                              << "its own paths_into call";
            }
        }
        EXPECT_EQ(mismatches, 0u);
        EXPECT_EQ(next_path, trees.member_peer_paths().size());
        EXPECT_EQ(trees.path_bytes(), arena.bytes_used());
    }
}

}  // namespace
}  // namespace concilium::tomography
