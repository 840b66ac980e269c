// Probe trees and forests.
//
// "Each host H is connected to its routing peers by a set of links in the
// underlying IP network.  These links induce a communication tree T_H whose
// root is H and whose leaves are H's routing peers.  We define the forest
// F_H as the union of the tree rooted at H and the trees rooted at each of
// H's routing peers.  Concilium's goal is to estimate link quality in F_H."
// (Section 3.2)
//
// Shortest paths from a single source form a tree by construction, so T_H is
// assembled by merging the root's paths to each routing peer.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/paths.h"
#include "net/topology.h"

namespace concilium::tomography {

/// The IP-level tree spanning one host and its routing peers.
class ProbeTree {
  public:
    /// leaf_slot() of a node that is not a probed endpoint.
    static constexpr int kNoLeaf = -1;

    /// Builds the tree for `root` from its paths to each leaf host
    /// (PathOracle::paths_into); the tree keeps no reference to them.  Paths
    /// must all start at `root`; empty paths (unreachable leaves) are
    /// skipped.  Paths from one BFS never disagree on a router's parent; a
    /// disagreeing path set throws std::invalid_argument.
    ProbeTree(net::RouterId root, std::span<const net::PathView> paths);

    [[nodiscard]] net::RouterId root() const noexcept { return root_; }

    /// Flat per-node arrays, in creation order: node 0 is the root and every
    /// parent precedes its children, so one pass over the indices visits the
    /// tree top-down (or, reversed, bottom-up).  Per node: the parent's
    /// index (-1 at the root), the link to the parent (kInvalidLink at the
    /// root), and the index into leaves() (kNoLeaf unless probed).
    [[nodiscard]] std::span<const int> parent() const { return parent_; }
    [[nodiscard]] std::span<const net::LinkId> via() const { return via_; }
    [[nodiscard]] std::span<const int> leaf_slot() const { return leaf_slot_; }
    [[nodiscard]] std::size_t node_count() const { return parent_.size(); }

    /// Probed leaf routers, in construction order.  (A "leaf" is a probed
    /// endpoint; in degenerate topologies it can be an interior router of
    /// the tree as well.)
    [[nodiscard]] const std::vector<net::RouterId>& leaves() const noexcept {
        return leaves_;
    }
    /// Per leaf slot: the node it sits at.
    [[nodiscard]] std::span<const int> leaf_nodes() const {
        return leaf_nodes_;
    }

    /// All distinct links in the tree, in node order: links()[i] is
    /// via()[i + 1].
    [[nodiscard]] std::span<const net::LinkId> links() const {
        return std::span<const net::LinkId>(via_).subspan(1);
    }

    /// Links from the root to the given leaf slot, root-side first.
    [[nodiscard]] std::vector<net::LinkId> path_links(int leaf_slot) const;

    /// Leaf-slot bits of the subtree rooted at node n: ceil(leaves / 64)
    /// words, the width of a ProbeMatrix row.
    [[nodiscard]] std::span<const std::uint64_t> subtree_leaves(
        std::size_t n) const {
        return {subtree_leaves_.data() + n * leaf_words_, leaf_words_};
    }

  private:
    net::RouterId root_;
    std::vector<int> parent_;
    std::vector<net::LinkId> via_;
    std::vector<int> leaf_slot_;
    std::vector<net::RouterId> leaves_;
    std::vector<int> leaf_nodes_;
    std::size_t leaf_words_ = 0;
    std::vector<std::uint64_t> subtree_leaves_;  ///< node-major rows
};

/// The union-of-trees view: which links of F_H are covered when H combines
/// its own tree with some of its peers' trees (Figure 4).
class Forest {
  public:
    /// trees[0] is H's own tree; the rest belong to H's routing peers.  The
    /// forest counts their links once, up front, and keeps no reference to
    /// them.
    explicit Forest(std::span<const ProbeTree* const> trees);

    /// Fraction of forest links present in the union of the first
    /// `tree_count` trees.
    [[nodiscard]] double coverage(std::size_t tree_count) const;

    /// Number of the first `tree_count` trees containing each covered link,
    /// i.e. how many peers can vouch for it (Figure 4's second series).
    [[nodiscard]] double mean_vouchers(std::size_t tree_count) const;

  private:
    /// Per prefix of the trees (index k covers the first k): the number of
    /// distinct links, and the number of links counted once per tree that
    /// holds them.
    std::vector<std::size_t> distinct_;
    std::vector<std::size_t> total_;
};

}  // namespace concilium::tomography
