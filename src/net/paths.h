// Shortest-path extraction.
//
// The paper derives each host's IP-level link map with measurement tools like
// RocketFuel and notes that Internet routes are stable for a day or more
// (Section 3.2), so maps are computed rarely.  In the simulation the oracle
// extracts exact shortest paths from the topology (BFS over unweighted links
// with deterministic tie-breaking), playing the role of that stable map.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/topology.h"
#include "util/arena.h"

namespace concilium::net {

/// A route through the IP network, viewed as spans into arena storage (see
/// PathOracle::paths_into).  routers.size() == links.size() + 1 for a
/// non-empty route, routers.front() being the source and routers.back() the
/// destination; both are empty when unreachable or src == dst.
struct PathView {
    std::span<const RouterId> routers;
    std::span<const LinkId> links;

    [[nodiscard]] bool empty() const noexcept { return links.empty(); }
    [[nodiscard]] std::size_t hops() const noexcept { return links.size(); }
};

class PathOracle {
  public:
    /// Copies the topology's adjacency into CSR form -- one flat edge array
    /// plus per-router offsets, each router's edges in adjacency-list order
    /// -- so the oracle keeps no reference to `topo`.  Then finds the
    /// bridges, takes the largest 2-edge-connected component as the root
    /// component (lowest router first on a tie) and runs one BFS from its
    /// lowest router, the root BFS.
    explicit PathOracle(const Topology& topo);

    /// One BFS from src; every extracted path is carved out of `arena`
    /// (two pointer bumps per path, no per-path heap traffic) and returned
    /// as spans.  The spans stay valid until the arena is reset or
    /// destroyed.  At full-SCAN scale this is the difference between two
    /// heap allocations per (member, peer) pair and none.
    ///
    /// The BFS does not expand a router it reaches over a bridge the root
    /// BFS crossed away from the root.  The part of the graph below such a
    /// bridge is entered through it alone, so its BFS tree is the same for
    /// every source outside it -- the root BFS's -- and leaving it out of
    /// the queue keeps the FIFO order of everything else.  Paths into it
    /// continue along the root BFS's parents.
    ///
    /// Shortest paths, deterministic: ties break by adjacency-list order,
    /// which is fixed by construction order.  A destination that is
    /// unreachable or equal to src yields an empty view.  Throws
    /// std::out_of_range naming the router when src or a destination is
    /// not a router of the topology.
    [[nodiscard]] std::vector<PathView> paths_into(
        RouterId src, std::span<const RouterId> dsts,
        util::Arena& arena) const;

  private:
    /// FIFO BFS from src in CSR edge order.  A router reached over an edge
    /// e with bridge_down_[e] set gets its parent and via link but is not
    /// queued.  Returns the number of routers queued.
    std::size_t sweep(RouterId src, std::vector<RouterId>& parent,
                      std::vector<LinkId>& via) const;

    /// Router r's edges are edges_[offsets_[r] .. offsets_[r + 1]).
    std::vector<std::uint32_t> offsets_;
    std::vector<Topology::Edge> edges_;
    /// Per CSR edge: 1 when the root BFS discovered the edge's neighbor
    /// across a bridge, i.e. the bridge's direction away from the root.
    std::vector<std::uint8_t> bridge_down_;
    /// The root BFS's source, its parent of each router and the link to
    /// it; kInvalidRouter / kInvalidLink outside the root's connected
    /// component.
    RouterId root_ = kInvalidRouter;
    std::vector<RouterId> root_parent_;
    std::vector<LinkId> root_via_;
};

}  // namespace concilium::net
