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

/// Terms.  The *core* is the root component: the largest 2-edge-connected
/// component, lowest router first on a tie.  A *pendant part* is a
/// connected component of the graph with the core removed; one in the
/// core's connected component hangs off the core by a single bridge, whose
/// core end is the part's *entry router*.
class PathOracle {
  public:
    /// Reusable BFS state for one thread, so a caller that extracts paths
    /// from many sources allocates nothing per source and sources with the
    /// same entry router share one sweep of the core.  It belongs to the
    /// last oracle that used it; handed to another oracle, it starts over.
    class Sweep {
      private:
        friend class PathOracle;
        /// Id of the oracle these arrays were sized for; 0: none.
        std::uint64_t oracle_ = 0;
        /// Per router: its parent and via link in the last local sweep;
        /// kInvalidRouter where that sweep did not reach.  reached_ lists
        /// the routers it gave a parent, so the next call resets just
        /// those.
        std::vector<RouterId> parent_;
        std::vector<LinkId> via_;
        std::vector<RouterId> reached_;
        /// The core sweep from entry_ (kInvalidRouter: none), the same way
        /// per core number, parents being core numbers.
        RouterId entry_ = kInvalidRouter;
        std::vector<std::uint32_t> core_parent_;
        std::vector<LinkId> core_via_;
        std::vector<std::uint32_t> core_reached_;
    };

    /// Copies the topology's adjacency into CSR form -- one flat edge array
    /// plus per-router offsets, each router's edges in adjacency-list order
    /// -- so the oracle keeps no reference to `topo`.  Then finds the
    /// bridges and the core, runs one BFS from the core's lowest router
    /// (the root BFS), numbers the core routers in root-BFS order and
    /// gives the core its own CSR of core edges.
    explicit PathOracle(const Topology& topo);

    /// r for a core router, the entry router of r's pendant part for a
    /// pendant router, and kInvalidRouter outside the core's connected
    /// component.  Throws std::out_of_range naming the router when r is not
    /// a router of the topology.
    [[nodiscard]] RouterId entry(RouterId r) const;

    /// Paths from src to each destination; every path is carved out of
    /// `arena` (two pointer bumps per path, no per-path heap traffic) and
    /// returned as spans, valid until the arena is reset or destroyed.
    ///
    /// The paths equal one plain BFS from src, three sweeps put together:
    /// a BFS from src that does not expand core routers (src's pendant
    /// part, or src's whole component when it holds no core), the core
    /// BFS from entry(src), which `sweep` keeps for the next source with
    /// the same entry, and the root BFS's parents everywhere else.
    ///
    /// Shortest paths, deterministic: ties break by adjacency-list order,
    /// which is fixed by construction order.  A destination that is
    /// unreachable or equal to src yields an empty view.  Throws
    /// std::out_of_range naming the router when src or a destination is
    /// not a router of the topology.
    [[nodiscard]] std::vector<PathView> paths_into(
        RouterId src, std::span<const RouterId> dsts, util::Arena& arena,
        Sweep& sweep) const;

    /// The same with a Sweep of its own.
    [[nodiscard]] std::vector<PathView> paths_into(
        RouterId src, std::span<const RouterId> dsts,
        util::Arena& arena) const;

  private:
    /// Sizes `sweep` for this oracle unless it already is.
    void bind(Sweep& sweep) const;

    /// Drawn from a process-wide counter: a Sweep tells oracles apart by
    /// it, never by address.
    std::uint64_t id_;
    /// Router r's edges are edges_[offsets_[r] .. offsets_[r + 1]).
    std::vector<std::uint32_t> offsets_;
    std::vector<Topology::Edge> edges_;
    /// The root BFS's parent of each router and the link to it;
    /// kInvalidRouter / kInvalidLink outside the core's connected
    /// component.
    std::vector<RouterId> root_parent_;
    std::vector<LinkId> root_via_;
    /// Per router: its core number (root-BFS order), or kNotCore.
    static constexpr std::uint32_t kNotCore = 0xffffffffu;
    std::vector<std::uint32_t> core_number_;
    /// Per core number: the router.
    std::vector<RouterId> core_router_;
    /// Core number k's core edges are core_edges_[core_offsets_[k] ..
    /// core_offsets_[k + 1]), in adjacency-list order, each edge's
    /// `neighbor` holding a core number.
    std::vector<std::uint32_t> core_offsets_;
    std::vector<Topology::Edge> core_edges_;
};

}  // namespace concilium::net
