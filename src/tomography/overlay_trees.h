// Probe trees for every overlay member.
//
// Builds, for each member of an overlay, the tree T_H spanning it and its
// routing peers (Section 3.2), together with the peer -> leaf-slot mapping
// and the flat list of (host, routing peer) IP paths -- the candidate set
// that the failure model of Section 4.2 draws from.
//
// Every per-(member, peer) path produced by the per-member sweeps is carved
// out of an arena (PathOracle::paths_into) and served as a view.  The hot
// query path_links() -- hit once per packet transmission and once per
// judgment -- is therefore a bounds-checked table read with zero
// allocation, instead of rebuilding a vector by walking tree parents.
//
// The build orders the members by entry router (PathOracle::entry), then
// by index, so sources that enter the core at the same router share one
// core sweep, and cuts that order into fixed chunks, each with its own
// arena, PathOracle::Sweep and outputs.  Chunks run through
// util::parallel_for on as many cores as the world is worth (see the
// constructor); every member's outputs are placed by member index, so the
// result is byte-identical at any worker count.

#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/paths.h"
#include "net/topology.h"
#include "overlay/network.h"
#include "tomography/tree.h"
#include "util/arena.h"

namespace concilium::tomography {

class OverlayTrees {
  public:
    /// Builds every member's tree.  Members, in entry-router order, go in
    /// chunks of 64 sources through util::parallel_for on up to
    /// min(hardware threads, sources x routers / 4M) workers, the calling
    /// thread being one of them, so a small world builds inline without
    /// starting a thread.  Once a chunk throws no new chunk starts, and the
    /// exception of the first failing chunk in chunk order is rethrown
    /// here; a member whose address is no router throws std::out_of_range
    /// naming it.
    OverlayTrees(const overlay::OverlayNetwork& net,
                 const net::Topology& topology);

    [[nodiscard]] const ProbeTree& tree(overlay::MemberIndex m) const {
        return trees_.at(m);
    }
    [[nodiscard]] std::size_t size() const noexcept { return trees_.size(); }

    /// Leaf slot of `peer` in `m`'s tree, when the IP path exists.
    [[nodiscard]] std::optional<int> leaf_slot(
        overlay::MemberIndex m, overlay::MemberIndex peer) const;

    /// IP links of the path m -> peer, as a span into arena storage (valid
    /// for the lifetime of this OverlayTrees).  Throws when no path exists.
    [[nodiscard]] std::span<const net::LinkId> path_links(
        overlay::MemberIndex m, overlay::MemberIndex peer) const;

    /// IP links of m's path to leaf slot `slot` (span into the arena).
    /// The per-round probe loops index leaves directly, skipping even the
    /// peer -> slot resolution.  Throws std::out_of_range for a slot m's
    /// tree does not have.
    [[nodiscard]] std::span<const net::LinkId> slot_path_links(
        overlay::MemberIndex m, int slot) const;

    /// Overlay identifiers of `m`'s tree leaves, in leaf-slot order (the
    /// argument make_snapshot() wants).
    [[nodiscard]] const std::vector<util::NodeId>& leaf_ids(
        overlay::MemberIndex m) const {
        return leaf_ids_.at(m);
    }

    /// Member behind each leaf slot of m's tree.
    [[nodiscard]] const std::vector<overlay::MemberIndex>& leaf_members(
        overlay::MemberIndex m) const {
        return leaf_members_.at(m);
    }

    /// All (member, routing peer) paths with at least one hop, member-major
    /// and in leaf-slot order: the failure model's candidate set.
    [[nodiscard]] std::span<const net::PathView> member_peer_paths() const {
        return paths_;
    }

    /// Bytes of arena-backed path storage (diagnostics / bench reporting).
    [[nodiscard]] std::size_t path_bytes() const noexcept;

  private:
    /// One arena per build chunk backs every per-(member, peer) router/link
    /// sequence.  Declared first so the views below die before the storage
    /// they point into.
    std::vector<util::Arena> arenas_;
    std::vector<ProbeTree> trees_;
    /// Per member: (peer, leaf slot) sorted by peer for binary search.  A
    /// member has a few dozen routing peers, so a sorted probe beats a hash
    /// map on both locality and determinism.
    std::vector<std::vector<std::pair<overlay::MemberIndex, int>>>
        leaf_slots_;
    /// Every m -> peer path with a hop, member-major in leaf-slot order:
    /// member m's slot s is paths_[first_path_[m] + s].
    std::vector<net::PathView> paths_;
    std::vector<std::size_t> first_path_;
    std::vector<std::vector<util::NodeId>> leaf_ids_;
    std::vector<std::vector<overlay::MemberIndex>> leaf_members_;
};

}  // namespace concilium::tomography
