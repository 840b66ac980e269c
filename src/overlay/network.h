// A secure Pastry overlay instance.
//
// OverlayNetwork holds the global membership (certificates issued by the CA)
// and constructs, for every member, a leaf set plus the *secure* jump table,
// whose (i, j) entry is the live host closest to the point p = local id with
// digit i replaced by j (Castro's constrained routing, Section 2) --
// Concilium messages always travel on these.  The *standard* table's
// unconstrained (proximity-style) choices among all hosts matching the
// (prefix, digit) rule are drawn but not kept: nothing reads them, and the
// draws fix the rest of the world's random stream.
//
// The evaluation does not model churn ("We did not model fluctuating machine
// availability", Section 4.2), so tables are built once from the global view;
// the protocol logic layered on top never peeks at global state.

#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "crypto/certificates.h"
#include "net/topology.h"
#include "overlay/jump_table.h"
#include "overlay/leaf_set.h"
#include "util/ids.h"
#include "util/rng.h"

namespace concilium::overlay {

struct Member {
    crypto::NodeCertificate certificate;
    crypto::KeyPair keys;  ///< retained by the simulated host itself

    [[nodiscard]] const util::NodeId& id() const noexcept {
        return certificate.node_id;
    }
    [[nodiscard]] net::RouterId ip() const noexcept { return certificate.ip; }
};

class OverlayNetwork {
  public:
    /// Identifier geometry of every jump table: 32 base-16 digits (Pastry's
    /// 128-bit identifiers with b = 4), so a table has 32 rows of 16 columns.
    static constexpr util::OverlayGeometry kGeometry{.digits = 32};

    /// Builds leaf sets and secure jump tables for every member.  Members
    /// must have distinct identifiers.  rng draws the standard tables'
    /// unconstrained entry choices only, which no table keeps; the secure
    /// tables are deterministic.
    OverlayNetwork(std::vector<Member> members, util::Rng& rng);

    [[nodiscard]] std::size_t size() const noexcept { return members_.size(); }
    [[nodiscard]] const Member& member(MemberIndex i) const {
        return members_.at(i);
    }

    [[nodiscard]] std::optional<MemberIndex> index_of(
        const util::NodeId& id) const;

    [[nodiscard]] const LeafSet& leaf_set(MemberIndex i) const {
        return leaf_sets_.at(i);
    }
    [[nodiscard]] const JumpTable& secure_table(MemberIndex i) const {
        return secure_tables_.at(i);
    }

    /// All distinct routing peers of member i: secure-table entries plus the
    /// leaf set.  These are the leaves of i's tomography tree T_H.
    [[nodiscard]] const std::vector<MemberIndex>& routing_peers(
        MemberIndex i) const {
        return routing_peers_.at(i);
    }

    /// The member whose identifier is numerically closest to key (ring
    /// distance, ties to the clockwise side).
    [[nodiscard]] MemberIndex root_of(const util::NodeId& key) const;

    /// Next secure-routing hop from member i toward key, or nullopt when i
    /// is already the closest node (message delivered).
    [[nodiscard]] std::optional<MemberIndex> next_hop(
        MemberIndex i, const util::NodeId& key) const;

    /// Full secure route from member i to the root of key (inclusive of
    /// both endpoints).  Throws std::runtime_error if routing fails to
    /// converge (cannot happen in a well-formed static overlay).
    [[nodiscard]] std::vector<MemberIndex> route(MemberIndex i,
                                                 const util::NodeId& key) const;

    /// Leaf-spacing population estimate for member i (Section 3.1).
    [[nodiscard]] double estimate_population(MemberIndex i) const;

  private:
    void build_leaf_sets();
    void build_tables(util::Rng& rng);
    void build_routing_peers();

    /// Members whose ids share the first `digits` digits of p, as a
    /// contiguous range [first, last) of sorted-order positions.
    [[nodiscard]] std::pair<std::size_t, std::size_t> prefix_range(
        const util::NodeId& p, int digits) const;

    std::vector<Member> members_;
    std::vector<MemberIndex> sorted_;  ///< member indices in id order
    /// NodeId -> member index, the one sanctioned resolution point where
    /// identifiers enter from the wire.
    std::unordered_map<util::NodeId, MemberIndex, util::NodeIdHash>
        by_id_;  // hot-path-lint: boundary
    std::vector<LeafSet> leaf_sets_;
    std::vector<JumpTable> secure_tables_;
    std::vector<std::vector<MemberIndex>> routing_peers_;
};

/// Convenience: admits `count` hosts (drawn from end_hosts without
/// replacement) through the CA and builds the overlay.
OverlayNetwork build_overlay_from_hosts(
    const std::vector<net::RouterId>& hosts, std::size_t count,
    crypto::CertificateAuthority& ca, util::Rng& rng);

}  // namespace concilium::overlay
