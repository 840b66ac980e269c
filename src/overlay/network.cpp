#include "overlay/network.h"

#include <algorithm>
#include <stdexcept>

namespace concilium::overlay {

namespace {

/// Lowest / highest identifiers sharing the first `digits` digits of p.
std::pair<util::NodeId, util::NodeId> prefix_bounds(const util::NodeId& p,
                                                    int digits) {
    auto lo = p.bytes();
    auto hi = p.bytes();
    for (int d = digits; d < util::NodeId::kDigits; ++d) {
        const std::size_t byte = static_cast<std::size_t>(d) / 2;
        if (d % 2 == 0) {
            lo[byte] &= 0x0f;
            hi[byte] |= 0xf0;
        } else {
            lo[byte] &= 0xf0;
            hi[byte] |= 0x0f;
        }
    }
    return {util::NodeId(lo), util::NodeId(hi)};
}

}  // namespace

OverlayNetwork::OverlayNetwork(std::vector<Member> members, util::Rng& rng)
    : members_(std::move(members)) {
    if (members_.empty()) {
        throw std::invalid_argument("OverlayNetwork: no members");
    }
    sorted_.resize(members_.size());
    for (MemberIndex i = 0; i < members_.size(); ++i) sorted_[i] = i;
    std::sort(sorted_.begin(), sorted_.end(),
              [this](MemberIndex a, MemberIndex b) {
                  return members_[a].id() < members_[b].id();
              });
    by_id_.reserve(members_.size());
    for (MemberIndex i = 0; i < members_.size(); ++i) {
        if (!by_id_.emplace(members_[i].id(), i).second) {
            throw std::invalid_argument("OverlayNetwork: duplicate identifier");
        }
    }
    build_leaf_sets();
    build_tables(rng);
    build_routing_peers();
}

std::optional<MemberIndex> OverlayNetwork::index_of(
    const util::NodeId& id) const {
    const auto it = by_id_.find(id);
    if (it == by_id_.end()) return std::nullopt;
    return it->second;
}

void OverlayNetwork::build_leaf_sets() {
    const std::size_t n = members_.size();
    leaf_sets_.reserve(n);
    for (MemberIndex i = 0; i < n; ++i) {
        leaf_sets_.emplace_back(members_[i].id(), LeafSet::kDefaultHalf);
    }
    // Positions of each member in ring order.
    std::vector<std::size_t> position(n);
    for (std::size_t k = 0; k < n; ++k) position[sorted_[k]] = k;
    const auto half = static_cast<std::size_t>(LeafSet::kDefaultHalf);
    for (MemberIndex i = 0; i < n; ++i) {
        const std::size_t k = position[i];
        std::vector<MemberIndex> cw;
        std::vector<MemberIndex> ccw;
        for (std::size_t step = 1; step <= half && step < n; ++step) {
            cw.push_back(sorted_[(k + step) % n]);
            ccw.push_back(sorted_[(k + n - step) % n]);
        }
        leaf_sets_[i].set_successors(std::move(cw));
        leaf_sets_[i].set_predecessors(std::move(ccw));
    }
}

std::pair<std::size_t, std::size_t> OverlayNetwork::prefix_range(
    const util::NodeId& p, int digits) const {
    const auto [lo, hi] = prefix_bounds(p, digits);
    const auto cmp = [this](MemberIndex m, const util::NodeId& id) {
        return members_[m].id() < id;
    };
    const auto first = std::lower_bound(sorted_.begin(), sorted_.end(), lo, cmp);
    // upper bound: first id strictly greater than hi
    auto last = std::lower_bound(first, sorted_.end(), hi, cmp);
    if (last != sorted_.end() && members_[*last].id() == hi) ++last;
    return {static_cast<std::size_t>(first - sorted_.begin()),
            static_cast<std::size_t>(last - sorted_.begin())};
}

void OverlayNetwork::build_tables(util::Rng& rng) {
    const std::size_t n = members_.size();
    secure_tables_.reserve(n);
    for (MemberIndex i = 0; i < n; ++i) {
        const util::NodeId& self = members_[i].id();
        JumpTable secure(self, kGeometry);
        for (int row = 0; row < kGeometry.rows(); ++row) {
            // Any candidate for this row shares a row-digit prefix with us;
            // once we are alone in that prefix block, all deeper rows are
            // empty too.
            const auto [row_first, row_last] = prefix_range(self, row);
            if (row_last - row_first <= 1) break;
            for (int col = 0; col < kGeometry.columns(); ++col) {
                const util::NodeId p = self.with_digit(row, col);
                const auto [first, last] = prefix_range(p, row + 1);
                if (first == last) continue;

                // Secure entry: the member closest to p (Section 2).  The
                // block is a contiguous id range containing p's prefix, so
                // the nearest member sits next to p's sorted position.
                const auto cmp = [this](MemberIndex m, const util::NodeId& id) {
                    return members_[m].id() < id;
                };
                const auto pos_it = std::lower_bound(
                    sorted_.begin() + static_cast<std::ptrdiff_t>(first),
                    sorted_.begin() + static_cast<std::ptrdiff_t>(last), p, cmp);
                const auto pos = static_cast<std::size_t>(pos_it - sorted_.begin());
                std::optional<MemberIndex> best;
                util::NodeId best_dist;
                for (std::size_t c = (pos > first ? pos - 1 : first);
                     c < std::min(pos + 2, last); ++c) {
                    const MemberIndex m = sorted_[c];
                    if (m == i) continue;
                    const util::NodeId d = members_[m].id().ring_distance(p);
                    if (!best || d < best_dist) {
                        best = m;
                        best_dist = d;
                    }
                }
                if (best) secure.set_slot(row, col, *best);

                // The standard table's entry, an unconstrained choice within
                // the block (proximity selection as a seeded random pick), is
                // drawn, rejection included, and kept nowhere: every later
                // draw of the world, and every digest pinned on one, follows
                // from these draws.
                const std::size_t block = last - first;
                const bool self_in_block = col == self.digit(row);
                if (block > (self_in_block ? 1u : 0u)) {
                    MemberIndex choice = i;
                    while (choice == i) {
                        choice = sorted_[first + rng.uniform_index(block)];
                    }
                }
            }
        }
        secure_tables_.push_back(std::move(secure));
    }
}

void OverlayNetwork::build_routing_peers() {
    const std::size_t n = members_.size();
    routing_peers_.resize(n);
    for (MemberIndex i = 0; i < n; ++i) {
        std::vector<MemberIndex> peers;
        for (const JumpTable::Entry& e : secure_tables_[i].entries()) {
            peers.push_back(e.member);
        }
        const auto leaves = leaf_sets_[i].all();
        peers.insert(peers.end(), leaves.begin(), leaves.end());
        std::sort(peers.begin(), peers.end());
        peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
        routing_peers_[i] = std::move(peers);
    }
}

MemberIndex OverlayNetwork::root_of(const util::NodeId& key) const {
    // Nearest by ring distance; candidates are the sorted neighbors of key.
    const auto cmp = [this](MemberIndex m, const util::NodeId& id) {
        return members_[m].id() < id;
    };
    const auto it = std::lower_bound(sorted_.begin(), sorted_.end(), key, cmp);
    const std::size_t n = sorted_.size();
    const std::size_t pos = static_cast<std::size_t>(it - sorted_.begin());
    MemberIndex best = sorted_[pos % n];
    util::NodeId best_dist = members_[best].id().ring_distance(key);
    const MemberIndex prev = sorted_[(pos + n - 1) % n];
    const util::NodeId prev_dist = members_[prev].id().ring_distance(key);
    if (prev_dist < best_dist) best = prev;
    return best;
}

std::optional<MemberIndex> OverlayNetwork::next_hop(
    MemberIndex i, const util::NodeId& key) const {
    if (root_of(key) == i) return std::nullopt;
    const util::NodeId& self = members_[i].id();
    const int row = self.shared_prefix_digits(key);
    if (row < kGeometry.rows()) {
        const auto slot = secure_tables_[i].slot(row, key.digit(row));
        if (slot.has_value()) return *slot;
    }
    // Rare case: empty slot.  Fall back to any routing peer that is strictly
    // closer to the key, preferring those that do not lose prefix progress.
    const util::NodeId self_dist = self.ring_distance(key);
    std::optional<MemberIndex> best;
    util::NodeId best_dist = self_dist;
    bool best_keeps_prefix = false;
    for (const MemberIndex peer : routing_peers_[i]) {
        const util::NodeId d = members_[peer].id().ring_distance(key);
        if (!(d < self_dist)) continue;
        const bool keeps =
            members_[peer].id().shared_prefix_digits(key) >= row;
        if (!best || (keeps && !best_keeps_prefix) ||
            (keeps == best_keeps_prefix && d < best_dist)) {
            best = peer;
            best_dist = d;
            best_keeps_prefix = keeps;
        }
    }
    return best;
}

std::vector<MemberIndex> OverlayNetwork::route(MemberIndex i,
                                               const util::NodeId& key) const {
    std::vector<MemberIndex> hops{i};
    MemberIndex cur = i;
    const MemberIndex root = root_of(key);
    for (int step = 0; cur != root; ++step) {
        if (step > 128) {
            throw std::runtime_error("OverlayNetwork::route: did not converge");
        }
        const auto next = next_hop(cur, key);
        if (!next.has_value()) {
            throw std::runtime_error("OverlayNetwork::route: dead end");
        }
        cur = *next;
        hops.push_back(cur);
    }
    return hops;
}

double OverlayNetwork::estimate_population(MemberIndex i) const {
    return leaf_sets_[i].estimate_population(
        [this](MemberIndex m) { return members_[m].id(); });
}

OverlayNetwork build_overlay_from_hosts(
    const std::vector<net::RouterId>& hosts, std::size_t count,
    crypto::CertificateAuthority& ca, util::Rng& rng) {
    if (count > hosts.size()) {
        throw std::invalid_argument(
            "build_overlay_from_hosts: not enough end hosts");
    }
    const auto chosen = rng.sample_indices(hosts.size(), count);
    std::vector<Member> members;
    members.reserve(count);
    for (const std::size_t h : chosen) {
        auto admission = ca.admit(hosts[h]);
        members.push_back(
            Member{std::move(admission.certificate), std::move(admission.keys)});
    }
    return OverlayNetwork(std::move(members), rng);
}

}  // namespace concilium::overlay
