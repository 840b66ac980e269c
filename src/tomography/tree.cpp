#include "tomography/tree.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace concilium::tomography {

ProbeTree::ProbeTree(net::RouterId root, std::span<const net::PathView> paths)
    : root_(root), parent_{-1}, via_{net::kInvalidLink}, leaf_slot_{kNoLeaf} {
    // Router -> node, to graft each path onto the ones before it.
    std::unordered_map<net::RouterId, int> node_of{{root, 0}};
    for (const net::PathView& path : paths) {
        if (path.links.empty()) continue;
        if (path.routers.front() != root_) {
            throw std::invalid_argument(
                "ProbeTree: path does not start at root");
        }
        int cur = 0;
        for (std::size_t hop = 0; hop < path.links.size(); ++hop) {
            const net::LinkId link = path.links[hop];
            const auto [it, added] = node_of.try_emplace(
                path.routers[hop + 1], static_cast<int>(parent_.size()));
            if (added) {
                parent_.push_back(cur);
                via_.push_back(link);
                leaf_slot_.push_back(kNoLeaf);
            } else if (via_[static_cast<std::size_t>(it->second)] != link) {
                throw std::invalid_argument(
                    "ProbeTree: paths disagree on a router's parent");
            }
            cur = it->second;
        }
        // Terminal router of this path is a probed leaf endpoint.
        int& slot = leaf_slot_[static_cast<std::size_t>(cur)];
        if (slot == kNoLeaf) {
            slot = static_cast<int>(leaves_.size());
            leaves_.push_back(path.routers[path.links.size()]);
            leaf_nodes_.push_back(cur);
        }
    }

    leaf_words_ = (leaves_.size() + 63) / 64;
    subtree_leaves_.assign(parent_.size() * leaf_words_, 0);
    for (std::size_t slot = 0; slot < leaf_nodes_.size(); ++slot) {
        for (int n = leaf_nodes_[slot]; n >= 0;
             n = parent_[static_cast<std::size_t>(n)]) {
            subtree_leaves_[static_cast<std::size_t>(n) * leaf_words_ +
                            slot / 64] |= std::uint64_t{1} << (slot % 64);
        }
    }
}

std::vector<net::LinkId> ProbeTree::path_links(int leaf_slot) const {
    std::vector<net::LinkId> out;
    for (int n = leaf_nodes_.at(static_cast<std::size_t>(leaf_slot)); n != 0;
         n = parent_[static_cast<std::size_t>(n)]) {
        out.push_back(via_[static_cast<std::size_t>(n)]);
    }
    std::reverse(out.begin(), out.end());
    return out;
}

Forest::Forest(std::span<const ProbeTree* const> trees)
    : distinct_{0}, total_{0} {
    if (trees.empty()) {
        throw std::invalid_argument("Forest: no trees");
    }
    distinct_.reserve(trees.size() + 1);
    total_.reserve(trees.size() + 1);
    std::unordered_set<net::LinkId> seen;
    for (const ProbeTree* t : trees) {
        std::size_t added = 0;
        for (const net::LinkId l : t->links()) {
            if (seen.insert(l).second) ++added;
        }
        distinct_.push_back(distinct_.back() + added);
        total_.push_back(total_.back() + t->links().size());
    }
}

double Forest::coverage(std::size_t tree_count) const {
    const std::size_t k = std::min(tree_count, distinct_.size() - 1);
    return distinct_.back() == 0
               ? 0.0
               : static_cast<double>(distinct_[k]) /
                     static_cast<double>(distinct_.back());
}

double Forest::mean_vouchers(std::size_t tree_count) const {
    // Each covered link counts once per tree holding it, so the voucher
    // total is the prefix's link count; integer sums are exact in double.
    const std::size_t k = std::min(tree_count, distinct_.size() - 1);
    return distinct_[k] == 0 ? 0.0
                             : static_cast<double>(total_[k]) /
                                   static_cast<double>(distinct_[k]);
}

}  // namespace concilium::tomography
