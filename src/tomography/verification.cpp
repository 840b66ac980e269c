#include "tomography/verification.h"

#include <cstdint>

namespace concilium::tomography {

using enum ProbePlane;

std::vector<bool> detect_fabricators(std::size_t leaf_count,
                                     const ProbeMatrix& probes) {
    probes.require_width(leaf_count, "detect_fabricators");
    std::vector<std::uint64_t> fabricated(probes.words(), 0);
    for (std::size_t i = 0; i < probes.size(); ++i) {
        const auto row = probes.row(kFabricatedAck, i);
        for (std::size_t w = 0; w < row.size(); ++w) fabricated[w] |= row[w];
    }
    std::vector<bool> flagged(leaf_count);
    for (std::size_t leaf = 0; leaf < leaf_count; ++leaf) {
        flagged[leaf] = test_bit(fabricated, leaf);
    }
    return flagged;
}

std::vector<bool> detect_suppressors(const ProbeTree& tree,
                                     const ProbeMatrix& probes,
                                     const SuppressionTestParams& params) {
    const std::size_t leaf_count = tree.leaves().size();
    probes.require_width(leaf_count, "detect_suppressors");
    std::vector<bool> flagged(leaf_count, false);
    const auto parent = tree.parent();
    std::vector<std::uint64_t> siblings(probes.words());

    // For each leaf, evidence = stripes where some leaf in a *sibling*
    // subtree acknowledged, proving delivery up to the shared ancestor.
    // The immediate parent is usually a pass-through router with a single
    // child, so we climb to the nearest ancestor that has leaf descendants
    // outside this leaf's own subtree.
    for (std::size_t leaf = 0; leaf < leaf_count; ++leaf) {
        const auto node = static_cast<std::size_t>(tree.leaf_nodes()[leaf]);
        const auto own = tree.subtree_leaves(node);
        bool any_sibling = false;
        for (int anc = parent[node]; !any_sibling && anc >= 0;
             anc = parent[static_cast<std::size_t>(anc)]) {
            const auto under =
                tree.subtree_leaves(static_cast<std::size_t>(anc));
            for (std::size_t w = 0; w < siblings.size(); ++w) {
                siblings[w] = under[w] & ~own[w];
                any_sibling = any_sibling || siblings[w] != 0;
            }
        }
        if (!any_sibling) continue;  // no cross-check possible

        int evidence = 0;
        int acked_given_evidence = 0;
        for (std::size_t i = 0; i < probes.size(); ++i) {
            const auto acks = probes.row(kValidAck, i);
            if (!rows_meet(acks, siblings)) continue;
            ++evidence;
            if (test_bit(acks, leaf)) ++acked_given_evidence;
        }
        if (evidence < params.min_evidence) continue;
        const double conditional = static_cast<double>(acked_given_evidence) /
                                   static_cast<double>(evidence);
        if (conditional < params.min_conditional_ack_rate) {
            flagged[leaf] = true;
        }
    }
    return flagged;
}

ProbeMatrix exclude_leaves(const ProbeMatrix& probes,
                           const std::vector<bool>& excluded) {
    probes.require_width(excluded.size(), "exclude_leaves");
    ProbeMatrix out = probes;
    for (std::size_t leaf = 0; leaf < excluded.size(); ++leaf) {
        if (!excluded[leaf]) continue;
        const std::uint64_t keep = ~(std::uint64_t{1} << (leaf % 64));
        for (std::size_t i = 0; i < out.size(); ++i) {
            out.row(kValidAck, i)[leaf / 64] &= keep;
            out.row(kFabricatedAck, i)[leaf / 64] &= keep;
        }
    }
    return out;
}

}  // namespace concilium::tomography
