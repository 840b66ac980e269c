#include "tomography/verification.h"

#include <cstdint>

namespace concilium::tomography {

using enum ProbePlane;

std::vector<bool> detect_fabricators(std::size_t leaf_count,
                                     const ProbeMatrix& probes) {
    probes.require_width(leaf_count, "detect_fabricators");
    std::vector<std::uint64_t> fabricated(probes.words(), 0);
    for (std::size_t r = 0; r < probes.runs(); ++r) {
        const auto row = probes.run_row(kFabricatedAck, r);
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

        // A run counts once per stripe it holds.
        int evidence = 0;
        int acked_given_evidence = 0;
        for (std::size_t r = 0; r < probes.runs(); ++r) {
            const auto acks = probes.run_row(kValidAck, r);
            if (!rows_meet(acks, siblings)) continue;
            const auto weight = static_cast<int>(probes.run_stripes(r));
            evidence += weight;
            if (test_bit(acks, leaf)) acked_given_evidence += weight;
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
    const std::size_t words = probes.words();
    std::vector<std::uint64_t> keep(words, ~std::uint64_t{0});
    for (std::size_t leaf = 0; leaf < excluded.size(); ++leaf) {
        if (excluded[leaf]) {
            keep[leaf / 64] &= ~(std::uint64_t{1} << (leaf % 64));
        }
    }
    // Mask each run's feedback; append() merges runs the mask made equal.
    ProbeMatrix out(probes.leaf_count());
    std::vector<std::uint64_t> rows(3 * words);
    for (std::size_t r = 0; r < probes.runs(); ++r) {
        for (const ProbePlane p : {kReceived, kValidAck, kFabricatedAck}) {
            const auto in = probes.run_row(p, r);
            const std::size_t base = static_cast<std::size_t>(p) * words;
            for (std::size_t w = 0; w < words; ++w) {
                rows[base + w] = p == kReceived ? in[w] : in[w] & keep[w];
            }
        }
        out.append(rows, probes.run_stripes(r));
    }
    return out;
}

}  // namespace concilium::tomography
