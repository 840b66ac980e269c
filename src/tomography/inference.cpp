#include "tomography/inference.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/metrics.h"
#include "util/spans.h"

namespace concilium::tomography {

namespace {

constexpr double kEps = 1e-9;

util::metrics::Counter& solver_iterations() {
    static auto& c =
        util::metrics::Registry::global().counter("tomography.solver_iterations");
    return c;
}

/// Solves (1 - gamma_k / A) = prod_j (1 - gamma_j / A) for A in (lo, 1].
/// Returns 1.0 when the data show no shared loss above the branch point.
/// The product runs in the order given, so callers fix the child order.
double solve_branch(double gamma_self, std::span<const double> gamma_children) {
    static auto& calls =
        util::metrics::Registry::global().counter("tomography.solver_calls");
    calls.add(1);
    double lo = gamma_self;
    for (const double g : gamma_children) lo = std::max(lo, g);
    lo = std::max(lo, kEps);
    if (lo >= 1.0) return 1.0;

    const auto g_fn = [&](double a) {
        double prod = 1.0;
        for (const double g : gamma_children) prod *= (1.0 - g / a);
        return (1.0 - gamma_self / a) - prod;
    };
    // g(lo+) <= 0 (first term vanishes at gamma_self, or a child factor
    // vanishes); if g(1) < 0 there is no interior root -> no inferable
    // shared loss.
    if (g_fn(1.0) < 0.0) return 1.0;
    double a = lo + kEps;
    double b = 1.0;
    if (g_fn(a) > 0.0) return a;  // degenerate sample; clamp
    for (int iter = 0; iter < 80; ++iter) {
        const double mid = 0.5 * (a + b);
        if (g_fn(mid) <= 0.0) {
            a = mid;
        } else {
            b = mid;
        }
    }
    solver_iterations().add(80);
    return 0.5 * (a + b);
}

}  // namespace

double InferenceResult::loss_of(net::LinkId link) const {
    for (const LinkLossEstimate& e : links) {
        if (e.link == link) return e.loss;
    }
    throw std::out_of_range("InferenceResult::loss_of: unknown link");
}

InferenceResult infer_link_loss(const ProbeTree& tree,
                                const ProbeMatrix& probes) {
    if (probes.size() == 0) {
        throw std::invalid_argument("infer_link_loss: no probes");
    }
    probes.require_width(tree.leaves().size(), "infer_link_loss");
    static auto& runs =
        util::metrics::Registry::global().counter("tomography.inference_runs");
    runs.add(1);
    // Wall-clock MLE-solve span (the tomography compute hot spot); callers
    // with a sim clock add their own sim-side context.
    const util::spans::WallSpan span(
        util::spans::SpanType::kMleSolve, /*causal=*/0,
        static_cast<std::int64_t>(probes.size()));
    const auto parent = tree.parent();
    const auto leaf_slot = tree.leaf_slot();
    const std::size_t n = tree.node_count();
    const auto stripes = static_cast<double>(probes.size());

    // Children in index order, as first-child / next-sibling links.
    std::vector<int> first_child(n, -1);
    std::vector<int> next_sibling(n, -1);
    for (std::size_t c = n; c-- > 1;) {
        const auto p = static_cast<std::size_t>(parent[c]);
        next_sibling[c] = first_child[p];
        first_child[p] = static_cast<int>(c);
    }

    // Logical skeleton: the root, branch points (>= 2 children), and probed
    // endpoints are identifiable; single-child pass-through routers collapse
    // into the link chain below their nearest identifiable ancestor.
    const auto is_logical = [&](std::size_t k) {
        const int c = first_child[k];
        return k == 0 || leaf_slot[k] != ProbeTree::kNoLeaf ||
               (c >= 0 && next_sibling[static_cast<std::size_t>(c)] >= 0);
    };

    // gamma_hat[k]: fraction of stripes with a (nonce-valid) ack from some
    // leaf in k's subtree, each run counted once per stripe it holds.  A
    // logical leaf's subtree is its own slot, so its count is the slot's
    // ack count, which one pass over the runs gives for every slot; the
    // root and branch points test their subtree mask against each run.  A
    // pass-through router's subtree holds exactly its only child's leaves,
    // so bottom-up it copies the child's gamma.
    const std::vector<int> acks = probes.ack_counts();
    const auto own_gamma = [&](std::size_t k) {
        const auto slot = static_cast<std::size_t>(leaf_slot[k]);
        return static_cast<double>(acks[slot]) / stripes;
    };
    std::vector<double> gamma(n);
    for (std::size_t k = n; k-- > 0;) {
        if (!is_logical(k)) {
            gamma[k] = gamma[static_cast<std::size_t>(first_child[k])];
            continue;
        }
        if (first_child[k] < 0 && leaf_slot[k] != ProbeTree::kNoLeaf) {
            gamma[k] = own_gamma(k);
            continue;
        }
        const auto mask = tree.subtree_leaves(k);
        std::size_t hits = 0;
        for (std::size_t r = 0; r < probes.runs(); ++r) {
            if (rows_meet(probes.run_row(ProbePlane::kValidAck, r), mask)) {
                hits += probes.run_stripes(r);
            }
        }
        gamma[k] = static_cast<double>(hits) / stripes;
    }

    InferenceResult result;
    result.cumulative_pass.assign(n, 1.0);
    std::vector<double> child_gammas;

    // Process logical nodes top-down (index order is parent-before-child).
    for (std::size_t k = 1; k < n; ++k) {
        if (!is_logical(k)) continue;
        // Find the nearest identifiable ancestor and count the chain links.
        auto anc = static_cast<std::size_t>(parent[k]);
        int chain_len = 1;
        while (!is_logical(anc)) {
            anc = static_cast<std::size_t>(parent[anc]);
            ++chain_len;
        }
        const double a_parent = result.cumulative_pass[anc];
        // When no probe ever reached the parent (its whole subtree is
        // silent), deeper links carry no evidence whatsoever.
        const bool parent_reachable = a_parent > 2.0 * kEps;

        double a_k;
        if (gamma[k] <= 0.0) {
            // No ack from this subtree: if probes did reach the parent, the
            // chain itself is demonstrably dead; otherwise it is merely
            // unobservable.
            a_k = kEps;
        } else if (first_child[k] < 0) {
            a_k = gamma[k];  // logical leaf: gamma IS the end-to-end pass rate
        } else {
            child_gammas.clear();
            for (int c = first_child[k]; c >= 0;
                 c = next_sibling[static_cast<std::size_t>(c)]) {
                child_gammas.push_back(gamma[static_cast<std::size_t>(c)]);
            }
            if (leaf_slot[k] != ProbeTree::kNoLeaf) {
                // A probed interior endpoint: its own acks behave like a
                // zero-loss virtual child, solved last.
                child_gammas.push_back(own_gamma(k));
            }
            a_k = child_gammas.size() >= 2
                      ? solve_branch(gamma[k], child_gammas)
                      : gamma[k];  // cannot happen for a true branch point
        }
        a_k = std::clamp(a_k, kEps, 1.0);
        const bool observable = parent_reachable;
        const double chain_pass =
            observable ? std::clamp(a_k / a_parent, 0.0, 1.0) : 1.0;
        const double chain_loss = observable ? 1.0 - chain_pass : 0.0;
        if (observable) {
            static auto& loss_hist = util::metrics::Registry::global().histogram(
                "tomography.link_loss_estimate", 0.0, 1.0, 20);
            loss_hist.observe(chain_loss);
        }

        // Record the estimate on every physical link of the chain, and give
        // intermediate chain nodes interpolated cumulative passes.
        result.cumulative_pass[k] = a_k;
        const double per_hop = std::pow(
            std::max(chain_pass, kEps), 1.0 / static_cast<double>(chain_len));
        std::size_t walk = k;
        double cum = a_k;
        for (int hop = 0; hop < chain_len; ++hop) {
            result.links.push_back(LinkLossEstimate{
                tree.via()[walk], chain_loss, chain_len, observable});
            const auto up = static_cast<std::size_t>(parent[walk]);
            if (hop + 1 < chain_len) {
                cum /= per_hop;
                result.cumulative_pass[up] = std::min(cum, 1.0);
            }
            walk = up;
        }
    }
    return result;
}

}  // namespace concilium::tomography
