#include "tomography/probing.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/metrics.h"

namespace concilium::tomography {

namespace {

using enum ProbePlane;

/// Publishes the probe counters for freshly sampled stripes.
void count_probes(const ProbeMatrix& m) {
    using util::metrics::Registry;
    static auto& stripes =
        Registry::global().counter("tomography.stripes_sampled");
    static auto& runs = Registry::global().counter("tomography.stripe_runs");
    static auto& issued =
        Registry::global().counter("tomography.probes_issued");
    static auto& lost = Registry::global().counter("tomography.probes_lost");
    static auto& acks = Registry::global().counter("tomography.probe_acks");
    static auto& suppressed =
        Registry::global().counter("tomography.acks_suppressed");
    static auto& fabricated =
        Registry::global().counter("tomography.acks_fabricated");
    std::int64_t ones[3] = {0, 0, 0};  // per plane
    for (std::size_t r = 0; r < m.runs(); ++r) {
        const auto weight = static_cast<std::int64_t>(m.run_stripes(r));
        for (const ProbePlane p : {kReceived, kValidAck, kFabricatedAck}) {
            for (const std::uint64_t w : m.run_row(p, r)) {
                ones[static_cast<int>(p)] += weight * std::popcount(w);
            }
        }
    }
    const auto probes = static_cast<std::int64_t>(m.size() * m.leaf_count());
    stripes.add(static_cast<std::int64_t>(m.size()));
    runs.add(static_cast<std::int64_t>(m.runs()));
    issued.add(probes);
    lost.add(probes - ones[0]);
    acks.add(ones[1]);
    suppressed.add(ones[0] - ones[1]);
    fabricated.add(ones[2]);
}

/// Samples `count` stripes of the tree, `spacing` apart from t0.
ProbeMatrix sample_stripes(const ProbeTree& tree,
                           PassProbabilityFn pass_probability,
                           util::SimTime t0, util::SimTime spacing,
                           std::size_t count,
                           std::span<const LeafBehavior> behaviors,
                           util::Rng& rng, const char* caller) {
    const std::size_t leaves = tree.leaves().size();
    if (!behaviors.empty() && behaviors.size() != leaves) {
        throw std::invalid_argument(std::string(caller) +
                                    ": behaviors must match leaf count");
    }
    const auto parent = tree.parent();
    const auto via = tree.via();
    const auto leaf_slot = tree.leaf_slot();
    ProbeMatrix out(leaves);
    // The stripe being drawn: its received, valid-ack and fabricated-ack
    // rows, in the matrix's plane order.
    const std::size_t words = out.words();
    std::vector<std::uint64_t> rows(3 * words, 0);
    const std::span<std::uint64_t> received(rows.data(), words);
    const std::span<std::uint64_t> valid(rows.data() + words, words);
    const std::span<std::uint64_t> fabricated(rows.data() + 2 * words, words);
    // Leaves that may suppress or fabricate; every other leaf acks exactly
    // the probes it received and draws nothing.
    std::vector<std::uint32_t> misbehaving;
    for (std::size_t leaf = 0; leaf < behaviors.size(); ++leaf) {
        if (behaviors[leaf].suppress_ack_probability > 0.0 ||
            behaviors[leaf].fabricate_acks) {
            misbehaving.push_back(static_cast<std::uint32_t>(leaf));
        }
    }
    // Per tree node: whether the last full pass reached it (the root
    // always is) and, when there is a later stripe to reuse it for, its
    // link's window.  A stripe whose time is below every window's end, in
    // a tree where no link draws, reaches exactly the leaves the previous
    // one did.  A single stripe has nothing to reuse, so it keeps no
    // windows.
    std::vector<char> reached(tree.node_count(), 1);
    std::vector<net::PassWindow> window(
        count > 1 ? tree.node_count() : 0,
        net::PassWindow{1.0, std::numeric_limits<util::SimTime>::min()});
    util::SimTime next_expiry = std::numeric_limits<util::SimTime>::min();
    bool any_drawn = false;
    bool leaves_drew = false;
    for (std::size_t i = 0; i < count;) {
        const util::SimTime t = t0 + static_cast<util::SimTime>(i) * spacing;
        // Below the earliest window end, in a tree where no link draws, the
        // stripe reaches what the previous one did, still in `received`.
        const bool received_again = t < next_expiry && !any_drawn;
        if (received_again && !leaves_drew) {
            // Nothing can draw before the earliest window end, so every
            // stripe until then repeats the last one: extend its run by
            // all of them at once.
            std::size_t same = count - i;
            if (spacing > 0 &&
                t + static_cast<util::SimTime>(same - 1) * spacing >=
                    next_expiry) {
                same = static_cast<std::size_t>(
                    (next_expiry - t + spacing - 1) / spacing);
            }
            out.append(rows, same);
            i += same;
            continue;
        }
        if (!received_again) {
            // One Bernoulli draw per tree link, in links() order, models the
            // stripe's multicast emulation: packets issued back to back
            // share interior fate.  Rng::bernoulli draws only for a
            // probability strictly inside (0, 1).  Parents precede
            // children, so a node is reached iff its parent was and its own
            // link passed.  A link is asked about again only once its
            // window has ended.
            std::fill(received.begin(), received.end(), 0);
            next_expiry = net::kForever;
            any_drawn = false;
            for (std::size_t k = 1; k < reached.size(); ++k) {
                double pass;
                if (window.empty()) {
                    pass = pass_probability(via[k], t).probability;
                } else {
                    net::PassWindow& w = window[k];
                    if (t >= w.until) w = pass_probability(via[k], t);
                    next_expiry = std::min(next_expiry, w.until);
                    any_drawn = any_drawn ||
                                (w.probability > 0.0 && w.probability < 1.0);
                    pass = w.probability;
                }
                reached[k] = static_cast<char>(
                    rng.bernoulli(pass) &&
                    reached[static_cast<std::size_t>(parent[k])] != 0);
                if (reached[k] != 0 && leaf_slot[k] != ProbeTree::kNoLeaf) {
                    const auto slot = static_cast<std::size_t>(leaf_slot[k]);
                    received[slot / 64] |= std::uint64_t{1} << (slot % 64);
                }
            }
        }

        // Then the leaves answer, in leaf-slot order.  An honest leaf acks
        // what it received; only the misbehaving ones draw.
        std::copy(received.begin(), received.end(), valid.begin());
        std::fill(fabricated.begin(), fabricated.end(), 0);
        leaves_drew = false;
        for (const std::uint32_t leaf : misbehaving) {
            const LeafBehavior& b = behaviors[leaf];
            const std::uint64_t bit = std::uint64_t{1} << (leaf % 64);
            if (test_bit(received, leaf)) {
                const double p = b.suppress_ack_probability;
                leaves_drew = leaves_drew || (p > 0.0 && p < 1.0);
                if (rng.bernoulli(p)) valid[leaf / 64] &= ~bit;
            } else if (b.fabricate_acks) {
                // The nonce travelled inside the lost probe; a fabricated
                // ack cannot echo it (Section 3.3).
                fabricated[leaf / 64] |= bit;
            }
        }
        out.append(rows);
        ++i;
    }
    count_probes(out);
    return out;
}

}  // namespace

std::vector<int> ProbeMatrix::ack_counts() const {
    std::vector<int> counts(leaves_, 0);
    for (std::size_t r = 0; r < runs(); ++r) {
        const auto acks = run_row(kValidAck, r);
        const auto weight = static_cast<int>(run_stripes(r));
        for (std::size_t w = 0; w < acks.size(); ++w) {
            for (auto bits = acks[w]; bits != 0; bits &= bits - 1) {
                counts[64 * w + std::countr_zero(bits)] += weight;
            }
        }
    }
    return counts;
}

std::span<const std::uint64_t> ProbeMatrix::row(
    ProbePlane p, std::size_t stripe) const noexcept {
    // The first run whose end lies past the stripe.
    const auto end =
        std::upper_bound(bounds_.begin() + 1, bounds_.end(), stripe);
    return run_row(p, static_cast<std::size_t>(end - bounds_.begin() - 1));
}

void ProbeMatrix::append(std::span<const std::uint64_t> rows,
                         std::size_t stripes) {
    if (rows.size() != 3 * words_) {
        throw std::invalid_argument("ProbeMatrix::append: rows are " +
                                    std::to_string(rows.size()) +
                                    " words, expected " +
                                    std::to_string(3 * words_));
    }
    if (stripes == 0) return;
    if (runs() > 0 &&
        std::equal(rows.begin(), rows.end(),
                   bits_.end() - static_cast<std::ptrdiff_t>(rows.size()))) {
        bounds_.back() += stripes;
        return;
    }
    if (bounds_.empty()) {
        bounds_.reserve(2);
        bounds_.push_back(0);
    }
    bits_.insert(bits_.end(), rows.begin(), rows.end());
    bounds_.push_back(bounds_.back() + stripes);
}

void ProbeMatrix::require_width(std::size_t leaves, const char* caller) const {
    if (leaves_ != leaves) {
        throw std::invalid_argument(
            std::string(caller) + ": session is " + std::to_string(leaves_) +
            " leaves wide, expected " + std::to_string(leaves));
    }
}

ProbeMatrix sample_striped_probe(const ProbeTree& tree,
                                 PassProbabilityFn pass_probability,
                                 util::SimTime t,
                                 std::span<const LeafBehavior> behaviors,
                                 util::Rng& rng) {
    return sample_stripes(tree, pass_probability, t, 0, 1, behaviors, rng,
                          "sample_striped_probe");
}

HeavyweightResult run_heavyweight_session(
    const ProbeTree& tree, PassProbabilityFn pass_probability,
    util::SimTime t0, const HeavyweightParams& params,
    std::span<const LeafBehavior> behaviors, util::Rng& rng) {
    if (params.probe_count < 1) {
        throw std::invalid_argument(
            "run_heavyweight_session: probe_count must be positive");
    }
    if (params.spacing < 0) {
        throw std::invalid_argument(
            "run_heavyweight_session: spacing must not be negative");
    }
    static auto& sessions = util::metrics::Registry::global().counter(
        "tomography.heavyweight_sessions");
    sessions.add(1);
    HeavyweightResult result;
    result.probes = sample_stripes(
        tree, pass_probability, t0, params.spacing,
        static_cast<std::size_t>(params.probe_count), behaviors, rng,
        "run_heavyweight_session");
    result.started_at = t0;
    result.finished_at = t0 + params.probe_count * params.spacing;

    result.ack_counts = result.probes.ack_counts();
    return result;
}

LightweightResult run_lightweight_probe(
    const ProbeTree& tree, PassProbabilityFn pass_probability,
    util::SimTime t, int retries, std::span<const LeafBehavior> behaviors,
    util::Rng& rng) {
    static auto& rounds = util::metrics::Registry::global().counter(
        "tomography.lightweight_rounds");
    rounds.add(1);
    // Only nonce-valid acknowledgments count (Section 3.3): a fabricated
    // ack cannot make a leaf look responsive.  After the first stripe, "it
    // sends a few more probes to silent peers to determine if they are
    // truly offline or situated along a lossy IP link" (Section 3.2).
    const std::size_t n = tree.leaves().size();
    std::vector<bool> responsive(n, false);
    for (int r = 0; r <= std::max(retries, 0); ++r) {
        if (r > 0 && std::find(responsive.begin(), responsive.end(), false) ==
                         responsive.end()) {
            break;
        }
        const auto stripe = sample_striped_probe(
            tree, pass_probability, t + r * util::kSecond, behaviors, rng);
        const auto acks = stripe.run_row(kValidAck, 0);  // its only run
        for (std::size_t leaf = 0; leaf < n; ++leaf) {
            if (test_bit(acks, leaf)) responsive[leaf] = true;
        }
    }
    return LightweightResult{std::move(responsive)};
}

}  // namespace concilium::tomography
