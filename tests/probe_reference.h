// A stripe-by-stripe reference for run-length probe sessions, shared by
// the unit tests and the nightly property sweep.  It reads a session only
// through its stripe accessors, row(plane, i) and test(plane, i, leaf),
// and checks the session's runs, and every consumer that weights a run by
// its stripe count, against what a walk over the stripes gives.

#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "tomography/inference.h"
#include "tomography/probing.h"
#include "tomography/tree.h"
#include "tomography/verification.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace concilium::tomography::reference {

inline constexpr ProbePlane kPlanes[] = {
    ProbePlane::kReceived, ProbePlane::kValidAck, ProbePlane::kFabricatedAck};

/// The counters one heavyweight session publishes, in a fixed order.
inline std::vector<std::int64_t> probe_counters() {
    std::vector<std::int64_t> out;
    for (const char* name :
         {"tomography.heavyweight_sessions", "tomography.stripes_sampled",
          "tomography.stripe_runs", "tomography.probes_issued",
          "tomography.probes_lost", "tomography.probe_acks",
          "tomography.acks_suppressed", "tomography.acks_fabricated"}) {
        out.push_back(util::metrics::Registry::global().counter(name).value());
    }
    return out;
}

/// Runs cover size() stripes, each holds at least one, and no two adjacent
/// runs have equal rows.
inline void expect_maximal_runs(const ProbeMatrix& m) {
    std::size_t covered = 0;
    for (std::size_t r = 0; r < m.runs(); ++r) {
        EXPECT_GE(m.run_stripes(r), 1U) << "run " << r;
        covered += m.run_stripes(r);
        if (r == 0) continue;
        EXPECT_FALSE(std::ranges::all_of(kPlanes, [&](ProbePlane p) {
            return std::ranges::equal(m.run_row(p, r - 1), m.run_row(p, r));
        })) << "runs " << r - 1 << " and " << r << " are equal";
    }
    EXPECT_EQ(covered, m.size());
}

/// The same valid-ack and fabricated-ack rows as `m`, stripe by stripe,
/// under a received plane that alternates between no leaf and every leaf:
/// each stripe is its own run, so a consumer walks it stripe by stripe.
/// MINC and both feedback checks read no received row.
inline ProbeMatrix stripe_by_stripe_twin(const ProbeMatrix& m) {
    const std::size_t words = m.words();
    ProbeMatrix twin(m.leaf_count());
    std::vector<std::uint64_t> rows(3 * words);
    for (std::size_t i = 0; i < m.size(); ++i) {
        std::fill(rows.begin(), rows.end(), 0);
        for (std::size_t leaf = 0; i % 2 == 1 && leaf < m.leaf_count();
             ++leaf) {
            rows[leaf / 64] |= std::uint64_t{1} << (leaf % 64);
        }
        std::ranges::copy(m.row(ProbePlane::kValidAck, i),
                          rows.begin() + static_cast<std::ptrdiff_t>(words));
        std::ranges::copy(
            m.row(ProbePlane::kFabricatedAck, i),
            rows.begin() + static_cast<std::ptrdiff_t>(2 * words));
        twin.append(rows);
    }
    return twin;
}

inline void expect_same_inference(const InferenceResult& a,
                                  const InferenceResult& b) {
    EXPECT_EQ(a.cumulative_pass, b.cumulative_pass);
    ASSERT_EQ(a.links.size(), b.links.size());
    for (std::size_t i = 0; i < a.links.size(); ++i) {
        EXPECT_EQ(a.links[i].link, b.links[i].link);
        EXPECT_EQ(a.links[i].loss, b.links[i].loss) << "link " << i;
        EXPECT_EQ(a.links[i].chain_length, b.links[i].chain_length);
        EXPECT_EQ(a.links[i].observable, b.links[i].observable);
    }
}

/// Runs one heavyweight session and checks it against the reference: its
/// runs are maximal; its ack counts, both feedback checks, the exclusion
/// of every flagged or misbehaving leaf, MINC before and after that
/// exclusion, and the session's tomography.* counter deltas all equal what
/// a walk over its stripes gives.  Returns the session.
inline HeavyweightResult expect_runs_match_stripes(
    const ProbeTree& tree, PassProbabilityFn pass, util::SimTime t0,
    const HeavyweightParams& params, std::span<const LeafBehavior> behaviors,
    util::Rng& rng) {
    const std::vector<std::int64_t> before = probe_counters();
    HeavyweightResult session =
        run_heavyweight_session(tree, pass, t0, params, behaviors, rng);
    std::vector<std::int64_t> delta = probe_counters();
    for (std::size_t c = 0; c < delta.size(); ++c) delta[c] -= before[c];

    const ProbeMatrix& m = session.probes;
    const std::size_t leaves = tree.leaves().size();
    EXPECT_EQ(m.size(), static_cast<std::size_t>(params.probe_count));
    expect_maximal_runs(m);

    // Counts stripe by stripe.
    std::int64_t ones[3] = {0, 0, 0};
    std::vector<int> acks(leaves, 0);
    std::vector<bool> fabricators(leaves, false);
    for (std::size_t i = 0; i < m.size(); ++i) {
        for (const ProbePlane p : kPlanes) {
            for (const std::uint64_t w : m.row(p, i)) {
                ones[static_cast<int>(p)] += std::popcount(w);
            }
        }
        for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
            if (m.test(ProbePlane::kValidAck, i, leaf)) ++acks[leaf];
            if (m.test(ProbePlane::kFabricatedAck, i, leaf)) {
                fabricators[leaf] = true;
            }
        }
    }
    EXPECT_EQ(session.ack_counts, acks);
    EXPECT_EQ(detect_fabricators(leaves, m), fabricators);
    const auto probes = static_cast<std::int64_t>(m.size() * leaves);
    EXPECT_EQ(delta, (std::vector<std::int64_t>{
                         1, static_cast<std::int64_t>(m.size()),
                         static_cast<std::int64_t>(m.runs()), probes,
                         probes - ones[0], ones[1], ones[0] - ones[1],
                         ones[2]}));

    // MINC and the suppressor check over a session walked stripe by stripe.
    if (leaves == 0) return session;
    const ProbeMatrix twin = stripe_by_stripe_twin(m);
    EXPECT_EQ(twin.runs(), m.size());
    const SuppressionTestParams suppression;
    const std::vector<bool> suppressors =
        detect_suppressors(tree, m, suppression);
    EXPECT_EQ(suppressors, detect_suppressors(tree, twin, suppression));
    expect_same_inference(infer_link_loss(tree, m),
                          infer_link_loss(tree, twin));

    // Exclusion masks feedback stripe by stripe and merges what it made
    // equal.
    std::vector<bool> excluded(leaves, false);
    for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
        excluded[leaf] =
            fabricators[leaf] || suppressors[leaf] ||
            (!behaviors.empty() &&
             (behaviors[leaf].suppress_ack_probability > 0.0 ||
              behaviors[leaf].fabricate_acks));
    }
    const ProbeMatrix cleaned = exclude_leaves(m, excluded);
    expect_maximal_runs(cleaned);
    EXPECT_EQ(cleaned.size(), m.size());
    for (std::size_t i = 0; i < m.size(); ++i) {
        for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
            EXPECT_EQ(cleaned.test(ProbePlane::kReceived, i, leaf),
                      m.test(ProbePlane::kReceived, i, leaf));
            for (const ProbePlane p :
                 {ProbePlane::kValidAck, ProbePlane::kFabricatedAck}) {
                EXPECT_EQ(cleaned.test(p, i, leaf),
                          !excluded[leaf] && m.test(p, i, leaf))
                    << "stripe " << i << " leaf " << leaf;
            }
        }
    }
    expect_same_inference(infer_link_loss(tree, cleaned),
                          infer_link_loss(tree, exclude_leaves(twin, excluded)));
    return session;
}

}  // namespace concilium::tomography::reference
