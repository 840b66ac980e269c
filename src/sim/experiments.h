// The paper's simulation experiments (Sections 4.2-4.3) plus this repo's
// ablations, all driven off a Scenario.
//
// Every experiment fans its trials out over an ExperimentDriver: trial i
// draws from util::Rng::substream(driver.seed(), i) and results are merged
// in trial order, so a given driver seed produces bit-identical results at
// any worker count.

#pragma once

#include <cstdint>

#include "core/blame.h"
#include "core/steward.h"
#include "sim/experiment_driver.h"
#include "sim/scenario.h"
#include "util/stats.h"

namespace concilium::sim {

// ---------------------------------------------------------------- Figure 4

struct CoverageCurve {
    /// coverage[k]: mean fraction of F_H links covered by the own tree plus
    /// k peer trees (k = 0 is "probes only its own tree").
    std::vector<double> coverage;
    /// vouchers[k]: mean number of trees testing a covered link.
    std::vector<double> vouchers;
    /// Number of sampled hosts contributing to each point.
    std::vector<int> hosts_counted;
};

/// Averages forest coverage over `sample_hosts` random members, including
/// peer trees in random order (Figure 4).  One trial = one sampled host.
CoverageCurve run_coverage_experiment(const Scenario& scenario,
                                      std::size_t max_peer_trees,
                                      std::size_t sample_hosts,
                                      const ExperimentDriver& driver);

// ---------------------------------------------------------------- Figure 5

struct BlameExperimentParams {
    /// Number of (A, B, C, t) judgments sampled.  The paper enumerates all
    /// routing-constrained triples x 10 times; sampling converges to the
    /// same pdf and keeps default runtimes sane.
    std::size_t samples = 50000;
    /// "nodes receiving less than 40% blame are proclaimed innocent".
    double guilty_threshold = 0.4;
    int histogram_bins = 50;
    /// Ablation hook: the fuzzy OR used to combine per-link confidences.
    core::BlameParams::OrOperator or_operator =
        core::BlameParams::OrOperator::kMax;
    /// Ablation hook: cap on how many peers' snapshots each judge consults
    /// (Section 4.2's vouching argument); SIZE_MAX = unlimited.
    std::size_t reporter_cap = SIZE_MAX;
};

struct BlameExperimentResult {
    util::Histogram faulty_pdf;     ///< blame assigned to faulty forwarders
    util::Histogram nonfaulty_pdf;  ///< blame assigned to innocent forwarders
    std::size_t faulty_samples = 0;
    std::size_t nonfaulty_samples = 0;
    /// Guilty-verdict rates at the threshold (feed Figure 6's binomial
    /// model): p_good is the innocent conviction rate, p_faulty the faulty
    /// conviction rate.
    double p_good = 0.0;
    double p_faulty = 0.0;
};

/// Samples triples (A, B, C) with B in A's routing state and C in B's, picks
/// random times, and evaluates the blame A would assign B for an
/// unacknowledged message (Figure 5).  B is "faulty" when B -> C was good at
/// that moment (so only B could have dropped the message), "non-faulty" when
/// a link in B -> C was down.
BlameExperimentResult run_blame_experiment(const Scenario& scenario,
                                           const BlameExperimentParams& params,
                                           const ExperimentDriver& driver);

// ------------------------------------------- end-to-end attribution (ours)

struct AttributionExperimentParams {
    std::size_t samples = 2000;
    /// When false, skip recursive revision: the sender's own verdict is
    /// final (guilty == blame its first hop).  This is the paper's Section
    /// 3.5 mechanism ablated away.
    bool enable_revision = true;
    /// Only judge routes with at least this many overlay nodes; longer
    /// routes exercise deeper revision chains.
    std::size_t min_route_length = 3;
};

struct AttributionExperimentResult {
    std::size_t samples = 0;
    std::size_t cause_forwarder = 0;  ///< drops caused by a faulty forwarder
    std::size_t cause_network = 0;    ///< drops caused by a down IP link
    std::size_t correct = 0;          ///< blame landed on the true culprit
    std::size_t blamed_wrong_node = 0;
    std::size_t blamed_network_wrongly = 0;  ///< forwarder drop called network
    std::size_t blamed_node_wrongly = 0;     ///< network drop pinned on a node

    [[nodiscard]] double accuracy() const {
        return samples == 0 ? 0.0
                            : static_cast<double>(correct) /
                                  static_cast<double>(samples);
    }
};

/// Routes messages end to end, injects forwarder and network drops, runs the
/// full recursive-stewardship attribution of Section 3.5, and scores the
/// final blame against ground truth.
AttributionExperimentResult run_attribution_experiment(
    const Scenario& scenario, const AttributionExperimentParams& params,
    const ExperimentDriver& driver);

}  // namespace concilium::sim
