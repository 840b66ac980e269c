#include "sim/experiments.h"

#include <algorithm>
#include <stdexcept>

#include "core/verdicts.h"

namespace concilium::sim {

namespace {

/// Attribution experiment: probability of injecting a forwarder drop on an
/// otherwise healthy route sample.
constexpr double kForwarderDropProbability = 0.5;
/// Attribution experiment: the paper's verdict rule (Section 4.3), guilty at
/// 40% blame or more, for the recursive revision and its baseline alike.
constexpr core::VerdictParams kVerdicts{};

/// Per-host result of one Figure-4 trial: the coverage / voucher values
/// for every forest size this host can contribute to.
struct CoverageTrial {
    std::vector<double> coverage;
    std::vector<double> vouchers;
};

/// One Figure-5 judgment attempt.  `valid` is false when no routing triple
/// was found for this substream (the attempt is rejected, exactly as the
/// sequential loop `continue`d past it).
struct BlameTrial {
    bool valid = false;
    bool path_bad = false;
    bool guilty = false;
    double blame = 0.0;
};

/// One end-to-end attribution attempt (rejected unless a drop occurred on
/// a qualifying route).
struct AttributionTrial {
    bool valid = false;
    bool network_cause = false;
    bool network_blamed = false;
    bool blamed_locus = false;
};

}  // namespace

CoverageCurve run_coverage_experiment(const Scenario& scenario,
                                      std::size_t max_peer_trees,
                                      std::size_t sample_hosts,
                                      const ExperimentDriver& driver) {
    const auto& net = scenario.overlay_net();
    sample_hosts = std::min(sample_hosts, net.size());
    // Host selection draws from a setup substream disjoint from every
    // per-trial substream.
    util::Rng setup = driver.setup_rng();
    const auto hosts = setup.sample_indices(net.size(), sample_hosts);

    CoverageCurve curve;
    curve.coverage.assign(max_peer_trees + 1, 0.0);
    curve.vouchers.assign(max_peer_trees + 1, 0.0);
    curve.hosts_counted.assign(max_peer_trees + 1, 0);

    driver.run(
        hosts.size(),
        [&](std::uint64_t trial, util::Rng& rng) {
            const auto m =
                static_cast<overlay::MemberIndex>(hosts[trial]);
            std::vector<const tomography::ProbeTree*> trees{
                &scenario.tree(m)};
            std::vector<overlay::MemberIndex> peers = net.routing_peers(m);
            rng.shuffle(peers);
            for (const overlay::MemberIndex p : peers) {
                trees.push_back(&scenario.tree(p));
            }
            const tomography::Forest forest(trees);
            CoverageTrial out;
            for (std::size_t k = 0; k <= max_peer_trees; ++k) {
                if (k + 1 > trees.size()) break;
                out.coverage.push_back(forest.coverage(k + 1));
                out.vouchers.push_back(forest.mean_vouchers(k + 1));
            }
            return out;
        },
        [&](std::uint64_t, CoverageTrial&& out) {
            for (std::size_t k = 0; k < out.coverage.size(); ++k) {
                curve.coverage[k] += out.coverage[k];
                curve.vouchers[k] += out.vouchers[k];
                ++curve.hosts_counted[k];
            }
        });

    for (std::size_t k = 0; k <= max_peer_trees; ++k) {
        if (curve.hosts_counted[k] == 0) continue;
        curve.coverage[k] /= curve.hosts_counted[k];
        curve.vouchers[k] /= curve.hosts_counted[k];
    }
    return curve;
}

BlameExperimentResult run_blame_experiment(const Scenario& scenario,
                                           const BlameExperimentParams& params,
                                           const ExperimentDriver& driver) {
    BlameExperimentResult result{
        util::Histogram(0.0, 1.0,
                        static_cast<std::size_t>(params.histogram_bins)),
        util::Histogram(0.0, 1.0,
                        static_cast<std::size_t>(params.histogram_bins)),
        0, 0, 0.0, 0.0};

    core::BlameParams blame_params = scenario.params().blame;
    blame_params.or_operator = params.or_operator;
    const util::SimTime duration = scenario.params().duration;
    const bool colluders_active = scenario.malicious_count() > 0;

    std::size_t guilty_faulty = 0;
    std::size_t guilty_nonfaulty = 0;
    driver.run_until(
        params.samples,
        [&](std::uint64_t q, util::Rng& rng) {
            BlameTrial out;
            const auto triple = scenario.sample_triple(rng);
            if (!triple.has_value()) return out;
            const util::SimTime t = static_cast<util::SimTime>(rng.uniform(
                static_cast<double>(blame_params.delta),
                static_cast<double>(duration - blame_params.delta)));
            const auto path = scenario.path_links(triple->b, triple->c);
            out.path_bad = scenario.path_bad(path, t);
            // "B was a faulty node if it dropped a message despite B -> C
            // being good; it was non-faulty if at least one link in B -> C
            // was bad."
            const auto stance =
                !colluders_active ? Scenario::CollusionStance::kNone
                : out.path_bad    ? Scenario::CollusionStance::kIncriminate
                                  : Scenario::CollusionStance::kExonerate;
            const auto probes = scenario.gather_probes(
                triple->a, path, t, stance, q, params.reporter_cap);
            const auto breakdown = core::compute_blame(
                path, probes, t,
                scenario.overlay_net().member(triple->b).id(), blame_params);
            out.valid = true;
            out.blame = breakdown.blame;
            out.guilty = breakdown.blame >= params.guilty_threshold;
            return out;
        },
        [&](std::uint64_t, BlameTrial&& out) {
            if (!out.valid) return false;
            if (out.path_bad) {
                result.nonfaulty_pdf.add(out.blame);
                ++result.nonfaulty_samples;
                if (out.guilty) ++guilty_nonfaulty;
            } else {
                result.faulty_pdf.add(out.blame);
                ++result.faulty_samples;
                if (out.guilty) ++guilty_faulty;
            }
            return true;
        });

    if (result.nonfaulty_samples > 0) {
        result.p_good = static_cast<double>(guilty_nonfaulty) /
                        static_cast<double>(result.nonfaulty_samples);
    }
    if (result.faulty_samples > 0) {
        result.p_faulty = static_cast<double>(guilty_faulty) /
                          static_cast<double>(result.faulty_samples);
    }
    return result;
}

AttributionExperimentResult run_attribution_experiment(
    const Scenario& scenario, const AttributionExperimentParams& params,
    const ExperimentDriver& driver) {
    AttributionExperimentResult result;
    const auto& net = scenario.overlay_net();
    const core::BlameParams& blame_params = scenario.params().blame;
    const util::SimTime duration = scenario.params().duration;

    driver.run_until(
        params.samples,
        [&](std::uint64_t attempt, util::Rng& rng) {
            AttributionTrial out;
            // A random end-to-end route of at least one intermediate hop.
            const auto a = static_cast<overlay::MemberIndex>(
                rng.uniform_index(net.size()));
            const util::NodeId key = util::NodeId::random(rng);
            std::vector<overlay::MemberIndex> hops;
            try {
                hops = net.route(a, key);
            } catch (const std::runtime_error&) {
                return out;
            }
            if (hops.size() < params.min_route_length) return out;
            // Hop-to-hop IP paths must exist for stewardship to judge them.
            for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
                if (!scenario.leaf_slot(hops[i], hops[i + 1]).has_value()) {
                    return out;
                }
            }

            const util::SimTime t = static_cast<util::SimTime>(rng.uniform(
                static_cast<double>(blame_params.delta),
                static_cast<double>(duration - blame_params.delta)));

            // Ground truth: first route segment with a down IP link, if any.
            std::optional<std::size_t> bad_segment;
            for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
                const auto path = scenario.path_links(hops[i], hops[i + 1]);
                if (scenario.path_bad(path, t)) {
                    bad_segment = i;
                    break;
                }
            }
            // Optionally inject a faulty forwarder at a random interior hop.
            std::optional<std::size_t> dropper;
            if (rng.bernoulli(kForwarderDropProbability)) {
                dropper = 1 + rng.uniform_index(hops.size() - 2);
            }

            // Which cause fires first along the route?
            std::size_t locus;
            if (bad_segment.has_value() &&
                (!dropper.has_value() || *bad_segment < *dropper)) {
                out.network_cause = true;
                locus = *bad_segment;
            } else if (dropper.has_value()) {
                out.network_cause = false;
                locus = *dropper;
            } else {
                return out;  // delivered; nothing to judge
            }
            // For a network drop on segment locus -> locus+1, position locus
            // still forwarded the packet (it died in transit), so that
            // judge's tomographic evidence enters the chain.  A faulty
            // forwarder at locus never forwarded, so judges stop one
            // position earlier.
            const std::size_t forwarder_count =
                out.network_cause ? locus + 1 : locus;

            // Query ids are striped per attempt so every judgment in every
            // attempt draws a distinct probe-evidence stream, disjoint from
            // Figure 5's (which uses the bare attempt index).
            std::uint64_t query_id = 0x41545452ULL + (attempt << 20);
            const auto blame_fn = [&](std::size_t judge,
                                      std::size_t suspect) {
                const auto path =
                    scenario.path_links(hops[judge], hops[suspect]);
                const auto probes = scenario.gather_probes(
                    hops[judge], path, t, Scenario::CollusionStance::kNone,
                    query_id++);
                return core::compute_blame(path, probes, t,
                                           net.member(hops[suspect]).id(),
                                           blame_params)
                    .blame;
            };

            core::AttributionOutcome outcome;
            if (params.enable_revision) {
                outcome = core::attribute_fault(hops.size(), forwarder_count,
                                                blame_fn, kVerdicts);
            } else {
                // Non-recursive baseline: the sender's verdict on its first
                // hop is final.
                const double blame = blame_fn(0, 1);
                if (core::is_guilty_verdict(blame, kVerdicts)) {
                    outcome.blamed_hop = 1;
                } else {
                    outcome.network_blamed = true;
                    outcome.faulted_segment = 0;
                }
            }

            out.valid = true;
            out.network_blamed = outcome.network_blamed;
            out.blamed_locus =
                !outcome.network_blamed && outcome.blamed_hop == locus;
            return out;
        },
        [&](std::uint64_t, AttributionTrial&& out) {
            if (!out.valid) return false;
            ++result.samples;
            if (out.network_cause) {
                ++result.cause_network;
                if (out.network_blamed) {
                    ++result.correct;
                } else {
                    ++result.blamed_node_wrongly;
                }
            } else {
                ++result.cause_forwarder;
                if (out.network_blamed) {
                    ++result.blamed_network_wrongly;
                } else if (out.blamed_locus) {
                    ++result.correct;
                } else {
                    ++result.blamed_wrong_node;
                }
            }
            return true;
        });
    return result;
}

}  // namespace concilium::sim
