// Experiment scenario: the assembled simulation world of Section 4.2.
//
// A Scenario owns the generated IP topology, the Pastry overlay placed on
// 3% of its end hosts, every member's probe tree, the link-failure ground
// truth, the set of colluding malicious nodes, and the machinery for
// synthesizing the tomographic evidence available to any judge at any
// simulated instant.
//
// Probe evidence follows the paper's assumptions: lightweight probes fire
// with inter-arrival times uniform in [0, 120 s] (Section 3.2), a
// probe classifies a link's up/down state with accuracy a = 0.9 (Section
// 4.3), and colluding peers flip their reported results strategically --
// "when a non-faulty node was being judged, malicious peers would always
// claim that their probed links were up ...; when a malicious peer was
// being judged, other malicious peers would always claim that their probed
// links were down".

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/blame.h"
#include "crypto/certificates.h"
#include "net/chaos.h"
#include "net/link_state.h"
#include "net/paths.h"
#include "net/topology.h"
#include "net/topology_gen.h"
#include "overlay/network.h"
#include "tomography/overlay_trees.h"
#include "util/rng.h"
#include "util/time.h"

namespace concilium::sim {

struct ScenarioParams {
    net::TopologyParams topology = net::medium_params();
    /// "randomly selected 3% of these machines to be Pastry nodes".
    double overlay_fraction = 0.03;
    /// When nonzero, overrides the fraction with an absolute node count.
    std::size_t overlay_nodes_override = 0;
    net::FailureModelParams failures;
    util::SimTime duration = 2 * util::kHour;  ///< "two virtual hours"
    core::BlameParams blame;  ///< accuracy 0.9, Delta = 60 s
    /// Fraction of nodes that collude and flip probe reports (Section 4.3).
    double malicious_fraction = 0.0;
    /// Declarative chaos spec (see net/chaos.h); the scenario materializes
    /// it into a FaultPlan from its own deterministic stream.  Empty by
    /// default: no chaos.
    net::FaultSpec chaos;
    std::uint64_t seed = 1;
};

// Thread-safety: a constructed Scenario is immutable, and every const
// member function below is safe to call concurrently from experiment-driver
// workers.  gather_probes derives all of its randomness locally from
// (seed, query_id), sample_triple draws only from the caller's generator,
// and no const path touches rng_root_ (fork_rng is non-const for exactly
// that reason).
class Scenario {
  public:
    explicit Scenario(const ScenarioParams& params);

    [[nodiscard]] const ScenarioParams& params() const noexcept {
        return params_;
    }
    [[nodiscard]] const net::Topology& topology() const noexcept {
        return topology_;
    }
    [[nodiscard]] const overlay::OverlayNetwork& overlay_net() const noexcept {
        return *overlay_;
    }
    [[nodiscard]] const net::FailureTimeline& timeline() const noexcept {
        return timeline_;
    }
    /// The materialized chaos schedule (empty plan when params().chaos is
    /// empty).  Runtime clusters attach it with Cluster::set_chaos.
    [[nodiscard]] const net::FaultPlan& fault_plan() const noexcept {
        return fault_plan_;
    }
    [[nodiscard]] const tomography::ProbeTree& tree(
        overlay::MemberIndex m) const {
        return trees_->tree(m);
    }
    [[nodiscard]] const tomography::OverlayTrees& trees() const {
        return *trees_;
    }
    /// Leaf slot of peer inside member's tree, when the IP path existed.
    [[nodiscard]] std::optional<int> leaf_slot(
        overlay::MemberIndex m, overlay::MemberIndex peer) const {
        return trees_->leaf_slot(m, peer);
    }

    /// IP links of the path member -> peer (a span into the trees' shared
    /// arena; valid for the scenario's lifetime).
    [[nodiscard]] std::span<const net::LinkId> path_links(
        overlay::MemberIndex m, overlay::MemberIndex peer) const {
        return trees_->path_links(m, peer);
    }

    [[nodiscard]] bool is_malicious(overlay::MemberIndex m) const {
        return malicious_.at(m);
    }
    [[nodiscard]] std::size_t malicious_count() const noexcept {
        return malicious_count_;
    }

    /// Members whose probe tree contains the link.
    [[nodiscard]] std::span<const overlay::MemberIndex> reporters_of_link(
        net::LinkId link) const;

    /// The strategic goal a colluding reporter pursues for one judgment
    /// (Section 4.3's flipping rule).
    enum class CollusionStance {
        kNone,         ///< honest reporting
        kExonerate,    ///< claim probed links DOWN (protect a guilty peer)
        kIncriminate,  ///< claim probed links UP (frame an innocent peer)
    };

    /// Synthesizes the probe results available to `judge` about `path` links
    /// around time t: its own probes plus those in snapshots received from
    /// its routing peers.  `stance` controls what colluding reporters claim.
    /// `reporter_cap` limits how many routing peers' snapshots the judge may
    /// consult (Section 4.2: "gathering probe results from more peers
    /// increases the average number of hosts that ... can potentially vouch
    /// for the status of that link"); the default is unlimited.
    /// Deterministic given (seed, query_id).
    [[nodiscard]] std::vector<core::ProbeResult> gather_probes(
        overlay::MemberIndex judge, std::span<const net::LinkId> path,
        util::SimTime t, CollusionStance stance, std::uint64_t query_id,
        std::size_t reporter_cap = SIZE_MAX) const;

    /// Ground truth: does the path have at least one down link at t?
    [[nodiscard]] bool path_bad(std::span<const net::LinkId> path,
                                util::SimTime t) const {
        return timeline_.any_down(path, t);
    }

    /// Draws a uniformly random valid (A, B, C) triple: B in A's routing
    /// state, C in B's routing state, with an existing IP path B -> C.
    struct Triple {
        overlay::MemberIndex a, b, c;
    };
    [[nodiscard]] std::optional<Triple> sample_triple(util::Rng& rng) const;

    /// Forks the scenario's root generator.  Deliberately non-const: each
    /// fork advances the root stream, so concurrent callers would race and
    /// break replayability.  Parallel experiments derive per-trial streams
    /// with util::Rng::substream instead.
    [[nodiscard]] util::Rng fork_rng() { return rng_root_.fork(); }

  private:
    ScenarioParams params_;
    util::Rng rng_root_;
    net::Topology topology_;
    crypto::CertificateAuthority ca_;
    std::optional<overlay::OverlayNetwork> overlay_;
    std::optional<tomography::OverlayTrees> trees_;
    net::FailureTimeline timeline_;
    net::FaultPlan fault_plan_;
    std::vector<bool> malicious_;
    std::size_t malicious_count_ = 0;
    std::unordered_map<net::LinkId, std::vector<overlay::MemberIndex>>
        link_reporters_;
};

}  // namespace concilium::sim
