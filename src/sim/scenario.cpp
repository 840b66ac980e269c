#include "sim/scenario.h"

#include <algorithm>
#include <stdexcept>

#include "util/spans.h"

namespace concilium::sim {

namespace {

/// Lightweight probe inter-arrival upper bound (Section 3.2).
constexpr util::SimTime kMaxProbeTime = 120 * util::kSecond;

/// generate_topology runs in the constructor's member-initializer list, so
/// the phase span wraps it through this helper.
net::Topology timed_topology(const net::TopologyParams& params,
                             util::Rng& rng) {
    const util::spans::WallSpan span(util::spans::SpanType::kTopologyGen);
    return net::generate_topology(params, rng);
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
    std::uint64_t x = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Probe firing times of one reporter inside [lo, hi]: a renewal process
/// with inter-arrival uniform in [0, max_gap], entered at a random phase.
std::vector<util::SimTime> renewal_times(util::Rng& rng, util::SimTime lo,
                                         util::SimTime hi,
                                         util::SimTime max_gap) {
    std::vector<util::SimTime> times;
    double t = static_cast<double>(lo) -
               rng.uniform() * static_cast<double>(max_gap);
    while (t <= static_cast<double>(hi)) {
        if (t >= static_cast<double>(lo)) {
            times.push_back(static_cast<util::SimTime>(t));
        }
        t += rng.uniform() * static_cast<double>(max_gap);
    }
    return times;
}

}  // namespace

Scenario::Scenario(const ScenarioParams& params)
    : params_(params), rng_root_(params.seed),
      topology_(timed_topology(params.topology, rng_root_)),
      ca_(mix(params.seed, 0xCA15ULL)) {
    using util::spans::SpanType;
    using util::spans::WallSpan;

    const std::vector<net::RouterId> hosts = topology_.end_hosts();
    std::size_t count = params_.overlay_nodes_override != 0
                            ? params_.overlay_nodes_override
                            : static_cast<std::size_t>(
                                  params_.overlay_fraction *
                                  static_cast<double>(hosts.size()));
    count = std::max<std::size_t>(count, 2);
    if (count > hosts.size()) {
        throw std::invalid_argument("Scenario: not enough end hosts");
    }
    {
        const WallSpan span(SpanType::kOverlayBuild, /*causal=*/0,
                            static_cast<std::int64_t>(count));
        overlay_.emplace(overlay::build_overlay_from_hosts(
            hosts, count, ca_, rng_root_));
    }

    // Build every member's probe tree; the (host, routing peer) paths seed
    // the failure process.
    const std::size_t n = overlay_->size();
    {
        const WallSpan span(SpanType::kTreeBuild, /*causal=*/0,
                            static_cast<std::int64_t>(n));
        trees_.emplace(*overlay_, topology_);
    }

    {
        const WallSpan span(SpanType::kFailureTimeline);
        timeline_ = net::generate_failure_timeline(
            params_.failures, params_.duration, trees_->member_peer_paths(),
            rng_root_);
    }

    {
        const WallSpan span(SpanType::kScenarioIndex);
        malicious_.assign(n, false);
        malicious_count_ = static_cast<std::size_t>(
            params_.malicious_fraction * static_cast<double>(n));
        for (const std::size_t m :
             rng_root_.sample_indices(n, malicious_count_)) {
            malicious_[m] = true;
        }

        for (overlay::MemberIndex m = 0; m < n; ++m) {
            for (const net::LinkId l : trees_->tree(m).links()) {
                link_reporters_[l].push_back(m);
            }
        }
    }

    // Chaos last, so an empty spec leaves every earlier draw -- and hence
    // every existing seed's world -- untouched.
    {
        const WallSpan span(SpanType::kFaultPlan);
        fault_plan_ = net::build_fault_plan(params_.chaos, params_.duration,
                                            trees_->member_peer_paths(), n,
                                            rng_root_);
    }
}

std::span<const overlay::MemberIndex> Scenario::reporters_of_link(
    net::LinkId link) const {
    static const std::vector<overlay::MemberIndex> kNone;
    const auto it = link_reporters_.find(link);
    return it == link_reporters_.end() ? kNone : it->second;
}

std::vector<core::ProbeResult> Scenario::gather_probes(
    overlay::MemberIndex judge, std::span<const net::LinkId> path,
    util::SimTime t, CollusionStance stance, std::uint64_t query_id,
    std::size_t reporter_cap) const {
    std::vector<core::ProbeResult> out;
    // Evidence reaches the judge via its own probes and the snapshots its
    // routing peers push to it (Section 3.2), optionally capped to the
    // first reporter_cap peers.
    std::vector<char> available(overlay_->size(), 0);
    available[judge] = 1;
    std::size_t admitted = 0;
    for (const overlay::MemberIndex p : overlay_->routing_peers(judge)) {
        if (admitted++ >= reporter_cap) break;
        available[p] = 1;
    }

    const util::SimTime lo = t - params_.blame.delta;
    const util::SimTime hi = t + params_.blame.delta;
    const double flip_probability = 1.0 - params_.blame.probe_accuracy;

    std::vector<net::LinkId> seen;
    for (const net::LinkId link : path) {
        if (std::find(seen.begin(), seen.end(), link) != seen.end()) continue;
        seen.push_back(link);
        for (const overlay::MemberIndex reporter : reporters_of_link(link)) {
            if (!available[reporter]) continue;
            // Probe times are keyed per (query, reporter): one stripe tests
            // every link of the reporter's tree at once.
            util::Rng time_rng(mix(mix(params_.seed, query_id), reporter));
            const auto times = renewal_times(time_rng, lo, hi, kMaxProbeTime);
            if (times.empty()) continue;
            util::Rng noise_rng(
                mix(mix(params_.seed, query_id), mix(reporter, link)));
            const bool colluder =
                malicious_[reporter] && stance != CollusionStance::kNone;
            for (const util::SimTime tp : times) {
                bool observed_up;
                if (colluder) {
                    observed_up = stance == CollusionStance::kIncriminate;
                } else {
                    const bool truth_up = timeline_.is_up(link, tp);
                    observed_up =
                        noise_rng.bernoulli(flip_probability) ? !truth_up
                                                              : truth_up;
                }
                out.push_back(core::ProbeResult{
                    overlay_->member(reporter).id(), link, observed_up, tp});
            }
        }
    }
    return out;
}

std::optional<Scenario::Triple> Scenario::sample_triple(util::Rng& rng) const {
    for (int attempt = 0; attempt < 64; ++attempt) {
        const auto a = static_cast<overlay::MemberIndex>(
            rng.uniform_index(overlay_->size()));
        const auto& peers_a = overlay_->routing_peers(a);
        if (peers_a.empty()) continue;
        const overlay::MemberIndex b = rng.pick(peers_a);
        const auto& peers_b = overlay_->routing_peers(b);
        if (peers_b.empty()) continue;
        const overlay::MemberIndex c = rng.pick(peers_b);
        if (c == b || c == a) continue;
        if (!leaf_slot(b, c).has_value()) continue;
        return Triple{a, b, c};
    }
    return std::nullopt;
}

}  // namespace concilium::sim
