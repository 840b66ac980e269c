// Link-failure ground truth.
//
// Section 4.2's methodology: "5% of links were bad at any moment.  Average
// link downtime was 15 minutes with a standard deviation of 7.5 minutes ...
// Failures were biased towards links at the edge of the network.  To select a
// new link for failure, we randomly picked an overlay host and a random peer
// in that host's routing state.  We then used a beta distribution with
// alpha=0.9 and beta=0.6 to select the depth of the link that would fail."
//
// Failures do not depend on traffic, so the whole timeline is generated up
// front as a birth-death process and then queried: the simulator asks for the
// true state of a link at any instant, and the evaluation compares the
// tomographic view with this ground truth.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/paths.h"
#include "net/topology.h"
#include "util/rng.h"
#include "util/time.h"

namespace concilium::net {

struct DownInterval {
    util::SimTime start = 0;
    util::SimTime end = 0;  ///< exclusive

    [[nodiscard]] bool contains(util::SimTime t) const noexcept {
        return t >= start && t < end;
    }
};

/// Per-link ground-truth failure history.
class FailureTimeline {
  public:
    /// Records a down interval; call finalize() before querying.
    void add_down(LinkId link, DownInterval interval);

    /// Sorts and merges overlapping intervals.  Idempotent.
    void finalize();

    [[nodiscard]] bool is_up(LinkId link, util::SimTime t) const;

    /// True when at least one link in the span is down at t.
    [[nodiscard]] bool any_down(std::span<const LinkId> links,
                                util::SimTime t) const;

    /// Number of links that are down at t among `universe`.
    [[nodiscard]] std::size_t down_count(std::span<const LinkId> universe,
                                         util::SimTime t) const;

    /// Fraction of [t0, t1) during which the link was down.
    [[nodiscard]] double down_fraction(LinkId link, util::SimTime t0,
                                       util::SimTime t1) const;

    [[nodiscard]] const std::vector<DownInterval>& intervals(LinkId link) const;

  private:
    /// Dense by LinkId (link ids are compact topology indices); links with
    /// no recorded failure hold an empty vector.  The traversal sampler asks
    /// is_up for every link of every packet, so the query must be an indexed
    /// load, not a hash lookup.
    std::vector<std::vector<DownInterval>> down_;
    bool finalized_ = true;
};

struct FailureModelParams {
    double fraction_bad = 0.05;            ///< links concurrently down
    util::SimTime mean_downtime = 15 * util::kMinute;
    util::SimTime stddev_downtime = util::SimTime(7.5 * util::kMinute);
    double depth_beta_alpha = 0.9;         ///< beta distribution over path depth
    double depth_beta_beta = 0.6;
    util::SimTime min_downtime = 30 * util::kSecond;
};

/// Generates a failure timeline for [0, duration).
///
/// candidate_paths plays the role of "(overlay host, random routing peer)"
/// pairs: every injection picks one path uniformly, then a Beta(alpha, beta)
/// draw selects the failing link's position along that path (0 = the
/// picking host's edge, 1 = the peer's edge; the U-shaped Beta(0.9, 0.6)
/// puts most mass at the edges).  The injection rate is calibrated so that,
/// in steady state, `fraction_bad` of the links appearing in candidate_paths
/// are down; a warm-up period before t=0 reaches steady state by the start.
FailureTimeline generate_failure_timeline(
    const FailureModelParams& params, util::SimTime duration,
    std::span<const PathView> candidate_paths, util::Rng& rng);

}  // namespace concilium::net
