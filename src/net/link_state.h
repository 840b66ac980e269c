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
#include <limits>
#include <span>
#include <vector>

#include "net/paths.h"
#include "net/topology.h"
#include "util/rng.h"
#include "util/time.h"

namespace concilium::net {

/// The end of a window that never closes.
inline constexpr util::SimTime kForever =
    std::numeric_limits<util::SimTime>::max();

/// A link's pass probability over [t, until), the answer to a
/// piecewise-constant query at t.  Link state changes only at interval
/// boundaries, so one answer serves every packet or stripe until then.
/// A bare probability converts to a window that holds at t only (until at
/// or before t): a per-instant source stands in wherever a window is asked
/// for and is simply asked again next time.
struct PassWindow {
    double probability = 1.0;
    util::SimTime until = kForever;  ///< exclusive

    PassWindow() = default;
    PassWindow(double p, util::SimTime end) : probability(p), until(end) {}
    // NOLINTNEXTLINE(google-explicit-constructor): a per-instant answer.
    PassWindow(double p)
        : probability(p), until(std::numeric_limits<util::SimTime>::min()) {}
};

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

    /// 1 while the link is up and 0 while it is down, until its next
    /// state change.
    [[nodiscard]] PassWindow pass_window(LinkId link, util::SimTime t) const;

    /// pass_window(link, t).probability != 0, without the window's end,
    /// for callers that ask about one instant (ground-truth checks,
    /// per-instant probe sources).
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

    /// One past the highest link id with a recorded down interval: every
    /// link at or beyond it is always up.
    [[nodiscard]] std::size_t link_bound() const noexcept {
        return down_.size();
    }

  private:
    /// Dense by LinkId (link ids are compact topology indices); links with
    /// no recorded failure hold an empty vector.  The traversal sampler asks
    /// about every link of every packet, so the query must be an indexed
    /// load and a binary search, not a hash lookup.
    std::vector<std::vector<DownInterval>> down_;
    bool finalized_ = true;
};

struct FailureModelParams {
    double fraction_bad = 0.05;  ///< links concurrently down
};

/// Generates a failure timeline for [0, duration).
///
/// candidate_paths plays the role of "(overlay host, random routing peer)"
/// pairs: every injection picks one path uniformly, then a Beta(0.9, 0.6)
/// draw selects the failing link's position along that path (0 = the
/// picking host's edge, 1 = the peer's edge; the U-shaped Beta puts most
/// mass at the edges), and the link stays down for a normal 15 +/- 7.5
/// minutes, at least 30 seconds.  The injection rate is calibrated so that,
/// in steady state, `fraction_bad` of the links appearing in candidate_paths
/// are down; a warm-up period before t=0 reaches steady state by the start.
FailureTimeline generate_failure_timeline(
    const FailureModelParams& params, util::SimTime duration,
    std::span<const PathView> candidate_paths, util::Rng& rng);

}  // namespace concilium::net
