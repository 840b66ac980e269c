#include "net/link_state.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace concilium::net {

namespace {

// The failure model's fixed shape (Section 4.2); only the fraction of bad
// links varies.
constexpr util::SimTime kMeanDowntime = 15 * util::kMinute;
constexpr util::SimTime kStddevDowntime = util::SimTime(7.5 * util::kMinute);
constexpr util::SimTime kMinDowntime = 30 * util::kSecond;
/// Beta distribution over path depth.
constexpr double kDepthBetaAlpha = 0.9;
constexpr double kDepthBetaBeta = 0.6;

}  // namespace

void FailureTimeline::add_down(LinkId link, DownInterval interval) {
    if (interval.end <= interval.start) return;
    if (link >= down_.size()) down_.resize(link + 1);
    down_[link].push_back(interval);
    finalized_ = false;
}

void FailureTimeline::finalize() {
    if (finalized_) return;
    for (auto& intervals : down_) {
        if (intervals.empty()) continue;
        std::sort(intervals.begin(), intervals.end(),
                  [](const DownInterval& a, const DownInterval& b) {
                      return a.start < b.start;
                  });
        std::vector<DownInterval> merged;
        for (const DownInterval& iv : intervals) {
            if (!merged.empty() && iv.start <= merged.back().end) {
                merged.back().end = std::max(merged.back().end, iv.end);
            } else {
                merged.push_back(iv);
            }
        }
        intervals = std::move(merged);
    }
    finalized_ = true;
}

namespace {

/// The first of a link's sorted, merged down intervals that starts after
/// t; the link is down at t iff the interval before it contains t.
std::vector<DownInterval>::const_iterator first_after(
    const std::vector<DownInterval>& intervals, util::SimTime t) {
    return std::upper_bound(
        intervals.begin(), intervals.end(), t,
        [](util::SimTime v, const DownInterval& iv) { return v < iv.start; });
}

}  // namespace

PassWindow FailureTimeline::pass_window(LinkId link, util::SimTime t) const {
    if (!finalized_) {
        throw std::logic_error("FailureTimeline: query before finalize()");
    }
    if (link >= down_.size() || down_[link].empty()) return {};
    const std::vector<DownInterval>& intervals = down_[link];
    // Merged intervals neither overlap nor touch, so the link is up from a
    // down interval's end until the next one's start.
    const auto next = first_after(intervals, t);
    if (next != intervals.begin() && std::prev(next)->contains(t)) {
        return {0.0, std::prev(next)->end};
    }
    return {1.0, next == intervals.end() ? kForever : next->start};
}

bool FailureTimeline::is_up(LinkId link, util::SimTime t) const {
    if (!finalized_) {
        throw std::logic_error("FailureTimeline: query before finalize()");
    }
    if (link >= down_.size() || down_[link].empty()) return true;
    const auto next = first_after(down_[link], t);
    return next == down_[link].begin() || !std::prev(next)->contains(t);
}

bool FailureTimeline::any_down(std::span<const LinkId> links,
                               util::SimTime t) const {
    for (const LinkId l : links) {
        if (!is_up(l, t)) return true;
    }
    return false;
}

std::size_t FailureTimeline::down_count(std::span<const LinkId> universe,
                                        util::SimTime t) const {
    std::size_t n = 0;
    for (const LinkId l : universe) {
        if (!is_up(l, t)) ++n;
    }
    return n;
}

double FailureTimeline::down_fraction(LinkId link, util::SimTime t0,
                                      util::SimTime t1) const {
    if (!finalized_) {
        throw std::logic_error("FailureTimeline: query before finalize()");
    }
    if (t1 <= t0) return 0.0;
    if (link >= down_.size()) return 0.0;
    util::SimTime down = 0;
    for (const DownInterval& iv : down_[link]) {
        const util::SimTime lo = std::max(iv.start, t0);
        const util::SimTime hi = std::min(iv.end, t1);
        if (hi > lo) down += hi - lo;
    }
    return static_cast<double>(down) / static_cast<double>(t1 - t0);
}

const std::vector<DownInterval>& FailureTimeline::intervals(LinkId link) const {
    static const std::vector<DownInterval> kEmpty;
    return link >= down_.size() ? kEmpty : down_[link];
}

FailureTimeline generate_failure_timeline(
    const FailureModelParams& params, util::SimTime duration,
    std::span<const PathView> candidate_paths, util::Rng& rng) {
    FailureTimeline timeline;
    std::vector<const PathView*> nonempty;
    for (const PathView& p : candidate_paths) {
        if (!p.empty()) nonempty.push_back(&p);
    }
    if (nonempty.empty()) {
        timeline.finalize();
        return timeline;
    }

    std::unordered_set<LinkId> universe;
    for (const PathView* p : nonempty) {
        universe.insert(p->links.begin(), p->links.end());
    }

    // Birth-death steady state: concurrent_down = rate * mean_downtime.
    const double target_down =
        params.fraction_bad * static_cast<double>(universe.size());
    const double rate_per_us =
        target_down / static_cast<double>(kMeanDowntime);
    const double mean_gap_us = 1.0 / rate_per_us;

    // Warm up long enough that failures straddling t=0 are in steady state.
    const util::SimTime warmup = 4 * kMeanDowntime;
    double t = -static_cast<double>(warmup);
    const double horizon = static_cast<double>(duration);
    while (t < horizon) {
        t += rng.exponential(mean_gap_us);
        if (t >= horizon) break;
        const PathView& path = *nonempty[rng.uniform_index(nonempty.size())];
        const double depth = rng.beta(kDepthBetaAlpha, kDepthBetaBeta);
        auto index = static_cast<std::size_t>(
            depth * static_cast<double>(path.links.size()));
        index = std::min(index, path.links.size() - 1);
        const double downtime_us = std::max(
            static_cast<double>(kMinDowntime),
            rng.normal(static_cast<double>(kMeanDowntime),
                       static_cast<double>(kStddevDowntime)));
        const auto start = static_cast<util::SimTime>(t);
        const auto end = start + static_cast<util::SimTime>(downtime_us);
        if (end <= 0) continue;
        timeline.add_down(path.links[index],
                          DownInterval{std::max<util::SimTime>(start, 0),
                                       std::min(end, duration)});
    }
    timeline.finalize();
    return timeline;
}

}  // namespace concilium::net
