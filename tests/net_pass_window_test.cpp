// The piecewise-constant pass-probability query: FailureTimeline, FaultPlan
// and Transport each answer "the probability at t, and until when it
// holds".  Every window is checked against a brute-force reference that
// scans the raw intervals and spikes the way the per-instant query did.
// Transport answers from a per-link memo of the last window it composed,
// so its queries come in an order that a memo could get wrong.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/chaos.h"
#include "net/link_state.h"
#include "net/topology.h"
#include "net/transport.h"
#include "util/rng.h"

namespace concilium::net {
namespace {

using util::kSecond;

struct RawDown {
    LinkId link;
    DownInterval interval;
};

/// The raw fault data of one world, before any merging or indexing.
struct RawWorld {
    std::vector<RawDown> scenario_downs;
    std::vector<RawDown> plan_downs;
    std::vector<LossSpike> spikes;
    double healthy_loss = 0.0;

    [[nodiscard]] bool scenario_up(LinkId l, util::SimTime t) const {
        return std::none_of(scenario_downs.begin(), scenario_downs.end(),
                            [&](const RawDown& d) {
                                return d.link == l && d.interval.contains(t);
                            });
    }
    [[nodiscard]] bool plan_up(LinkId l, util::SimTime t) const {
        return std::none_of(plan_downs.begin(), plan_downs.end(),
                            [&](const RawDown& d) {
                                return d.link == l && d.interval.contains(t);
                            });
    }
    [[nodiscard]] double spike_loss(LinkId l, util::SimTime t) const {
        double loss = 0.0;
        for (const LossSpike& s : spikes) {
            if (s.link == l && t >= s.start && t < s.end) {
                loss = std::max(loss, s.loss);
            }
        }
        return loss;
    }
    /// The plan's own pass probability: down, or one minus the spike loss.
    [[nodiscard]] double plan_pass(LinkId l, util::SimTime t) const {
        return plan_up(l, t) ? 1.0 - spike_loss(l, t) : 0.0;
    }
    /// What a packet sees through a Transport with the plan attached.
    [[nodiscard]] double transport_pass(LinkId l, util::SimTime t) const {
        if (!scenario_up(l, t) || !plan_up(l, t)) return 0.0;
        return 1.0 - std::max(healthy_loss, spike_loss(l, t));
    }
    /// Every instant at which some source's value for the link may change.
    [[nodiscard]] std::vector<util::SimTime> breakpoints(LinkId l) const {
        std::vector<util::SimTime> out;
        for (const auto* downs : {&scenario_downs, &plan_downs}) {
            for (const RawDown& d : *downs) {
                if (d.link != l) continue;
                out.push_back(d.interval.start);
                out.push_back(d.interval.end);
            }
        }
        for (const LossSpike& s : spikes) {
            if (s.link != l) continue;
            out.push_back(s.start);
            out.push_back(s.end);
        }
        std::sort(out.begin(), out.end());
        return out;
    }
};

/// Seeded random world over links 0..7: overlapping and touching down
/// intervals in both sources, overlapping spikes, some links clean.
RawWorld random_world(std::uint64_t seed) {
    util::Rng rng(seed);
    RawWorld w;
    w.healthy_loss = seed % 2 == 0 ? 0.0 : 0.05;
    const auto draw_downs = [&](std::vector<RawDown>& out, int count) {
        for (int i = 0; i < count; ++i) {
            const auto link = static_cast<LinkId>(rng.uniform_int(0, 7));
            const auto start = rng.uniform_int(0, 600) * kSecond;
            const auto length = rng.uniform_int(1, 90) * kSecond;
            out.push_back({link, {start, start + length}});
            if (rng.bernoulli(0.2)) {  // a touching successor
                out.push_back({link, {start + length,
                                      start + length + 5 * kSecond}});
            }
        }
    };
    draw_downs(w.scenario_downs, 10);
    draw_downs(w.plan_downs, 10);
    for (int i = 0; i < 12; ++i) {
        LossSpike s;
        s.link = static_cast<LinkId>(rng.uniform_int(0, 7));
        s.start = rng.uniform_int(0, 600) * kSecond;
        s.end = s.start + rng.uniform_int(1, 120) * kSecond;
        s.loss = rng.uniform(0.1, 0.9);
        w.spikes.push_back(s);
    }
    return w;
}

FailureTimeline timeline_of(const std::vector<RawDown>& downs) {
    FailureTimeline timeline;
    for (const RawDown& d : downs) timeline.add_down(d.link, d.interval);
    timeline.finalize();
    return timeline;
}

FaultPlan plan_of(const RawWorld& w) {
    FaultPlan plan;
    for (const RawDown& d : w.plan_downs) {
        plan.downs.add_down(d.link, d.interval);
    }
    for (const LossSpike& s : w.spikes) plan.add_spike(s);
    plan.finalize();
    return plan;
}

/// Checks the window `w` answered at t against `reference`: the value at t,
/// at until - 1 and at every breakpoint inside the window, and until > t.
template <typename Reference>
void expect_window_holds(const PassWindow& w, util::SimTime t,
                         const std::vector<util::SimTime>& breakpoints,
                         Reference reference) {
    ASSERT_GT(w.until, t);
    EXPECT_EQ(w.probability, reference(t)) << "t=" << t;
    if (w.until != kForever) {
        EXPECT_EQ(w.probability, reference(w.until - 1))
            << "t=" << t << " until=" << w.until;
    }
    for (const util::SimTime b : breakpoints) {
        if (b > t && b < w.until) {
            EXPECT_EQ(w.probability, reference(b))
                << "t=" << t << " breakpoint=" << b;
        }
    }
}

/// Query instants: a coarse sweep plus every breakpoint and the instant
/// just before it.
std::vector<util::SimTime> query_times(const RawWorld& w, LinkId l) {
    std::vector<util::SimTime> out;
    for (util::SimTime t = 0; t < 800 * kSecond; t += 7 * kSecond) {
        out.push_back(t);
    }
    for (const util::SimTime b : w.breakpoints(l)) {
        out.push_back(b);
        if (b > 0) out.push_back(b - 1);
    }
    return out;
}

TEST(PassWindow, TimelineWindowsMatchBruteForce) {
    for (const std::uint64_t seed : {1, 2, 3, 4, 5}) {
        const RawWorld w = random_world(seed);
        const FailureTimeline timeline = timeline_of(w.scenario_downs);
        for (LinkId l = 0; l < 10; ++l) {  // 8 and 9 lie beyond it
            for (const util::SimTime t : query_times(w, l)) {
                expect_window_holds(
                    timeline.pass_window(l, t), t, w.breakpoints(l),
                    [&](util::SimTime at) {
                        return w.scenario_up(l, at) ? 1.0 : 0.0;
                    });
            }
        }
    }
}

TEST(PassWindow, FaultPlanWindowsMatchBruteForce) {
    for (const std::uint64_t seed : {1, 2, 3, 4, 5}) {
        const RawWorld w = random_world(seed);
        const FaultPlan plan = plan_of(w);
        for (LinkId l = 0; l < 10; ++l) {
            for (const util::SimTime t : query_times(w, l)) {
                expect_window_holds(
                    plan.pass_window(l, t), t, w.breakpoints(l),
                    [&](util::SimTime at) { return w.plan_pass(l, at); });
                EXPECT_EQ(plan.loss_at(l, t), w.spike_loss(l, t));
            }
        }
    }
}

// Every link's queries, shuffled together, so that times go backwards as
// well as forwards; each is asked twice in a row, and the second answer
// (from the memo) equals the first.
TEST(PassWindow, TransportWindowsMatchBruteForceAndPassProbability) {
    for (const std::uint64_t seed : {1, 2, 3, 4, 5}) {
        const RawWorld w = random_world(seed);
        const FailureTimeline timeline = timeline_of(w.scenario_downs);
        const FaultPlan plan = plan_of(w);
        Transport transport(timeline, util::Rng(seed),
                            TransportParams{.healthy_link_loss =
                                                w.healthy_loss});
        transport.set_chaos(&plan);
        std::vector<std::pair<LinkId, util::SimTime>> queries;
        for (LinkId l = 0; l < 10; ++l) {
            for (const util::SimTime t : query_times(w, l)) {
                queries.emplace_back(l, t);
            }
        }
        util::Rng order(seed + 100);
        order.shuffle(queries);
        for (const auto& [l, t] : queries) {
            const PassWindow window = transport.pass_window(l, t);
            const PassWindow again = transport.pass_window(l, t);
            EXPECT_EQ(again.probability, window.probability);
            EXPECT_EQ(again.until, window.until);
            expect_window_holds(window, t, w.breakpoints(l),
                                [&](util::SimTime at) {
                                    return w.transport_pass(l, at);
                                });
            expect_window_holds(window, t, w.breakpoints(l),
                                [&](util::SimTime at) {
                                    return transport.pass_probability(l, at);
                                });
        }
    }
}

// After each set_chaos, every answer equals a fresh Transport's under the
// same plan, though the windows composed under the previous plan are still
// open at the query times.  Link 1 has scenario data, so the memo covers
// it from construction on.
TEST(PassWindow, SetChaosStartsTheMemoOver) {
    FailureTimeline timeline;
    timeline.add_down(1, {200 * kSecond, 300 * kSecond});
    timeline.finalize();
    FaultPlan a;
    a.downs.add_down(1, {0, 100 * kSecond});
    a.add_spike({/*link=*/3, 0, 100 * kSecond, 0.25});
    a.finalize();
    FaultPlan b;
    b.add_spike({/*link=*/1, 0, 100 * kSecond, 0.5});
    b.finalize();
    Transport transport(timeline, util::Rng(1));
    const FaultPlan* const plans[] = {&a, nullptr, &b, &a};
    for (const FaultPlan* plan : plans) {
        transport.set_chaos(plan);
        Transport fresh(timeline, util::Rng(1));
        fresh.set_chaos(plan);
        for (const LinkId l : {1U, 3U}) {
            for (const util::SimTime t : {10 * kSecond, 50 * kSecond}) {
                const PassWindow got = transport.pass_window(l, t);
                const PassWindow want = fresh.pass_window(l, t);
                EXPECT_EQ(got.probability, want.probability)
                    << "link " << l << " t=" << t;
                EXPECT_EQ(got.until, want.until) << "link " << l << " t=" << t;
            }
        }
    }
}

// A link beyond everything the timeline and the plan hold never changes:
// it is composed afresh, and the memo, sized from their data, does not
// grow to reach it.
TEST(PassWindow, InvalidLinkBypassesTheMemo) {
    FailureTimeline timeline;
    timeline.add_down(2, {0, kSecond});
    timeline.finalize();
    FaultPlan plan;
    plan.add_spike({/*link=*/5, 0, kSecond, 0.5});
    plan.finalize();
    Transport transport(timeline, util::Rng(1),
                        TransportParams{.healthy_link_loss = 0.25});
    EXPECT_EQ(transport.memo_size(), 3U);
    transport.set_chaos(&plan);
    EXPECT_EQ(transport.memo_size(), 6U);
    for (const LinkId l : {LinkId{6}, kInvalidLink}) {
        for (const util::SimTime t : {util::SimTime{0}, 5 * kSecond}) {
            const PassWindow w = transport.pass_window(l, t);
            EXPECT_EQ(w.probability, 1.0 - 0.25);
            EXPECT_EQ(w.until, kForever);
        }
    }
    EXPECT_EQ(transport.memo_size(), 6U);
}

TEST(PassWindow, IntervalStartAndExclusiveEnd) {
    FailureTimeline timeline;
    timeline.add_down(2, {10 * kSecond, 20 * kSecond});
    timeline.add_down(2, {50 * kSecond, 60 * kSecond});
    timeline.finalize();
    const PassWindow before = timeline.pass_window(2, 0);
    EXPECT_EQ(before.probability, 1.0);
    EXPECT_EQ(before.until, 10 * kSecond);
    const PassWindow at_start = timeline.pass_window(2, 10 * kSecond);
    EXPECT_EQ(at_start.probability, 0.0);
    EXPECT_EQ(at_start.until, 20 * kSecond);
    const PassWindow last_instant = timeline.pass_window(2, 20 * kSecond - 1);
    EXPECT_EQ(last_instant.probability, 0.0);
    EXPECT_EQ(last_instant.until, 20 * kSecond);
    const PassWindow at_end = timeline.pass_window(2, 20 * kSecond);
    EXPECT_EQ(at_end.probability, 1.0);  // end exclusive
    EXPECT_EQ(at_end.until, 50 * kSecond);
    const PassWindow after = timeline.pass_window(2, 60 * kSecond);
    EXPECT_EQ(after.probability, 1.0);
    EXPECT_EQ(after.until, kForever);
}

TEST(PassWindow, MergedIntervalsAreOneWindow) {
    FailureTimeline timeline;
    timeline.add_down(0, {10 * kSecond, 20 * kSecond});
    timeline.add_down(0, {15 * kSecond, 30 * kSecond});  // overlaps
    timeline.add_down(0, {30 * kSecond, 40 * kSecond});  // touches
    timeline.finalize();
    const PassWindow w = timeline.pass_window(0, 12 * kSecond);
    EXPECT_EQ(w.probability, 0.0);
    EXPECT_EQ(w.until, 40 * kSecond);
    EXPECT_EQ(timeline.pass_window(0, 5 * kSecond).until, 10 * kSecond);
}

TEST(PassWindow, OverlappingSpikesTakeTheMaximumLoss) {
    FaultPlan plan;
    plan.add_spike({/*link=*/3, 10 * kSecond, 20 * kSecond, 0.5});
    plan.add_spike({/*link=*/3, 15 * kSecond, 30 * kSecond, 0.3});
    plan.finalize();
    const PassWindow first = plan.pass_window(3, 12 * kSecond);
    EXPECT_EQ(first.probability, 1.0 - 0.5);
    EXPECT_EQ(first.until, 20 * kSecond);  // both active to 20 s: still 0.5
    const PassWindow second = plan.pass_window(3, 20 * kSecond);
    EXPECT_EQ(second.probability, 1.0 - 0.3);
    EXPECT_EQ(second.until, 30 * kSecond);
    const PassWindow clear = plan.pass_window(3, 30 * kSecond);
    EXPECT_EQ(clear.probability, 1.0);
    EXPECT_EQ(clear.until, kForever);
    EXPECT_EQ(plan.pass_window(3, 0).until, 10 * kSecond);
}

TEST(PassWindow, EmptyPlanAndLinksBeyondTheTimelineNeverChange) {
    const FaultPlan empty;
    FailureTimeline timeline;
    timeline.add_down(1, {0, kSecond});
    timeline.finalize();
    for (const LinkId l : {0u, 2u, 1000u}) {
        const PassWindow p = empty.pass_window(l, 5 * kSecond);
        EXPECT_EQ(p.probability, 1.0);
        EXPECT_EQ(p.until, kForever);
        const PassWindow t = timeline.pass_window(l, 5 * kSecond);
        EXPECT_EQ(t.probability, 1.0);
        EXPECT_EQ(t.until, kForever);
    }
    Transport transport(timeline, util::Rng(1));
    transport.set_chaos(&empty);
    EXPECT_EQ(transport.pass_window(1000, 0).until, kForever);
}

TEST(PassWindow, QueriesBeforeFinalizeThrow) {
    FaultPlan plan;
    plan.add_spike({/*link=*/1, 0, kSecond, 0.5});
    EXPECT_THROW((void)plan.pass_window(1, 0), std::logic_error);
    EXPECT_THROW((void)plan.loss_at(1, 0), std::logic_error);
    plan.finalize();
    EXPECT_EQ(plan.loss_at(1, 0), 0.5);
}

TEST(PassWindow, ABareProbabilityHoldsAtItsInstantOnly) {
    const PassWindow w = 0.25;
    EXPECT_EQ(w.probability, 0.25);
    for (const util::SimTime t : {-kSecond, util::SimTime{0}, kSecond}) {
        EXPECT_LE(w.until, t);
    }
}

}  // namespace
}  // namespace concilium::net
