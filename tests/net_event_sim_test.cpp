#include "net/event_sim.h"

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <vector>

#include "util/metrics.h"

namespace concilium::net {
namespace {

/// Test glue: each event carries the index of a test-local closure, so the
/// ordering tests below read as scripts.  A deque keeps closures in place
/// while a running one posts more.
struct Script {
    explicit Script(EventSim& s)
        : sim(&s), handler(s.register_handler(this, &Script::run)) {}

    void at(util::SimTime t, std::function<void()> fn) {
        sim->post_at(t, handler, add(std::move(fn)));
    }
    void after(util::SimTime delay, std::function<void()> fn) {
        sim->post_after(delay, handler, add(std::move(fn)));
    }
    std::uint32_t add(std::function<void()> fn) {
        steps.push_back(std::move(fn));
        return static_cast<std::uint32_t>(steps.size() - 1);
    }

    static void run(void* ctx, std::uint32_t step, std::uint64_t,
                    std::uint64_t) {
        static_cast<Script*>(ctx)->steps[step]();
    }

    EventSim* sim;
    EventSim::HandlerId handler;
    std::deque<std::function<void()>> steps;
};

void ignore(void*, std::uint32_t, std::uint64_t, std::uint64_t) {}

TEST(EventSim, FiresInTimeOrder) {
    EventSim sim;
    Script script(sim);
    std::vector<int> order;
    script.at(30, [&] { order.push_back(3); });
    script.at(10, [&] { order.push_back(1); });
    script.at(20, [&] { order.push_back(2); });
    sim.run_all();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), 30);
}

TEST(EventSim, EqualTimesFireInScheduleOrder) {
    EventSim sim;
    Script script(sim);
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) {
        script.at(42, [&order, i] { order.push_back(i); });
    }
    sim.run_all();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventSim, ScheduleAfterUsesCurrentTime) {
    EventSim sim;
    Script script(sim);
    util::SimTime observed = -1;
    script.at(100, [&] {
        script.after(50, [&] { observed = sim.now(); });
    });
    sim.run_all();
    EXPECT_EQ(observed, 150);
}

TEST(EventSim, PastEventsClampToNow) {
    EventSim sim;
    Script script(sim);
    script.at(100, [] {});
    sim.run_all();
    util::SimTime fired_at = -1;
    script.at(10, [&] { fired_at = sim.now(); });  // in the past
    sim.run_all();
    EXPECT_EQ(fired_at, 100);
}

TEST(EventSim, RunUntilAdvancesClockEvenWhenIdle) {
    EventSim sim;
    sim.run_until(500);
    EXPECT_EQ(sim.now(), 500);
}

TEST(EventSim, RunUntilStopsAtBoundary) {
    EventSim sim;
    Script script(sim);
    bool early = false;
    bool late = false;
    script.at(10, [&] { early = true; });
    script.at(20, [&] { late = true; });
    sim.run_until(15);
    EXPECT_TRUE(early);
    EXPECT_FALSE(late);
    EXPECT_EQ(sim.now(), 15);
    EXPECT_EQ(sim.pending(), 1u);
    sim.run_until(20);  // boundary inclusive
    EXPECT_TRUE(late);
}

TEST(EventSim, EventsMayScheduleMoreEvents) {
    EventSim sim;
    Script script(sim);
    int chain = 0;
    std::function<void()> step = [&] {
        if (++chain < 100) script.after(1, step);
    };
    script.at(0, step);
    sim.run_all();
    EXPECT_EQ(chain, 100);
    EXPECT_EQ(sim.now(), 99);
}

TEST(EventSim, PastScheduleFromCallbackFiresAtCurrentTime) {
    // A callback that schedules into the past must see the new event fire
    // at the *current* time, inside the same run, not warp the clock back.
    EventSim sim;
    Script script(sim);
    util::SimTime fired_at = -1;
    script.at(50, [&] {
        script.at(10, [&] { fired_at = sim.now(); });
    });
    sim.run_until(60);
    EXPECT_EQ(fired_at, 50);
    EXPECT_EQ(sim.now(), 60);
}

TEST(EventSim, CallbackSchedulingEqualTimeRunsAfterExistingPeers) {
    // An event scheduled *during* the tick for its own timestamp joins the
    // back of that timestamp's queue: insertion order is global, not
    // per-batch.
    EventSim sim;
    Script script(sim);
    std::vector<int> order;
    script.at(7, [&] {
        order.push_back(0);
        script.at(7, [&] { order.push_back(2); });
    });
    script.at(7, [&] { order.push_back(1); });
    sim.run_all();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventSim, RunUntilHonorsEventsScheduledDuringTheRun) {
    // Events a callback schedules inside run_until(h) still fire in the
    // same call when they land on or before the horizon, and are retained
    // (not dropped) when they land beyond it.
    EventSim sim;
    Script script(sim);
    bool within = false;
    bool beyond = false;
    script.at(10, [&] {
        script.after(5, [&] { within = true; });
        script.after(500, [&] { beyond = true; });
    });
    sim.run_until(100);
    EXPECT_TRUE(within);
    EXPECT_FALSE(beyond);
    EXPECT_EQ(sim.pending(), 1u);
    sim.run_until(510);
    EXPECT_TRUE(beyond);
}

TEST(EventSim, CountsScheduledAndExecutedEvents) {
    auto& registry = util::metrics::Registry::global();
    registry.reset();
    EventSim sim;
    const auto h = sim.register_handler(nullptr, &ignore);
    sim.post_at(10, h);
    sim.post_at(20, h);
    sim.post_at(30, h);
    EXPECT_EQ(registry.counter("net.events_scheduled").value(), 3);
    EXPECT_EQ(registry.counter("net.events_executed").value(), 0);
    EXPECT_DOUBLE_EQ(registry.gauge("net.eventsim.queue_high_water").value(),
                     3.0);
    sim.run_until(20);
    EXPECT_EQ(registry.counter("net.events_executed").value(), 2);
    sim.run_all();
    EXPECT_EQ(registry.counter("net.events_executed").value(), 3);
}

TEST(EventSim, StepReturnsFalseWhenEmpty) {
    EventSim sim;
    EXPECT_FALSE(sim.step());
    sim.post_at(1, sim.register_handler(nullptr, &ignore));
    EXPECT_TRUE(sim.step());
    EXPECT_FALSE(sim.step());
    EXPECT_TRUE(sim.empty());
}

TEST(EventSim, PodEventsDispatchWithOperands) {
    EventSim sim;
    struct Seen {
        std::uint32_t a;
        std::uint64_t b;
        std::uint64_t c;
        util::SimTime at;
    };
    std::vector<Seen> seen;
    struct Ctx {
        EventSim* sim;
        std::vector<Seen>* seen;
    } ctx{&sim, &seen};
    const auto h = sim.register_handler(
        &ctx, [](void* p, std::uint32_t a, std::uint64_t b, std::uint64_t c) {
            auto* x = static_cast<Ctx*>(p);
            x->seen->push_back(Seen{a, b, c, x->sim->now()});
        });
    sim.post_at(20, h, 2, 22, 222);
    sim.post_at(10, h, 1, 11, 111);
    sim.post_after(5, h, 0);
    sim.run_all();
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0].a, 0u);
    EXPECT_EQ(seen[0].at, 5);
    EXPECT_EQ(seen[1].a, 1u);
    EXPECT_EQ(seen[1].b, 11u);
    EXPECT_EQ(seen[1].c, 111u);
    EXPECT_EQ(seen[2].a, 2u);
    EXPECT_EQ(seen[2].at, 20);
}

TEST(EventSim, HandlersInterleaveInPostOrder) {
    // Equal-time events for different handlers fire in post order: the
    // handler id plays no part in the ordering.
    EventSim sim;
    std::vector<int> order;
    struct Tagged {
        std::vector<int>* order;
        int tag;
    } first_ctx{&order, 10}, second_ctx{&order, 20};
    const auto record = [](void* p, std::uint32_t seq, std::uint64_t,
                           std::uint64_t) {
        auto* t = static_cast<Tagged*>(p);
        t->order->push_back(t->tag + static_cast<int>(seq));
    };
    const auto first = sim.register_handler(&first_ctx, record);
    const auto second = sim.register_handler(&second_ctx, record);
    sim.post_at(7, second, 0);
    sim.post_at(7, first, 1);
    sim.post_at(7, second, 2);
    sim.post_at(7, first, 3);
    sim.run_all();
    EXPECT_EQ(order, (std::vector<int>{20, 11, 22, 13}));
}

TEST(EventSim, OrderingProperty) {
    // Property: whatever the spacing (microseconds, seconds, minutes, hours
    // ahead, or clamped to now), dispatch order is exactly ascending (time,
    // schedule order).  Uses a deterministic xorshift so failures
    // reproduce.
    EventSim sim;
    struct Fired {
        util::SimTime at;
        std::uint32_t seq;
    };
    std::vector<Fired> fired;
    struct Ctx {
        EventSim* sim;
        std::vector<Fired>* fired;
    } ctx{&sim, &fired};
    const auto h = sim.register_handler(
        &ctx, [](void* p, std::uint32_t a, std::uint64_t, std::uint64_t) {
            auto* x = static_cast<Ctx*>(p);
            x->fired->push_back(Fired{x->sim->now(), a});
        });
    std::uint64_t x = 0x243f6a8885a308d3ULL;
    auto rnd = [&] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    std::uint32_t seq = 0;
    std::vector<std::pair<util::SimTime, std::uint32_t>> expected;
    for (int burst = 0; burst < 40; ++burst) {
        for (int i = 0; i < 50; ++i) {
            // Mix of near, mid, and far times, hours-ahead posts (a fault
            // plan, the daemon's trace directives included, posts its churn,
            // crashes and partitions at start), and exact duplicates.
            util::SimTime t;
            switch (rnd() % 5) {
                case 0: t = sim.now() + static_cast<util::SimTime>(rnd() % 1000); break;
                case 1: t = sim.now() + static_cast<util::SimTime>(rnd() % (1 << 20)); break;
                case 2: t = sim.now() + static_cast<util::SimTime>(rnd() % (200LL << 20)); break;
                case 3: t = sim.now() + static_cast<util::SimTime>(rnd() % (6 * util::kHour)); break;
                default: t = sim.now();  // equal-time pile-up
            }
            sim.post_at(t, h, seq);
            expected.emplace_back(t < sim.now() ? sim.now() : t, seq);
            ++seq;
        }
        // Drain partway so the clock advances between bursts.
        sim.run_until(sim.now() + static_cast<util::SimTime>(rnd() % (50LL << 20)));
    }
    sim.run_all();
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& p, const auto& q) { return p.first < q.first; });
    ASSERT_EQ(fired.size(), expected.size());
    for (std::size_t i = 0; i < fired.size(); ++i) {
        EXPECT_EQ(fired[i].at, expected[i].first) << "event " << i;
        EXPECT_EQ(fired[i].seq, expected[i].second) << "event " << i;
    }
}

TEST(EventSim, MaxPendingValveThrowsInsteadOfGrowing) {
    EventSim sim;
    sim.set_max_pending(10);
    const auto h = sim.register_handler(nullptr, &ignore);
    for (int i = 0; i < 10; ++i) sim.post_at(i, h);
    EXPECT_THROW(sim.post_at(99, h), std::length_error);
    // Draining makes room again.
    sim.run_all();
    EXPECT_NO_THROW(sim.post_at(100, h));
}

TEST(EventSim, HighWaterGaugesTrackQueueDepth) {
    auto& registry = util::metrics::Registry::global();
    registry.reset();
    EventSim sim;
    const auto h = sim.register_handler(nullptr, &ignore);
    for (int i = 0; i < 5; ++i) sim.post_at(i, h);
    // Far-future events count toward the depth like near ones.
    sim.post_at(util::kHour, h);
    sim.post_at(2 * util::kHour, h);
    EXPECT_GE(registry.gauge("net.eventsim.queue_high_water").value(), 7.0);
    sim.run_all();
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_EQ(sim.now(), 2 * util::kHour);
}

}  // namespace
}  // namespace concilium::net
