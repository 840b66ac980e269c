// Bounded retry with exponential backoff (runtime/retry.h), driven against
// net::EventSim as a fake clock.

#include "runtime/retry.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/event_sim.h"
#include "util/rng.h"

namespace concilium::runtime {
namespace {

using util::kMillisecond;
using util::kSecond;

RetryPolicy no_jitter(int max_attempts) {
    RetryPolicy p;
    p.max_attempts = max_attempts;
    p.base_delay = 500 * kMillisecond;
    p.multiplier = 2.0;
    p.jitter_fraction = 0.0;
    p.max_delay = 8 * kSecond;
    return p;
}

TEST(RetryPolicy, AllowsCountsTotalAttempts) {
    const RetryPolicy once = no_jitter(1);  // the paper's default: no retry
    EXPECT_TRUE(once.allows(1));
    EXPECT_FALSE(once.allows(2));

    const RetryPolicy three = no_jitter(3);
    EXPECT_TRUE(three.allows(2));
    EXPECT_TRUE(three.allows(3));
    EXPECT_FALSE(three.allows(4));
}

TEST(RetryPolicy, BackoffIsExponentialWithoutJitter) {
    const RetryPolicy p = no_jitter(8);
    util::Rng rng(1);
    EXPECT_EQ(p.delay_before(2, rng), 500 * kMillisecond);
    EXPECT_EQ(p.delay_before(3, rng), 1000 * kMillisecond);
    EXPECT_EQ(p.delay_before(4, rng), 2000 * kMillisecond);
    EXPECT_EQ(p.delay_before(5, rng), 4000 * kMillisecond);
    EXPECT_EQ(p.delay_before(6, rng), 8000 * kMillisecond);  // cap
    EXPECT_EQ(p.delay_before(7, rng), 8000 * kMillisecond);  // stays capped
}

TEST(RetryPolicy, JitterStaysWithinFractionAndIsDeterministic) {
    RetryPolicy p = no_jitter(8);
    p.jitter_fraction = 0.1;
    util::Rng a(9);
    util::Rng b(9);
    for (int attempt = 2; attempt <= 8; ++attempt) {
        // Jitterless calls draw nothing, so a and b stay in lockstep.
        const auto nominal = no_jitter(8).delay_before(attempt, a);
        const auto da = p.delay_before(attempt, a);
        const auto db = p.delay_before(attempt, b);
        EXPECT_EQ(da, db) << "same seed, same schedule";
        EXPECT_GE(da, static_cast<util::SimTime>(
                          0.9 * static_cast<double>(nominal)));
        EXPECT_LE(da, static_cast<util::SimTime>(
                          1.1 * static_cast<double>(nominal) + 1.0));
    }
}

TEST(RetryPolicy, BackoffSaturatesAtHugeAttemptCountsWithoutOverflow) {
    // A stewardship resumed after a crash can carry a large attempt index;
    // multiplier^k overflows double's exponent range long before that, and
    // the cap must absorb it instead of wrapping to garbage.
    RetryPolicy p = no_jitter(1 << 30);
    util::Rng rng(1);
    EXPECT_EQ(p.delay_before(100, rng), p.max_delay);
    EXPECT_EQ(p.delay_before(100000, rng), p.max_delay);
    EXPECT_EQ(p.delay_before(1 << 30, rng), p.max_delay);
}

TEST(RetryPolicy, JitterAtTheCapStaysWithinBounds) {
    RetryPolicy p = no_jitter(64);
    p.jitter_fraction = 0.25;
    util::Rng rng(17);
    for (int attempt = 20; attempt < 60; ++attempt) {  // deep in saturation
        const auto d = p.delay_before(attempt, rng);
        EXPECT_GE(d, static_cast<util::SimTime>(
                         0.75 * static_cast<double>(p.max_delay)));
        EXPECT_LE(d, static_cast<util::SimTime>(
                         1.25 * static_cast<double>(p.max_delay) + 1.0));
    }
}

TEST(RetryPolicy, ZeroBudgetNeverAllowsEvenTheFirstAttempt) {
    RetryPolicy p = no_jitter(0);
    EXPECT_FALSE(p.allows(1));
    p.max_attempts = -1;  // nonsensical configs behave like zero
    EXPECT_FALSE(p.allows(1));
}

TEST(RetryPolicy, DelayIsNeverZero) {
    RetryPolicy p;
    p.base_delay = 0;
    p.jitter_fraction = 0.0;
    util::Rng rng(1);
    EXPECT_EQ(p.delay_before(2, rng), 1);  // at least one microsecond
}

TEST(RetryPolicy, ScheduleAgainstFakeClockFiresAtExactTimes) {
    // The schedule a steward follows: try, and while unacked, retry after
    // delay_before(k).  With jitter off the firing instants are exact.
    struct Steward {
        RetryPolicy policy;
        util::Rng rng;
        net::EventSim* sim;
        net::EventSim::HandlerId attempt = 0;
        std::vector<util::SimTime> fired;
    };
    net::EventSim sim;
    Steward steward{no_jitter(4), util::Rng(5), &sim, 0, {}};

    // Exactly as the runtime does after each failed attempt: attempt k
    // posts attempt k+1 relative to now.
    steward.attempt = sim.register_handler(
        &steward,
        [](void* ctx, std::uint32_t k, std::uint64_t, std::uint64_t) {
            auto& s = *static_cast<Steward*>(ctx);
            s.fired.push_back(s.sim->now());
            const int next = static_cast<int>(k) + 1;
            if (!s.policy.allows(next)) return;
            s.sim->post_after(s.policy.delay_before(next, s.rng), s.attempt,
                              static_cast<std::uint32_t>(next));
        });
    sim.post_at(0, steward.attempt, 1);
    sim.run_all();

    const std::vector<util::SimTime>& fired = steward.fired;
    ASSERT_EQ(fired.size(), 4u);
    EXPECT_EQ(fired[0], 0);
    EXPECT_EQ(fired[1], 500 * kMillisecond);
    EXPECT_EQ(fired[2], 1500 * kMillisecond);  // +1000 ms
    EXPECT_EQ(fired[3], 3500 * kMillisecond);  // +2000 ms
}

}  // namespace
}  // namespace concilium::runtime
