// Property sweep over the fault-attribution chain and the event simulator.

#include <gtest/gtest.h>

#include "core/steward.h"
#include "net/event_sim.h"
#include "util/rng.h"

namespace concilium {
namespace {

class StewardChainProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(StewardChainProperty, OutcomeInvariantsHoldForRandomVerdicts) {
    const auto [route_length, seed] = GetParam();
    util::Rng rng(static_cast<std::uint64_t>(seed) * 37 + 5);
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t forwarders =
            rng.uniform_index(static_cast<std::size_t>(route_length));
        std::vector<double> blames;
        for (std::size_t j = 0; j < forwarders; ++j) {
            blames.push_back(rng.uniform());
        }
        const core::VerdictParams params;
        const auto outcome = core::attribute_fault(
            static_cast<std::size_t>(route_length), forwarders,
            [&](std::size_t judge, std::size_t suspect) {
                EXPECT_EQ(suspect, judge + 1);
                return blames.at(judge);
            },
            params);

        // Exactly one resolution.
        EXPECT_NE(outcome.network_blamed, outcome.blamed_hop.has_value());
        EXPECT_EQ(outcome.judgments.size(), forwarders);

        if (outcome.network_blamed) {
            // The faulted segment is the FIRST acquitting judge.
            ASSERT_TRUE(outcome.faulted_segment.has_value());
            const std::size_t s = *outcome.faulted_segment;
            for (std::size_t j = 0; j < s; ++j) {
                EXPECT_TRUE(outcome.judgments[j].guilty);
            }
            EXPECT_FALSE(outcome.judgments[s].guilty);
        } else {
            // Every judge convicted (or there were no judges), and blame
            // sits just past the last one.
            for (const auto& j : outcome.judgments) {
                EXPECT_TRUE(j.guilty);
            }
            EXPECT_EQ(*outcome.blamed_hop, forwarders);
            EXPECT_FALSE(outcome.faulted_segment.has_value());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, StewardChainProperty,
                         ::testing::Combine(::testing::Values(2, 3, 5, 9),
                                            ::testing::Values(1, 2, 3)));

TEST(EventSimStress, TenThousandRandomEventsFireInOrder) {
    struct Stress {
        net::EventSim* sim;
        net::EventSim::HandlerId handler = 0;
        util::SimTime last = -1;
        int fired = 0;
    };
    net::EventSim sim;
    Stress stress{&sim};
    // b carries the posted time; a marks a follow-up.
    const auto h = sim.register_handler(
        &stress, [](void* ctx, std::uint32_t follow_up, std::uint64_t at,
                    std::uint64_t) {
            auto& s = *static_cast<Stress*>(ctx);
            ++s.fired;
            if (follow_up != 0) return;
            EXPECT_GE(static_cast<util::SimTime>(at), s.last);
            s.last = static_cast<util::SimTime>(at);
            // Some events spawn follow-ups.
            if (s.fired % 100 == 0) s.sim->post_after(7, s.handler, 1);
        });
    stress.handler = h;
    util::Rng rng(99);
    for (int i = 0; i < 10000; ++i) {
        const auto at = static_cast<util::SimTime>(rng.uniform_index(50000));
        sim.post_at(at, h, 0, static_cast<std::uint64_t>(at));
    }
    sim.run_all();
    EXPECT_GE(stress.fired, 10000);
    EXPECT_TRUE(sim.empty());
}

}  // namespace
}  // namespace concilium
