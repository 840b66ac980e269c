// End-to-end integration: the full Concilium pipeline on a simulated world.
//
// These tests wire together every layer -- topology, overlay, tomography,
// blame, verdicts, accusations, DHT -- and replay the paper's running
// example: a message from A through B, C toward Z is dropped by D; the
// accusation chain must exonerate B and C and stick to D, and the final
// self-verifying accusation must check out for an arbitrary third party
// fetching it from the DHT.

#include <gtest/gtest.h>

#include <unordered_map>

#include "core/accusation.h"
#include "core/steward.h"
#include "core/validation.h"
#include "dht/dht.h"
#include "sim/experiments.h"
#include "sim/scenario.h"

namespace concilium {
namespace {

using overlay::MemberIndex;

struct IntegrationFixture : ::testing::Test {
    IntegrationFixture() : scenario(make_params()) {
        const auto& net = scenario.overlay_net();
        for (MemberIndex i = 0; i < net.size(); ++i) {
            keys_by_id.emplace(net.member(i).id(),
                               net.member(i).keys.public_key());
        }
    }

    static sim::ScenarioParams make_params() {
        sim::ScenarioParams p;
        p.topology = net::small_params();
        p.topology.end_hosts = 400;
        p.overlay_nodes_override = 60;
        p.duration = 60 * util::kMinute;
        p.seed = 77;
        return p;
    }

    core::AccusationVerifier::KeyOfFn key_of() {
        return [this](const util::NodeId& id)
                   -> std::optional<crypto::PublicKey> {
            const auto it = keys_by_id.find(id);
            if (it == keys_by_id.end()) return std::nullopt;
            return it->second;
        };
    }

    /// Finds a route of length >= 4 whose hop-to-hop IP paths all exist and
    /// are all up at time t.
    std::optional<std::vector<MemberIndex>> find_clean_route(
        util::SimTime t, util::Rng& rng) {
        const auto& net = scenario.overlay_net();
        for (int attempt = 0; attempt < 500; ++attempt) {
            const auto a =
                static_cast<MemberIndex>(rng.uniform_index(net.size()));
            const auto key = util::NodeId::random(rng);
            std::vector<MemberIndex> hops;
            try {
                hops = net.route(a, key);
            } catch (const std::runtime_error&) {
                continue;
            }
            if (hops.size() < 4) continue;
            bool ok = true;
            for (std::size_t i = 0; ok && i + 1 < hops.size(); ++i) {
                const auto slot = scenario.leaf_slot(hops[i], hops[i + 1]);
                if (!slot.has_value()) {
                    ok = false;
                    break;
                }
                if (scenario.path_bad(
                        scenario.path_links(hops[i], hops[i + 1]), t)) {
                    ok = false;
                }
            }
            if (ok) return hops;
        }
        return std::nullopt;
    }

    /// Builds the BlameEvidence `judge` (route position j) holds against
    /// j+1 at time t, bundling real gathered probes as signed snapshots.
    core::BlameEvidence build_evidence(const std::vector<MemberIndex>& hops,
                                       std::size_t j, util::SimTime t,
                                       std::uint64_t message_id) {
        const auto& net = scenario.overlay_net();
        const MemberIndex judge = hops[j];
        const MemberIndex suspect = hops[j + 1];
        core::BlameEvidence ev;
        ev.judge = net.member(judge).id();
        ev.suspect = net.member(suspect).id();
        ev.message_id = message_id;
        ev.message_time = t;
        const auto judge_links = scenario.path_links(judge, suspect);
        ev.path_links.assign(judge_links.begin(), judge_links.end());
        // One snapshot per reporter, carrying that reporter's link verdicts.
        const auto probes = scenario.gather_probes(
            judge, ev.path_links, t, sim::Scenario::CollusionStance::kNone,
            message_id * 1000 + j);
        std::unordered_map<util::NodeId,
                           std::vector<tomography::LinkObservation>,
                           util::NodeIdHash>
            by_reporter;
        std::unordered_map<util::NodeId, util::SimTime, util::NodeIdHash>
            probe_time;
        for (const auto& p : probes) {
            by_reporter[p.reporter].push_back(
                tomography::LinkObservation{p.link, p.link_up});
            probe_time[p.reporter] = p.at;
        }
        for (auto& [reporter, observations] : by_reporter) {
            tomography::TomographicSnapshot snap;
            snap.origin = reporter;
            snap.probed_at = probe_time[reporter];
            snap.links = std::move(observations);
            const auto idx = net.index_of(reporter);
            snap.signature =
                net.member(*idx).keys.sign(snap.signed_payload());
            ev.snapshots.push_back(std::move(snap));
        }
        ev.commitment = core::make_forwarding_commitment(
            ev.judge, ev.suspect, net.member(hops.back()).id(), message_id,
            t, net.member(suspect).keys);
        ev.claimed_blame =
            core::compute_blame(ev.path_links,
                                core::probes_from_snapshots(ev.snapshots), t,
                                ev.suspect, scenario.params().blame)
                .blame;
        ev.judge_signature = net.member(judge).keys.sign(ev.signed_payload());
        return ev;
    }

    sim::Scenario scenario;
    std::unordered_map<util::NodeId, crypto::PublicKey, util::NodeIdHash>
        keys_by_id;
};

TEST_F(IntegrationFixture, RoutingStateValidationPassesForHonestMembers) {
    const auto& net = scenario.overlay_net();
    const util::SimTime now = 10 * util::kMinute;
    core::ValidationParams params;
    params.gamma = 2.0;  // small overlays have high density variance
    crypto::KeyRegistry registry;
    for (MemberIndex i = 0; i < net.size(); ++i) {
        registry.register_key(net.member(i).keys);
    }
    int ok = 0;
    for (MemberIndex i = 0; i < 20; ++i) {
        const auto ad = overlay::make_advertisement(
            net, i, now,
            [&](MemberIndex) { return now - 30 * util::kSecond; });
        const auto verdict = core::validate_advertisement(
            ad, net.secure_table(0).density(), now, params,
            [this](const util::NodeId& id)
                -> std::optional<crypto::PublicKey> {
                const auto it = keys_by_id.find(id);
                if (it == keys_by_id.end()) return std::nullopt;
                return it->second;
            },
            registry);
        if (verdict == core::AdvertisementCheck::kOk) ++ok;
    }
    EXPECT_GE(ok, 18);  // density noise may flag a straggler
}

TEST_F(IntegrationFixture, DownstreamDropperIsBlamedAndExonerationHolds) {
    util::Rng rng(5);
    const util::SimTime t = 20 * util::kMinute;
    const auto route = find_clean_route(t, rng);
    ASSERT_TRUE(route.has_value()) << "no clean route found";
    const auto& hops = *route;
    // The penultimate forwarder drops the message.
    const std::size_t dropper = hops.size() - 2;

    const auto blame_fn = [&](std::size_t judge, std::size_t suspect) {
        const auto path = scenario.path_links(hops[judge], hops[suspect]);
        const auto probes = scenario.gather_probes(
            hops[judge], path, t, sim::Scenario::CollusionStance::kNone,
            9000 + judge);
        return core::compute_blame(path, probes, t,
                                   scenario.overlay_net()
                                       .member(hops[suspect])
                                       .id(),
                                   scenario.params().blame)
            .blame;
    };
    const auto outcome = core::attribute_fault(
        hops.size(), dropper, blame_fn, core::VerdictParams{});
    // With all hop paths verified clean, blame should usually travel all
    // the way to the dropper.  (Probe noise can occasionally blame the
    // network; the statistical rates are covered by the Figure 5 tests.)
    if (!outcome.network_blamed) {
        EXPECT_EQ(*outcome.blamed_hop, dropper);
    }
}

TEST_F(IntegrationFixture, FullAccusationLifecycleThroughDht) {
    util::Rng rng(6);
    const util::SimTime t = 30 * util::kMinute;
    const auto route = find_clean_route(t, rng);
    ASSERT_TRUE(route.has_value());
    const auto& hops = *route;
    const auto& net = scenario.overlay_net();
    const std::uint64_t message_id = 424242;

    // A's original accusation against B, then revisions B->C and C->D.
    core::FaultAccusation acc;
    acc.accuser = net.member(hops[0]).id();
    acc.evidence.push_back(build_evidence(hops, 0, t, message_id));
    acc.signature =
        net.member(hops[0]).keys.sign(acc.signed_payload());
    const std::size_t revisions = std::min<std::size_t>(2, hops.size() - 2);
    for (std::size_t j = 1; j <= revisions; ++j) {
        auto ev = build_evidence(hops, j, t, message_id);
        if (ev.claimed_blame <
            core::VerdictParams{}.guilty_blame_threshold) {
            break;  // noise produced an acquittal; chain stops here
        }
        core::amend_accusation(acc, std::move(ev),
                               net.member(hops[0]).keys);
    }

    // Store in the DHT keyed by the accused node's public key.
    dht::Dht repository(net, 4);
    const auto accused_idx = net.index_of(acc.accused());
    ASSERT_TRUE(accused_idx.has_value());
    const auto key = core::FaultAccusation::dht_key(
        net.member(*accused_idx).keys.public_key());
    repository.put(hops[0], key, acc.serialize());

    // An unrelated third party fetches and independently verifies it.
    const MemberIndex third_party = (hops[0] + 13) % net.size();
    const auto fetched = repository.get(third_party, key);
    ASSERT_EQ(fetched.values.size(), 1u);
    const auto parsed = core::FaultAccusation::deserialize(fetched.values[0]);

    crypto::KeyRegistry registry;
    for (MemberIndex i = 0; i < net.size(); ++i) {
        registry.register_key(net.member(i).keys);
    }
    const core::AccusationVerifier verifier(
        registry, key_of(), scenario.params().blame, core::VerdictParams{});
    EXPECT_EQ(verifier.verify(parsed), core::AccusationCheck::kOk);
    EXPECT_EQ(parsed.accused(), acc.accused());

    // A tampered copy must not verify.
    auto bytes = fetched.values[0];
    bytes[bytes.size() / 2] ^= 0x01;
    bool rejected = false;
    try {
        const auto tampered = core::FaultAccusation::deserialize(bytes);
        rejected =
            verifier.verify(tampered) != core::AccusationCheck::kOk;
    } catch (const std::exception&) {
        rejected = true;  // malformed enough to fail parsing
    }
    EXPECT_TRUE(rejected);
}

TEST_F(IntegrationFixture, NetworkFaultsAreNotPinnedOnForwarders) {
    // Sample drops caused purely by down links; the pipeline should blame
    // the network in the clear majority of cases.
    util::Rng rng(8);
    int network_blamed = 0;
    int cases = 0;
    for (int attempt = 0; attempt < 4000 && cases < 60; ++attempt) {
        const auto triple = scenario.sample_triple(rng);
        if (!triple) continue;
        const util::SimTime t = static_cast<util::SimTime>(rng.uniform(
            static_cast<double>(util::kMinute),
            static_cast<double>(scenario.params().duration - util::kMinute)));
        const auto path = scenario.path_links(triple->b, triple->c);
        if (!scenario.path_bad(path, t)) continue;  // want network faults
        ++cases;
        const auto probes = scenario.gather_probes(
            triple->a, path, t, sim::Scenario::CollusionStance::kNone,
            50000 + static_cast<std::uint64_t>(attempt));
        const auto blame = core::compute_blame(
            path, probes, t, scenario.overlay_net().member(triple->b).id(),
            scenario.params().blame);
        if (!core::is_guilty_verdict(blame.blame, core::VerdictParams{})) {
            ++network_blamed;
        }
    }
    ASSERT_GT(cases, 20);
    EXPECT_GT(static_cast<double>(network_blamed) / cases, 0.7);
}

}  // namespace
}  // namespace concilium
