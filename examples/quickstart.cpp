// Quickstart: the Concilium pipeline end to end, in one small world.
//
//   1. Generate an IP topology and place a secure Pastry overlay on it.
//   2. Pick a sender A, a forwarder B, and B's next hop C.
//   3. Drop A's message and let A gather tomographic evidence.
//   4. Compute blame (Equations 2-3), threshold it into a verdict, and --
//      after enough guilty verdicts -- file a self-verifying accusation
//      into the DHT, where any third party can check it.
//
// Run: ./quickstart [seed]

#include <cstdio>

#include "core/accusation.h"
#include "core/verdicts.h"
#include "dht/dht.h"
#include "seed_arg.h"
#include "sim/scenario.h"

using namespace concilium;

int main(int argc, char** argv) {
    const std::uint64_t seed = examples::seed_arg(argc, argv, 7);

    // --- 1. The world -----------------------------------------------------
    sim::ScenarioParams params;
    params.topology = net::small_params();
    params.topology.end_hosts = 400;
    params.overlay_nodes_override = 60;
    params.duration = 60 * util::kMinute;
    params.seed = seed;
    const sim::Scenario world(params);
    const auto& overlay = world.overlay_net();
    std::printf("world: %zu routers, %zu links, %zu overlay nodes\n",
                world.topology().router_count(),
                world.topology().link_count(), overlay.size());

    // --- 2. A routing triple ----------------------------------------------
    // Resample until the B -> C path is clean at judgment time, so the
    // dropped message can only be B's fault and the accusation flow runs.
    util::Rng rng(seed + 1);
    std::optional<sim::Scenario::Triple> triple;
    for (int attempt = 0; attempt < 200; ++attempt) {
        const auto candidate = world.sample_triple(rng);
        if (!candidate) continue;
        if (!world.path_bad(
                world.path_links(candidate->b, candidate->c),
                30 * util::kMinute)) {
            triple = candidate;
            break;
        }
    }
    if (!triple) {
        std::fprintf(stderr, "no routable triple found\n");
        return 1;
    }
    const auto [a, b, c] = *triple;
    std::printf("A = %s  routes through  B = %s  (next hop C = %s)\n",
                overlay.member(a).id().short_hex().c_str(),
                overlay.member(b).id().short_hex().c_str(),
                overlay.member(c).id().short_hex().c_str());

    // --- 3. The drop and the evidence --------------------------------------
    const util::SimTime t = 30 * util::kMinute;
    const auto path = world.path_links(b, c);
    std::printf("IP path B->C has %zu links; ground truth at t: %s\n",
                path.size(),
                world.path_bad(path, t) ? "at least one link DOWN"
                                        : "all links up");
    const auto probes = world.gather_probes(
        a, path, t, sim::Scenario::CollusionStance::kNone, /*query_id=*/1);
    std::printf("A holds %zu probe results covering that path "
                "(its own + snapshots from its routing peers)\n",
                probes.size());

    // --- 4. Blame, verdict, accusation --------------------------------------
    const auto breakdown = core::compute_blame(
        path, probes, t, overlay.member(b).id(), world.params().blame);
    std::printf("Equation 2: Pr(B -> C bad) = %.3f  =>  blame on B = %.3f\n",
                breakdown.path_bad_confidence, breakdown.blame);

    core::VerdictParams verdict_params;
    core::VerdictLedger ledger(verdict_params);
    core::VerdictLedger::RecordOutcome outcome{};
    // Replay the same judgment as if m drops had accumulated.
    for (int i = 0; i < verdict_params.accusation_threshold; ++i) {
        outcome = ledger.record(overlay.member(b).id(), breakdown.blame, t);
    }
    if (!outcome.guilty) {
        std::printf("verdict: NOT GUILTY -- the network is blamed; "
                    "no accusation is filed\n");
        return 0;
    }
    std::printf("verdict: GUILTY (%d guilty verdicts in window; "
                "accusation %striggered)\n",
                outcome.guilty_in_window,
                outcome.accusation_triggered ? "" : "not ");

    // Bundle the signed evidence into a self-verifying accusation.
    core::BlameEvidence ev;
    ev.judge = overlay.member(a).id();
    ev.suspect = overlay.member(b).id();
    ev.message_id = 1;
    ev.message_time = t;
    ev.path_links.assign(path.begin(), path.end());
    {
        // One snapshot per reporter.
        std::unordered_map<util::NodeId,
                           std::vector<tomography::LinkObservation>,
                           util::NodeIdHash>
            by_reporter;
        std::unordered_map<util::NodeId, util::SimTime, util::NodeIdHash>
            at;
        for (const auto& p : probes) {
            by_reporter[p.reporter].push_back({p.link, p.link_up});
            at[p.reporter] = p.at;
        }
        for (auto& [reporter, links] : by_reporter) {
            tomography::TomographicSnapshot snap;
            snap.origin = reporter;
            snap.probed_at = at[reporter];
            snap.links = std::move(links);
            const auto idx = overlay.index_of(reporter);
            snap.signature =
                overlay.member(*idx).keys.sign(snap.signed_payload());
            ev.snapshots.push_back(std::move(snap));
        }
    }
    ev.commitment = core::make_forwarding_commitment(
        ev.judge, ev.suspect, overlay.member(c).id(), ev.message_id, t,
        overlay.member(b).keys);
    ev.claimed_blame = breakdown.blame;
    ev.judge_signature = overlay.member(a).keys.sign(ev.signed_payload());

    core::FaultAccusation accusation;
    accusation.accuser = overlay.member(a).id();
    accusation.evidence.push_back(std::move(ev));
    accusation.signature =
        overlay.member(a).keys.sign(accusation.signed_payload());

    // --- 5. DHT storage + third-party verification --------------------------
    dht::Dht repository(overlay, 4);
    const auto key =
        core::FaultAccusation::dht_key(overlay.member(b).keys.public_key());
    repository.put(a, key, accusation.serialize());
    std::printf("accusation stored in the DHT under B's public key "
                "(replicas: %zu)\n",
                repository.replica_set(key).size());

    crypto::KeyRegistry registry;
    for (overlay::MemberIndex i = 0; i < overlay.size(); ++i) {
        registry.register_key(overlay.member(i).keys);
    }
    const core::AccusationVerifier verifier(
        registry,
        [&](const util::NodeId& id) -> std::optional<crypto::PublicKey> {
            const auto idx = overlay.index_of(id);
            if (!idx) return std::nullopt;
            return overlay.member(*idx).keys.public_key();
        },
        world.params().blame, verdict_params);

    const auto fetched = repository.get((a + 11) % overlay.size(), key);
    const auto parsed = core::FaultAccusation::deserialize(fetched.values.at(0));
    std::printf("third party fetched + verified the accusation: %s\n",
                core::to_string(verifier.verify(parsed)));
    return 0;
}
