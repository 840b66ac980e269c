#include "runtime/owners.h"

#include "tomography/verification.h"
#include "util/spans.h"

namespace concilium::runtime {

namespace {

/// Retries sent to silent leaves before escalating.
constexpr int kLightweightRetries = 2;
/// Heavyweight session shape (Duffield's full scheme).
constexpr tomography::HeavyweightParams kHeavyweight{
    .probe_count = 100, .spacing = 50 * util::kMillisecond};
/// Floor for *reactive* sessions (unacknowledged message): fresh evidence
/// matters more than probe budget when blame is being decided.
constexpr util::SimTime kReactiveHeavyweightMinGap = 10 * util::kSecond;
/// A link (chain) whose inferred loss reaches 0.5 is reported down.
constexpr tomography::SnapshotParams kSnapshot{};

}  // namespace

std::vector<tomography::LeafBehavior> Prober::leaf_behaviors(
    overlay::MemberIndex m) const {
    std::vector<tomography::LeafBehavior> out;
    const net::FaultPlan* chaos = s_.chaos;
    const double chaos_ack_drop = chaos != nullptr ? chaos->ack_drop_rate : 0.0;
    const bool partition_now = chaos != nullptr &&
                               !chaos->partitions.empty() &&
                               chaos->partition_active(s_.sim->now());
    for (const overlay::MemberIndex leaf : s_.trees->leaf_members(m)) {
        tomography::LeafBehavior b;
        b.suppress_ack_probability = s_.behavior(leaf).suppress_probe_acks;
        b.fabricate_acks = s_.behavior(leaf).fabricate_probe_acks;
        if (chaos_ack_drop > 0.0) {
            // Environmental ack loss composes with any adversarial
            // suppression: the ack survives only if both spare it.
            b.suppress_ack_probability =
                1.0 - (1.0 - b.suppress_ack_probability) *
                          (1.0 - chaos_ack_drop);
        }
        if (!s_.online[leaf] ||
            (partition_now && s_.partition_blocks(m, leaf))) {
            // Offline machines -- and machines across an active partition
            // cut -- answer nothing, honestly.
            b.suppress_ack_probability = 1.0;
            b.fabricate_acks = false;
        }
        out.push_back(b);
    }
    return out;
}

void Prober::react(overlay::MemberIndex m) {
    run_heavyweight(m, kReactiveHeavyweightMinGap);
    for (const overlay::MemberIndex peer : s_.net->routing_peers(m)) {
        const auto delay = static_cast<util::SimTime>(
            s_.rng.uniform(0.0, 2.0 * util::kSecond));
        s_.post(delay, Op::kPeerRefresh, peer);
    }
}

void Prober::probe_once(overlay::MemberIndex m) {
    if (!s_.online[m]) return;
    s_.count<&Stats::lightweight_rounds>();
    const util::SimTime now = s_.sim->now();
    util::spans::sim_instant(util::spans::SpanType::kProbeRound, now,
                             /*causal=*/m);
    const auto& tree = s_.trees->tree(m);
    if (tree.leaves().empty()) return;
    const auto behaviors = leaf_behaviors(m);
    const auto light = tomography::run_lightweight_probe(
        tree, s_.transport, now, kLightweightRetries, behaviors, s_.rng);

    bool any_silent = false;
    tomography::TomographicSnapshot snap;
    snap.origin = s_.net->member(m).id();
    snap.probed_at = now;
    std::unordered_map<net::LinkId, bool> up_links;
    for (std::size_t leaf = 0; leaf < light.responsive.size(); ++leaf) {
        tomography::PathSummary summary;
        summary.peer = s_.trees->leaf_ids(m)[leaf];
        if (light.responsive[leaf]) {
            summary.bucket = tomography::LossBucket::kClean;
            // An acknowledged probe traversed every link on the path.
            for (const net::LinkId l :
                 s_.trees->slot_path_links(m, static_cast<int>(leaf))) {
                up_links[l] = true;
            }
        } else {
            summary.bucket = tomography::LossBucket::kDown;
            any_silent = true;
        }
        snap.paths.push_back(summary);
    }
    for (const auto& [link, up] : up_links) {
        snap.links.push_back(tomography::LinkObservation{link, up});
    }
    gossip_.publish(m, std::move(snap));

    // "If link loss is detected ... H initiates heavyweight probing."
    if (any_silent) refresh(m);
}

void Prober::run_heavyweight(overlay::MemberIndex m, util::SimTime gap) {
    const util::SimTime now = s_.sim->now();
    if (now - last_heavyweight_[m] < gap) return;
    const auto& tree = s_.trees->tree(m);
    if (tree.leaves().empty()) return;
    s_.count<&Stats::heavyweight_sessions>();
    // Dual-clock span: the sim instant keeps the deterministic section
    // aligned with the probe timeline, the wall interval measures the
    // session + MLE compute (the tomography hot path).
    util::spans::WallSpan hw_span(util::spans::SpanType::kHeavyweightSession,
                                  /*causal=*/m,
                                  static_cast<std::int64_t>(
                                      tree.leaves().size()));
    hw_span.set_sim(now, now);
    last_heavyweight_[m] = now;
    const auto behaviors = leaf_behaviors(m);
    const auto session = tomography::run_heavyweight_session(
        tree, s_.transport, now, kHeavyweight, behaviors, s_.rng);

    // Feedback verification (Section 3.3): exclude fabricators (invalid
    // nonces) and suppressors (implausible conditional ack rates) before
    // inference.
    const auto fabricators =
        tomography::detect_fabricators(tree.leaves().size(), session.probes);
    const auto suppressors = tomography::detect_suppressors(
        tree, session.probes, tomography::SuppressionTestParams{});
    std::vector<bool> excluded(tree.leaves().size(), false);
    for (std::size_t leaf = 0; leaf < excluded.size(); ++leaf) {
        excluded[leaf] = fabricators[leaf] || suppressors[leaf];
    }
    const auto cleaned = tomography::exclude_leaves(session.probes, excluded);
    const auto inference = tomography::infer_link_loss(tree, cleaned);
    auto snapshot = tomography::summarize_inference(
        s_.net->member(m).id(), now, tree, inference, kSnapshot,
        s_.trees->leaf_ids(m));

    // An excluded leaf's silenced feedback makes its last mile *look* dead;
    // links that are only observable through excluded leaves carry no
    // evidence and must not be reported at all.  (publish seals and signs
    // what is left.)
    bool any_excluded = false;
    for (const bool e : excluded) any_excluded = any_excluded || e;
    if (any_excluded) {
        std::unordered_map<net::LinkId, bool> observable;
        for (std::size_t leaf = 0; leaf < excluded.size(); ++leaf) {
            if (excluded[leaf]) continue;
            for (const net::LinkId l :
                 s_.trees->slot_path_links(m, static_cast<int>(leaf))) {
                observable[l] = true;
            }
        }
        std::erase_if(snapshot.links,
                      [&](const tomography::LinkObservation& obs) {
                          return !observable.contains(obs.link);
                      });
    }
    gossip_.publish(m, std::move(snapshot));
}

}  // namespace concilium::runtime
