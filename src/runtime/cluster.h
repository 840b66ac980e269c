// The Concilium protocol as an event-driven machine.
//
// sim::Scenario evaluates the paper's equations directly under the Section
// 4.3 assumptions (probes classify links with accuracy a).  Cluster instead
// *runs the protocol*: every node schedules lightweight striped probes of
// its tree (Section 3.2), escalates to heavyweight probing and MINC
// inference when leaves go silent or messages go unacknowledged, publishes
// signed snapshots to its routing peers, and archives the snapshots it
// receives.  Application messages travel hop by hop over the simulated IP
// network with forwarding commitments (Section 3.6) and end-to-end
// acknowledgments under recursive stewardship (Section 3.5); timeouts
// trigger blame evaluation, verdict ledgers, upstream revision pushes, and
// formal accusations stored in the DHT (Section 3.4).
//
// Misbehaviour is injected per node through runtime::NodeBehavior (see
// runtime/attack.h): message droppers, probe-report flippers ("misreporting
// the results of its own probes", Section 3.3), ack suppressors/fabricators
// at the probing layer, commitment refusers, nodes that withhold revisions
// "at their own peril", and the evidence-integrity campaign roles --
// equivocators, replayers, slanderers, accusation spammers, and verdict
// colluders -- each paired here with its self-verifying defense.
//
// Cluster is thin: five owners (runtime/owners.h) -- Prober, EvidenceGossip,
// Stewardship, FaultDriver, Adversary -- each keep one concern's state over
// one Shared context.  Every event is a POD record on the EventSim queue,
// and Cluster's one handler forwards each op to the owner that runs it;
// payloads too big for an event's operands (sealed snapshots, evidence,
// announcements, handoffs) wait in Shared's slot table until it fires.
// RuntimeParams, Stats and MessageOutcome live in runtime/owners.h too.

#pragma once

#include <cstdint>
#include <vector>

#include "runtime/owners.h"

namespace concilium::runtime {

class Cluster {
  public:
    using Stats = runtime::Stats;
    using MessageOutcome = runtime::MessageOutcome;
    using CompletionFn = runtime::CompletionFn;

    Cluster(net::EventSim& sim, const net::FailureTimeline& timeline,
            const overlay::OverlayNetwork& net,
            const tomography::OverlayTrees& trees, RuntimeParams params,
            std::vector<NodeBehavior> behaviors, util::Rng rng);
    Cluster(const Cluster&) = delete;  // the EventSim handler holds `this`
    Cluster& operator=(const Cluster&) = delete;

    /// Schedules every node's first probe round.  Call once, then drive the
    /// EventSim.
    void start();

    /// Attaches a chaos plan (see net/chaos.h).  Link flaps, correlated
    /// outages, and loss spikes fold into every packet via the transport;
    /// the churn schedule drives set_online(); snapshot dissemination
    /// becomes lossy (each copy sampled over its member-to-peer IP path, a
    /// lost one retried alone per kSnapshotRetryPolicy in
    /// evidence_gossip.cpp, and none sent by an offline origin); probe
    /// acknowledgments drop at ack_drop_rate; and forwarded packets may be
    /// reordered or duplicated.  Without a plan every snapshot copy lands.
    /// Call before start().  The plan must outlive the cluster; nullptr
    /// detaches.
    void set_chaos(const net::FaultPlan* plan) {
        s_.chaos = plan;
        s_.transport.set_chaos(plan);
    }

    /// Takes a node off the network / brings it back (our extension: the
    /// paper "did not model fluctuating machine availability").  An offline
    /// node answers no probes, forwards no messages, relays no acks, and
    /// publishes no snapshots -- indistinguishable, to the protocol, from a
    /// total message dropper, and blamed accordingly.
    void set_online(overlay::MemberIndex m, bool online) {
        s_.online.at(m) = online;
    }
    [[nodiscard]] bool is_online(overlay::MemberIndex m) const {
        return s_.online.at(m);
    }

    /// Sends an application message from `from` toward the root of
    /// `dest_key`.  The callback fires when the sender either receives the
    /// acknowledgment or completes its diagnosis.
    std::uint64_t send(overlay::MemberIndex from, const util::NodeId& dest_key,
                       CompletionFn on_complete = {}) {
        return stewardship_.send(from, dest_key, std::move(on_complete));
    }

    [[nodiscard]] const Stats& stats() const noexcept { return s_.stats; }

    [[nodiscard]] const SnapshotArchive& archive(overlay::MemberIndex m) const {
        return gossip_.archive(m);
    }
    [[nodiscard]] const dht::Dht& repository() const noexcept { return s_.dht; }
    [[nodiscard]] const core::ReputationBook& reputation() const noexcept {
        return stewardship_.reputation();
    }

    /// Peers that rejected m's routing advertisement during the start()
    /// exchange (empty set == everyone accepted it).
    [[nodiscard]] const std::vector<overlay::MemberIndex>&
    advertisement_rejecters(overlay::MemberIndex m) const {
        return faults_.advertisement_rejecters(m);
    }

    /// Fetches and deserializes the accusations stored against a member,
    /// as an arbitrary third party would (Section 3.4's final step).
    /// Malformed values (spam) are skipped, not fatal.
    [[nodiscard]] std::vector<core::FaultAccusation> accusations_against(
        overlay::MemberIndex m) const;

    /// Fetches the self-verifying equivocation proofs filed against a
    /// member's snapshot stream (two valid signatures over conflicting
    /// payloads for the same origin+epoch).  Malformed values are skipped.
    [[nodiscard]] std::vector<core::EquivocationProof>
    equivocation_proofs_against(overlay::MemberIndex m) const;

    /// Independently verifies an accusation against this cluster's key
    /// registry, exactly as a prospective peer would before sanctioning.
    [[nodiscard]] core::AccusationCheck verify(
        const core::FaultAccusation& accusation) const {
        return stewardship_.verifier().verify(accusation);
    }

    /// Independently verifies an equivocation proof against the accused
    /// member's registered key.
    [[nodiscard]] core::EquivocationCheck verify(
        const core::EquivocationProof& proof,
        overlay::MemberIndex accused) const {
        return core::verify_equivocation_proof(
            proof, s_.net->member(accused).keys.public_key(), s_.registry);
    }

    /// The node's durable journal (its "disk"): written on every epoch
    /// advance, verdict, stewardship transition, and vote; replayed on
    /// restart after a crash.
    [[nodiscard]] const NodeJournal& journal(overlay::MemberIndex m) const {
        return s_.journals.at(m);
    }

    /// True while m is crashed (offline with amnesia, as opposed to a
    /// graceful churn leave which keeps its volatile state).
    [[nodiscard]] bool is_crashed(overlay::MemberIndex m) const {
        return faults_.is_crashed(m);
    }

    /// Attaches an opt-in diagnosis journal: every message that completes
    /// via diagnosis (i.e. was not acknowledged) appends one record with
    /// its forwarder chain, every judgment's Equation 2-3 blame inputs,
    /// and the final verdict.  Pass nullptr to detach.  The trace must
    /// outlive the cluster (or be detached first).
    void set_trace(core::DiagnosisTrace* trace) noexcept {
        stewardship_.set_trace(trace);
    }

  private:
    static void dispatch_event(void* ctx, std::uint32_t a, std::uint64_t b,
                               std::uint64_t c);
    /// Forwards each op to its owner.
    void run_event(Op op, std::uint64_t b, std::uint64_t c);

    Shared s_;
    EvidenceGossip gossip_;
    Prober prober_;
    Stewardship stewardship_;
    FaultDriver faults_;
    Adversary adversary_;
};

}  // namespace concilium::runtime
