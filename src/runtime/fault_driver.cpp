#include "runtime/owners.h"

#include "util/spans.h"

namespace concilium::runtime {

void FaultDriver::start() {
    exchange_routing_state();
    const net::FaultPlan* chaos = s_.chaos;
    if (chaos == nullptr) return;
    for (const net::ChurnEvent& ev : chaos->churn) {
        if (ev.node >= s_.net->size()) continue;
        s_.post_at(ev.leave, Op::kChurnLeave, ev.node);
        s_.post_at(ev.rejoin, Op::kChurnRejoin, ev.node);
    }
    for (const net::CrashEvent& ev : chaos->crashes) {
        if (ev.node >= s_.net->size()) continue;
        s_.post_at(ev.crash, Op::kCrash, ev.node);
        s_.post_at(ev.restart, Op::kRestart, ev.node);
    }
    for (const net::PartitionEvent& ev : chaos->partitions) {
        s_.post_at(ev.start, Op::kPartitionStart);
        s_.post_at(ev.heal, Op::kPartitionHeal);
    }
}

void FaultDriver::exchange_routing_state() {
    // Section 3.1: peers exchange signed jump tables before Concilium can
    // predict forwarding paths; each receiver runs the full validation
    // pipeline (owner signature, per-entry freshness, slot constraints,
    // the occupancy density test).
    ad_rejecters_.assign(s_.net->size(), {});
    for (overlay::MemberIndex m = 0; m < s_.net->size(); ++m) {
        if (!s_.online[m]) continue;
        const auto ad = routing_advertisement(m);
        for (const overlay::MemberIndex peer : s_.net->routing_peers(m)) {
            if (!s_.online[peer]) continue;
            if (accepts(ad, peer)) {
                s_.count<&Stats::advertisements_accepted>();
            } else {
                s_.count<&Stats::advertisements_rejected>();
                ad_rejecters_[m].push_back(peer);
            }
        }
    }
}

overlay::JumpTableAdvertisement FaultDriver::routing_advertisement(
    overlay::MemberIndex m) const {
    const util::SimTime now = s_.sim->now();
    auto ad = overlay::make_advertisement(
        *s_.net, m, now, [&](overlay::MemberIndex) {
            // Entries were last vouched for within one probe period.
            return std::max<util::SimTime>(
                0, now - s_.params.probe_interval_max / 2);
        });
    const double fraction = s_.behavior(m).advertised_table_fraction;
    if (fraction < 1.0) {
        // Suppression attack: hide a share of the honest entries.
        ad.entries.resize(static_cast<std::size_t>(
            fraction * static_cast<double>(ad.entries.size())));
        ad.signature = s_.net->member(m).keys.sign(ad.signed_payload());
    }
    return ad;
}

bool FaultDriver::accepts(const overlay::JumpTableAdvertisement& ad,
                          overlay::MemberIndex peer) const {
    return core::validate_advertisement(
               ad, s_.net->secure_table(peer).density(), s_.sim->now(),
               s_.params.validation,
               [this](const util::NodeId& id) { return s_.key_of(id); },
               s_.registry) == core::AdvertisementCheck::kOk;
}

void FaultDriver::crash(overlay::MemberIndex m) {
    if (crashed_[m]) return;
    s_.count<&Stats::crashes>();
    crashed_[m] = true;
    crashed_at_[m] = s_.sim->now();
    s_.online[m] = false;
    // Amnesia: each owner forgets m's volatile state.  Only the journal --
    // the node's "disk" -- survives a crash-stop (and the adversary's round
    // cursors, which are not protocol state).
    gossip_.forget(m);
    stewardship_.forget(m);
    prober_.forget(m);
}

void FaultDriver::restart(overlay::MemberIndex m) {
    if (!crashed_[m]) return;
    crashed_[m] = false;
    s_.online[m] = true;
    s_.count<&Stats::restarts>();
    s_.count<&Stats::journal_replays>();
    // A copy: resuming closes stewardships, which edits the journal's
    // open list while resume() walks this one.
    const NodeJournal::RecoveredState recovered = s_.journals[m].state();
    // Without the journaled epoch floor the restarted node would re-issue
    // epochs its peers already archived -- and read as an equivocator.
    gossip_.resume_epochs(m, recovered.next_epoch);
    stewardship_.restore(m, recovered);
    recovery_handshake(m, recovered);
    s_.journals[m].record_restart(s_.sim->now());
}

void FaultDriver::recovery_handshake(
    overlay::MemberIndex m, const NodeJournal::RecoveredState& recovered) {
    const util::SimTime now = s_.sim->now();
    // Outage interval (crash → handshake) on the sim clock, keyed by the
    // recovering member.
    util::spans::sim_span(util::spans::SpanType::kRecoveryHandshake,
                          crashed_at_[m], now, /*causal=*/m,
                          static_cast<std::int64_t>(recovered.incarnations));
    // (a) Announce the outage.  The signed interval is what turns peers'
    // degraded-mode guilty presumptions into retractions.
    const RecoveryAnnouncement announcement = make_recovery_announcement(
        s_.net->member(m).id(), recovered.incarnations + 1, crashed_at_[m],
        now, s_.net->member(m).keys);
    s_.count<&Stats::recovery_announcements>();

    // (b) Leaf-set / jump-table repair: re-advertise routing state; every
    // peer re-runs the full validation pipeline, so a forged "repair"
    // advertisement fails exactly like any other forged advertisement.
    const auto ad = routing_advertisement(m);
    for (const overlay::MemberIndex peer : s_.net->routing_peers(m)) {
        if (!s_.online[peer]) continue;
        if (s_.partition_blocks(m, peer)) {
            static auto& control_blocked =
                util::metrics::Registry::global().counter(
                    "partition.control_blocked");
            control_blocked.add(1);
            continue;
        }
        s_.post_parked(kControlLatency, Op::kAnnouncement, peer, announcement);
        if (accepts(ad, peer)) {
            s_.count<&Stats::recovery_repairs_accepted>();
        } else {
            s_.count<&Stats::recovery_repairs_rejected>();
        }
    }

    // (c) Refresh the node's own view immediately: its next snapshots (and
    // the evidence it can contribute to judges) recover without waiting for
    // the periodic round.
    prober_.probe_once(m);

    // (d) Resume or abandon each stewardship in flight at the crash.
    stewardship_.resume(m, recovered.open_stewardships, crashed_at_[m]);
}

void FaultDriver::heal_partition() {
    s_.count<&Stats::partition_heals>();
    // Anti-entropy: both sides probe once, staggered, so fresh snapshots
    // cross the healed cut and the sides' archives re-converge.
    for (overlay::MemberIndex m = 0; m < s_.net->size(); ++m) {
        if (!s_.online[m]) continue;
        const auto stagger = static_cast<util::SimTime>(m % 64) *
                             (25 * util::kMillisecond);
        s_.post(stagger, Op::kResync, m);
    }
}

}  // namespace concilium::runtime
