#include "runtime/owners.h"

#include "util/spans.h"

namespace concilium::runtime {

namespace {

using util::metrics::Registry;

/// Steward acknowledgment timeout.
constexpr util::SimTime kAckTimeoutDelay = 5 * util::kSecond;
/// Delay between a timeout and the steward's judgment, leaving time for
/// reactive heavyweight snapshots and downstream revisions to arrive.
constexpr util::SimTime kJudgmentGrace = 8 * util::kSecond;
/// Crash recovery (RECOVERY.md): an in-flight stewardship whose forward is
/// older than this at restart is abandoned with a signed handoff instead
/// of resumed (the ack, if any, is long lost and the upstream judgment has
/// already run its course).
constexpr util::SimTime kRecoveryResumeHorizon = 30 * util::kSecond;

// A per-sim-minute windowed series (geometry matches the kWellKnownSeries
// catalogue in util/metrics.cpp).  Its callers keep the result in a
// function-local static.
util::metrics::SeriesMetric& minute_series(const char* name) {
    return Registry::global().series(  // hot-path-lint: boundary
        name, util::kMinute, 240, util::metrics::SeriesMetric::Mode::kSum);
}

}  // namespace

std::uint64_t Stewardship::send(overlay::MemberIndex from,
                                const util::NodeId& dest_key,
                                CompletionFn on_complete) {
    MessageContext ctx;
    ctx.id = next_message_id_++;
    ctx.route = s_.net->route(from, dest_key);
    ctx.sent_at = s_.sim->now();
    ctx.stewards.resize(ctx.route.size());
    ctx.on_complete = std::move(on_complete);
    s_.count<&Stats::messages>();
    const std::uint64_t id = ctx.id;
    messages_.emplace(id, std::move(ctx));
    deliver_to_hop(id, 0);
    return id;
}

void Stewardship::complete(MessageContext& ctx, MessageOutcome outcome) {
    ctx.completed = true;
    outcome.route = ctx.route;
    if (outcome.delivered) {
        s_.count<&Stats::delivered>();
    } else {
        outcome.true_drop_hop = ctx.dropped_by_hop;
        outcome.true_network_drop = ctx.dropped_by_network;
        outcome.true_network_segment = ctx.network_drop_segment;
        record_trace(ctx, outcome);
    }
    if (ctx.on_complete) ctx.on_complete(outcome);
}

void Stewardship::deliver_to_hop(std::uint64_t msg_id, std::size_t hop) {
    auto& ctx = messages_.at(msg_id);
    if (hop > 0) {
        // Dedupe: a node that already saw this message (retransmission or
        // chaos-duplicated packet) ignores further copies -- except the
        // destination, which re-acknowledges so that a retransmitted
        // message also heals a lost acknowledgment.
        if (ctx.stewards[hop].received) {
            if (hop + 1 == ctx.route.size() && !ctx.completed &&
                s_.online[ctx.route[hop]] && ctx.route.size() > 1) {
                static auto& reacks =
                    Registry::global().counter("runtime.retry.reacks");
                reacks.add(1);
                deliver_ack_to_hop(msg_id, hop);
                return;
            }
            s_.count<&Stats::duplicates_suppressed>();
            return;
        }
        ctx.stewards[hop].received = true;
    }
    if (hop > 0 && hop + 1 == ctx.route.size() &&
        !s_.online[ctx.route[hop]]) {
        // The destination is down: no acknowledgment will ever come.
        ctx.dropped_by_hop = hop;
        return;
    }
    if (hop + 1 < ctx.route.size()) {
        forward_from_hop(msg_id, hop);
    } else if (ctx.route.size() == 1) {
        complete(ctx, {.delivered = true});  // the sender is the destination
    } else {
        deliver_ack_to_hop(msg_id, hop);  // the ack starts its way back
    }
}

void Stewardship::forward_from_hop(std::uint64_t msg_id, std::size_t hop) {
    auto& ctx = messages_.at(msg_id);
    const overlay::MemberIndex m = ctx.route[hop];
    const overlay::MemberIndex next = ctx.route[hop + 1];
    const util::SimTime now = s_.sim->now();

    // A faulty *intermediate* forwarder may silently drop the message; an
    // offline one cannot forward at all.
    if (hop > 0 &&
        (!s_.online[m] ||
         s_.rng.bernoulli(s_.behavior(m).drop_forward_probability))) {
        ctx.dropped_by_hop = hop;
        if (s_.online[m] && s_.behavior(m).collude_revisions) {
            // The colluder waits out the upstream timeout, then pushes a
            // fabricated guilty revision framing its next hop for the drop
            // it just committed.
            s_.post(kAckTimeoutDelay + kJudgmentGrace, Op::kFabricatedRevision,
                    msg_id, hop);
        }
        return;  // upstream stewards will time out
    }

    // Forwarding commitment (Section 3.6), issued by the next hop.
    const util::NodeId& next_id = s_.net->member(next).id();
    if (s_.behavior(next).refuse_commitments) {
        s_.count<&Stats::commitments_refused>();
        s_.count<&Stats::reputation_votes>();
        reputation_.cast_vote(s_.net->member(m).id(), next_id);
        s_.journals[m].record_vote(next_id, now);
    } else {
        s_.count<&Stats::commitments_issued>();
        ctx.stewards[hop].commitment = core::make_forwarding_commitment(
            s_.net->member(m).id(), next_id,
            s_.net->member(ctx.route.back()).id(), msg_id, ctx.sent_at,
            s_.net->member(next).keys);
        // Stewards keep the commitments they collect; a slanderer or
        // colluder later reuses them as raw material for forged evidence.
        nodes_[m].collected.insert_or_assign(next,
                                             *ctx.stewards[hop].commitment);
    }

    ctx.stewards[hop].forwarded = true;
    s_.journals[m].record_steward_open(msg_id, hop, now,
                                       ctx.stewards[hop].commitment);
    s_.post(kAckTimeoutDelay, Op::kAckTimeout, msg_id, hop);

    transmit_to_next(msg_id, hop, 1);
}

util::SimTime Stewardship::chaos_extra_delay(double net::FaultPlan::*rate,
                                             util::metrics::Counter& fired) {
    const net::FaultPlan* chaos = s_.chaos;
    if (chaos == nullptr || chaos->*rate <= 0.0) return 0;
    if (!s_.rng.bernoulli(chaos->*rate)) return 0;
    fired.add(1);
    return std::max<util::SimTime>(
        1, static_cast<util::SimTime>(s_.rng.uniform(
               0.0, static_cast<double>(chaos->max_extra_delay))));
}

void Stewardship::transmit_to_next(std::uint64_t msg_id, std::size_t hop,
                                   int attempt) {
    auto& ctx = messages_.at(msg_id);
    const auto path = s_.ip_path(ctx.route[hop], ctx.route[hop + 1]);
    if (path.empty()) {
        ctx.network_drop(hop);
        return;  // no IP path exists; retrying cannot help
    }
    // An active partition cut swallows every copy; the retry arm below
    // stays armed, so a retransmission after the heal can still succeed.
    if (s_.partition_blocks(ctx.route[hop], ctx.route[hop + 1])) {
        s_.count<&Stats::partition_blocked_packets>();
        static auto& blocked_by_minute =
            minute_series("partition.messages_blocked.by_minute");
        blocked_by_minute.observe(s_.sim->now());
        if (!ctx.dropped_by_hop) ctx.network_drop(hop);
    } else if (s_.transport.sample_traversal(path, s_.sim->now())) {
        // One packet over the IP path; loss kills this copy.  Chaos may
        // delay it, and may duplicate it into a later copy that the
        // receiving steward dedupes.
        static auto& reordered =
            Registry::global().counter("chaos.packets_reordered");
        static auto& duplicated =
            Registry::global().counter("chaos.packets_duplicated");
        const util::SimTime arrival =
            s_.transport.latency(path.size()) +
            chaos_extra_delay(&net::FaultPlan::reorder_rate, reordered);
        s_.post(arrival, Op::kDeliverToHop, msg_id, hop + 1);
        const util::SimTime extra =
            chaos_extra_delay(&net::FaultPlan::duplicate_rate, duplicated);
        if (extra > 0) {
            s_.post(arrival + extra, Op::kDeliverToHop, msg_id, hop + 1);
        }
    } else if (!ctx.dropped_by_hop) {
        ctx.network_drop(hop);
    }
    // Steward retransmission (bounded backoff + jitter): the steward
    // cannot observe the loss, only the missing acknowledgment, so the
    // retry timer is armed regardless of this copy's fate and checks the
    // ack when it fires.  Downstream nodes dedupe spurious re-sends.
    const int next = attempt + 1;
    if (!s_.params.forward_retry.allows(next)) return;
    const auto backoff = s_.params.forward_retry.delay_before(next, s_.rng);
    s_.post(backoff, Op::kForwardRetry, msg_id,
            (static_cast<std::uint64_t>(hop) << 32) |
                static_cast<std::uint32_t>(next));
}

void Stewardship::forward_retry(std::uint64_t msg_id, std::size_t hop,
                                int attempt) {
    auto& ctx = messages_.at(msg_id);
    if (ctx.completed || ctx.stewards[hop].acked) return;
    if (!s_.online[ctx.route[hop]]) return;  // churned out mid-retry
    s_.count<&Stats::forward_retransmissions>();
    static auto& retries_by_minute =
        minute_series("runtime.retry.forward_attempts.by_minute");
    retries_by_minute.observe(s_.sim->now());
    transmit_to_next(msg_id, hop, attempt);
}

void Stewardship::deliver_ack_to_hop(std::uint64_t msg_id, std::size_t hop) {
    auto& ctx = messages_.at(msg_id);
    if (!s_.online[ctx.route[hop]]) return;  // a dead relay swallows the ack
    ctx.stewards[hop].acked = true;
    if (ctx.stewards[hop].forwarded) {
        // The acknowledgment retires this hop's stewardship on "disk" too:
        // a later crash must not resurrect it as an open obligation.
        s_.journals[ctx.route[hop]].record_steward_close(msg_id, hop);
    }
    if (hop == 0) {
        if (!ctx.completed) complete(ctx, {.delivered = true});
        return;
    }
    // Relay the acknowledgment upstream over hop-1's path.
    const auto path = s_.ip_path(ctx.route[hop - 1], ctx.route[hop]);
    if (path.empty()) {
        ctx.network_drop(std::nullopt);
        return;
    }
    const bool cut = s_.partition_blocks(ctx.route[hop], ctx.route[hop - 1]);
    if (cut) s_.count<&Stats::partition_blocked_packets, 1>();  // acks_blocked
    if (cut || !s_.transport.sample_traversal(path, s_.sim->now())) {
        // Lost or cut acknowledgment: upstream stewards will time out and a
        // chain of verdicts will be issued (Section 3.5).
        ctx.network_drop(hop - 1, /*first=*/true);
        return;
    }
    // Chaos may hold the relayed acknowledgment back; a delay long enough
    // to cross the upstream steward's timeout looks exactly like a loss
    // until the ack lands.
    static auto& delayed = Registry::global().counter("chaos.acks_delayed");
    const util::SimTime delay =
        chaos_extra_delay(&net::FaultPlan::ack_delay_rate, delayed);
    s_.post(s_.transport.latency(path.size()) + delay, Op::kDeliverAck, msg_id,
            hop - 1);
}

void Stewardship::on_ack_timeout(std::uint64_t msg_id, std::size_t hop) {
    auto& ctx = messages_.at(msg_id);
    StewardRecord& steward = ctx.stewards[hop];
    if (steward.acked || !steward.forwarded) return;
    // A crashed steward's timer outlived its memory of arming it; the
    // journaled stewardship is resumed or abandoned at restart instead.
    if (faults_.is_crashed(ctx.route[hop])) return;

    // Reactive heavyweight probing: the steward refreshes its own view and
    // asks its routing peers to do the same (Section 3.2).  The judge's own
    // refresh uses the (shorter) reactive floor: its tree covers the very
    // path it is about to rule on.
    prober_.react(ctx.route[hop]);
    s_.post(kJudgmentGrace, Op::kJudge, msg_id, hop);
}

core::BlameEvidence Stewardship::build_evidence(
    const MessageContext& ctx, std::size_t judge_hop,
    core::BlameBreakdown& breakdown) const {
    const overlay::MemberIndex m = ctx.route[judge_hop];
    return s_.evidence(
        m, ctx.route[judge_hop + 1], ctx.id, ctx.sent_at,
        [&](core::BlameEvidence& ev) {
            ev.snapshots = gossip_.archive(m).evidence_for(
                ev.path_links, ctx.sent_at, kBlame.delta, ev.suspect);
            if (ctx.stewards[judge_hop].commitment.has_value()) {
                ev.commitment = *ctx.stewards[judge_hop].commitment;
            }
            breakdown = core::compute_blame(
                ev.path_links, core::probes_from_snapshots(ev.snapshots),
                ctx.sent_at, ev.suspect, kBlame);
            ev.claimed_blame = breakdown.blame;
        });
}

void Stewardship::judge_next_hop(std::uint64_t msg_id, std::size_t hop) {
    auto& ctx = messages_.at(msg_id);
    StewardRecord& steward = ctx.stewards[hop];
    if (steward.acked || steward.judged) return;
    const overlay::MemberIndex m = ctx.route[hop];
    if (faults_.is_crashed(m)) return;  // a crashed judge testifies to nothing
    steward.judged = true;
    const util::SimTime now = s_.sim->now();

    core::BlameBreakdown breakdown;
    core::BlameEvidence ev = build_evidence(ctx, hop, breakdown);
    const bool guilty =
        core::is_guilty_verdict(ev.claimed_blame, kVerdicts);
    // Degraded-mode conviction bar (RECOVERY.md): with crash or partition
    // faults in play, the empty-evidence presumption ("otherwise, B was
    // faulty") would convict every node that merely crashed or sat across
    // a cut.  A guilty verdict then additionally requires either direct
    // proof of the opposite -- a signed handoff or a verified recovery
    // announcement covering the message -- to be absent, *and* fresh
    // post-incident probe coverage of every judged link to be present.  A
    // live malicious dropper still answers probes, so it always clears the
    // coverage bar and stays convictable.
    bool insufficient = false;
    if (guilty) {
        // A judge that lost its own control channel to the suspect -- the
        // two sat across an active cut at send or judgment time -- cannot
        // tell a partitioned peer from a dropper, no matter what its
        // same-side reporters' probes say: the silence it observed is its
        // own unreachability.
        const net::FaultPlan* chaos = s_.chaos;
        const overlay::MemberIndex suspect_m = ctx.route[hop + 1];
        const bool cut_from_suspect =
            s_.partition_blocks(m, suspect_m) ||
            (chaos != nullptr &&
             chaos->partition_blocks(m, suspect_m, ctx.sent_at));
        insufficient =
            steward.handoff.has_value() || cut_from_suspect ||
            announced_down(m, suspect_m, ctx.sent_at) ||
            announced_down(m, suspect_m, now) ||
            (chaos != nullptr && chaos->has_recovery_faults() &&
             !post_incident_coverage(ev, ctx.sent_at));
    }
    steward.breakdown = std::move(breakdown);
    steward.judged_at = now;
    util::spans::sim_instant(util::spans::SpanType::kJudgment, now,
                             /*causal=*/msg_id,
                             /*arg=*/static_cast<std::int64_t>(hop));
    steward.judgment = std::move(ev);
    s_.journals[m].record_steward_close(msg_id, hop);
    if (insufficient) {
        // Abstention: no ledger entry, no journaled verdict, no upstream
        // revision -- "insufficient evidence" is not a verdict anybody may
        // accumulate toward an accusation or relay as a revision.
        steward.judgment_insufficient = true;
        s_.count<&Stats::insufficient_verdicts>();
    } else {
        const util::NodeId& suspect = steward.judgment->suspect;
        nodes_[m].ledger.record(suspect, steward.judgment->claimed_blame, now);
        s_.journals[m].record_verdict(suspect, guilty, now);
        if (guilty) {
            s_.count<&Stats::guilty_verdicts>();
        } else {
            s_.count<&Stats::innocent_verdicts>();
        }
        steward.judgment_guilty = guilty;
        if (hop > 0) push_revision_upstream(msg_id, hop);
    }
    if (hop == 0) {
        // Give downstream revisions time to climb the chain, then settle.
        const auto settle =
            kControlLatency * static_cast<util::SimTime>(ctx.route.size() + 2) +
            kJudgmentGrace;
        s_.post(settle, Op::kMaybeComplete, msg_id);
    }
}

void Stewardship::push_revision_upstream(std::uint64_t msg_id,
                                         std::size_t hop) {
    auto& ctx = messages_.at(msg_id);
    if (s_.behavior(ctx.route[hop]).refuse_revisions) return;  // own peril
    if (!ctx.stewards[hop].judgment.has_value()) return;
    s_.count<&Stats::revisions_pushed>();
    // Each steward presents the verdict to its upstream neighbor, which
    // relays it further unless it withholds revisions itself (Section 3.5).
    s_.post_parked(kControlLatency, Op::kRelayRevision, msg_id,
                   *ctx.stewards[hop].judgment, hop - 1);
}

void Stewardship::relay_revision(std::uint64_t msg_id,
                                 core::BlameEvidence evidence,
                                 std::size_t to_hop) {
    auto& ctx = messages_.at(msg_id);
    s_.count<&Stats::revisions_applied>();
    if (to_hop == 0) {
        ctx.revisions.push_back(std::move(evidence));
        return;
    }
    if (s_.behavior(ctx.route[to_hop]).refuse_revisions) return;
    s_.post_parked(kControlLatency, Op::kRelayRevision, msg_id,
                   std::move(evidence), to_hop - 1);
}

void Stewardship::push_fabricated_revision(std::uint64_t msg_id,
                                           std::size_t hop) {
    auto& ctx = messages_.at(msg_id);
    const overlay::MemberIndex m = ctx.route[hop];
    if (ctx.completed || !s_.online[m]) return;
    const overlay::MemberIndex next = ctx.route[hop + 1];
    // No snapshots: the colluder's archive holds evidence the path was fine
    // (it dropped the message itself), so it bundles nothing and asserts
    // maximum blame.  Without a commitment for *this* message from the
    // framed hop, the best it can attach is a stale commitment it collected
    // earlier -- either way, sender-side re-verification fails.
    core::BlameEvidence ev = s_.evidence(
        m, next, ctx.id, ctx.sent_at, [&](core::BlameEvidence& e) {
            const auto it = nodes_[m].collected.find(next);
            if (it != nodes_[m].collected.end()) e.commitment = it->second;
            e.claimed_blame = 1.0;
        });
    s_.count<&Stats::collusions_pushed>();
    s_.post_parked(kControlLatency, Op::kRelayRevision, msg_id,
                   std::move(ev), hop - 1);
}

void Stewardship::maybe_complete(std::uint64_t msg_id) {
    auto& ctx = messages_.at(msg_id);
    if (ctx.completed) return;
    ctx.completed = true;
    if (ctx.dropped_by_hop.has_value()) {
        s_.count<&Stats::dropped_by_forwarder>();
    } else if (ctx.dropped_by_network) {
        s_.count<&Stats::dropped_by_network>();
    }

    const auto& sender = ctx.stewards[0];
    // Sender never judged (e.g. it never forwarded): nothing to report.
    if (!sender.judgment.has_value()) return complete(ctx, {});
    if (sender.judgment_insufficient) {
        // Degraded mode: the sender's own judgment abstained, so the
        // diagnosis closes without blaming anyone (RECOVERY.md).
        return complete(ctx, {.insufficient_evidence = true});
    }
    if (!core::is_guilty_verdict(sender.judgment->claimed_blame, kVerdicts)) {
        return complete(ctx, {.network_blamed = true});
    }
    MessageOutcome outcome;
    // Walk the revision chain: start blaming hop 1, follow pushed verdicts.
    // Every pushed revision is re-verified before it is honored -- same
    // checks a third party runs on a full accusation (signatures, the
    // commitment's message binding, snapshot freshness, the Equation 2-3
    // recomputation).  A fabricated revision is simply ignored, leaving the
    // blame where the sender's own verified chain ends.
    const core::AccusationVerifier auditor = verifier();
    util::NodeId accused = sender.judgment->suspect;
    std::vector<const core::BlameEvidence*> chain{&*sender.judgment};
    bool network = false;
    for (bool advanced = true; advanced;) {
        advanced = false;
        for (const core::BlameEvidence& ev : ctx.revisions) {
            if (!(ev.judge == accused)) continue;
            const core::AccusationCheck check = auditor.verify_evidence(ev);
            if (check == core::AccusationCheck::kBlameBelowThreshold) {
                // The accused proved the IP path to its next hop was bad.
                network = true;
            } else if (check == core::AccusationCheck::kOk) {
                accused = ev.suspect;
                chain.push_back(&ev);
                advanced = true;
            } else {
                s_.count<&Stats::revisions_rejected>();
            }
            break;
        }
        if (network) break;
    }
    const auto accused_m = s_.net->index_of(accused);
    if (network) {
        outcome.network_blamed = true;
    } else if (accused_abstained(ctx, accused) ||
               (accused_m.has_value() &&
                announced_down(ctx.route[0], *accused_m, ctx.sent_at))) {
        // The final accused either abstained from its own judgment (it
        // demonstrably forwarded, then lost its channel to the next hop
        // across a cut -- the abstention reaches the sender over the
        // intact same-side path in place of a revision) or provably
        // crashed across the message interval.  Either way the evidence
        // chain ends without a verdict: the sender abstains from blame
        // and accusation alike.
        outcome.insufficient_evidence = true;
        s_.count<&Stats::insufficient_verdicts>();
    } else {
        outcome.blamed = accused;
        // File a formal accusation once the suspect has accumulated enough
        // guilty verdicts in the sender's window (Section 3.4).
        const overlay::MemberIndex sender_m = ctx.route[0];
        if (nodes_[sender_m].ledger.guilty_count(sender.judgment->suspect) >=
                kVerdicts.accusation_threshold &&
            sender.commitment.has_value()) {
            core::FaultAccusation accusation;
            accusation.accuser = s_.net->member(sender_m).id();
            for (const core::BlameEvidence* ev : chain) {
                // A suspect that never issued a forwarding commitment can
                // only be handled through the reputation system (Section
                // 3.6); the verifiable chain truncates there.
                const auto suspect_key = s_.key_of(ev->suspect);
                if (!suspect_key.has_value() ||
                    !core::verify_forwarding_commitment(
                        ev->commitment, *suspect_key, s_.registry)) {
                    break;
                }
                accusation.evidence.push_back(*ev);
            }
            if (!accusation.evidence.empty()) {
                accusation.signature = s_.net->member(sender_m).keys.sign(
                    accusation.signed_payload());
                const auto accused_member =
                    s_.net->index_of(accusation.accused());
                if (accused_member.has_value()) {
                    s_.dht.put(sender_m,
                               core::FaultAccusation::dht_key(
                                   s_.net->member(*accused_member)
                                       .keys.public_key()),
                               accusation.serialize());
                    s_.count<&Stats::accusations_filed>();
                }
            }
        }
    }
    complete(ctx, outcome);
}

void Stewardship::record_trace(const MessageContext& ctx,
                               const MessageOutcome& outcome) {
    // The whole-diagnosis span (sent → settled), causally keyed by message
    // id like every judgment recorded along the way; arg encodes the
    // verdict class.  Recorded whether or not a DiagnosisTrace is attached.
    const std::int64_t verdict_arg = outcome.insufficient_evidence ? 3
                                     : outcome.network_blamed      ? 2
                                     : outcome.blamed.has_value()  ? 1
                                                                   : 0;
    util::spans::sim_span(util::spans::SpanType::kDiagnosis, ctx.sent_at,
                          s_.sim->now(), /*causal=*/ctx.id, verdict_arg);
    if (trace_ == nullptr) return;
    core::DiagnosisRecord rec;
    rec.message_id = ctx.id;
    rec.sent_at = ctx.sent_at;
    rec.completed_at = s_.sim->now();
    rec.forwarder_chain.reserve(ctx.route.size());
    for (const overlay::MemberIndex m : ctx.route) {
        rec.forwarder_chain.push_back(s_.net->member(m).id());
    }
    for (std::size_t hop = 0; hop < ctx.stewards.size(); ++hop) {
        const StewardRecord& s = ctx.stewards[hop];
        if (!s.judgment.has_value()) continue;
        core::TraceJudgment j;
        j.judge = s.judgment->judge;
        j.suspect = s.judgment->suspect;
        j.judged_at = s.judged_at;
        j.path_links = s.judgment->path_links;
        if (s.breakdown.has_value()) j.breakdown = *s.breakdown;
        j.guilty = s.judgment_guilty;
        j.revision = hop > 0;
        rec.judgments.push_back(std::move(j));
    }
    if (outcome.insufficient_evidence) {
        rec.verdict = core::DiagnosisRecord::Verdict::kInsufficientEvidence;
    } else if (outcome.network_blamed) {
        rec.verdict = core::DiagnosisRecord::Verdict::kNetworkBlamed;
    } else if (outcome.blamed.has_value()) {
        rec.verdict = core::DiagnosisRecord::Verdict::kNodeBlamed;
        rec.blamed = outcome.blamed;
    }
    trace_->record(std::move(rec));
}

core::AccusationVerifier Stewardship::verifier() const {
    return core::AccusationVerifier(
        s_.registry,
        [this](const util::NodeId& id) { return s_.key_of(id); },
        kBlame, kVerdicts,
        // Path claims are checked against the verifier's own link map: the
        // judge's claimed path must be the actual IP path between the two
        // nodes (Section 3.4 bundles the routing state for this purpose).
        [this](const util::NodeId& judge, const util::NodeId& suspect,
               std::span<const net::LinkId> links) {
            const auto j = s_.net->index_of(judge);
            const auto x = s_.net->index_of(suspect);
            if (!j.has_value() || !x.has_value() ||
                !s_.trees->leaf_slot(*j, *x).has_value()) {
                return false;
            }
            const auto truth = s_.trees->path_links(*j, *x);
            return std::equal(links.begin(), links.end(), truth.begin(),
                              truth.end());
        });
}

// ------------------------- crash recovery + partitions (RECOVERY.md)

void Stewardship::restore(overlay::MemberIndex m,
                          const NodeJournal::RecoveredState& recovered) {
    Node& node = nodes_[m];
    node.ledger.restore_windows(recovered.windows);
    // Collected commitments come back too.  Votes do not: the reputation
    // book models durable DHT-backed state, so re-casting would
    // double-count.
    for (const auto& [issuer, commitment] : recovered.collected) {
        // The journal keys by durable NodeId; resolve to the dense member
        // index once, here at the replay boundary.
        const auto issuer_m = s_.net->index_of(issuer);
        if (!issuer_m.has_value()) continue;
        node.collected.insert_or_assign(*issuer_m, commitment);
    }
}

void Stewardship::resume(overlay::MemberIndex m,
                         const std::vector<JournaledStewardship>& open,
                         util::SimTime crashed_at) {
    const util::SimTime now = s_.sim->now();
    for (const JournaledStewardship& j : open) {
        const auto it = messages_.find(j.message_id);
        if (it == messages_.end()) continue;
        MessageContext& ctx = it->second;
        const auto hop = static_cast<std::size_t>(j.hop);
        if (hop + 1 >= ctx.route.size() || ctx.route[hop] != m) continue;
        StewardRecord& steward = ctx.stewards[hop];
        if (ctx.completed || steward.acked || steward.judged) continue;
        if (now - j.forwarded_at <= kRecoveryResumeHorizon) {
            s_.count<&Stats::stewardships_resumed>();
            s_.post(kAckTimeoutDelay, Op::kAckTimeout, j.message_id, hop);
            transmit_to_next(j.message_id, hop, 1);
            continue;
        }
        // Too stale to resume: any ack is long lost and the upstream
        // judgment has run its course.  Abandon with a signed handoff so
        // the upstream's pending judgment of *us* resolves as insufficient
        // evidence, not guilt.
        s_.count<&Stats::stewardships_abandoned>();
        steward.judged = true;  // this steward will never judge
        s_.journals[m].record_steward_close(j.message_id, j.hop);
        if (hop == 0) {
            // The abandoning steward is the sender itself: close out the
            // diagnosis so the completion callback still fires.
            s_.post(kControlLatency, Op::kMaybeComplete, j.message_id);
            continue;
        }
        const overlay::MemberIndex up = ctx.route[hop - 1];
        if (!s_.online[up]) continue;
        if (s_.partition_blocks(m, up)) {
            static auto& control_blocked =
                Registry::global().counter("partition.control_blocked");
            control_blocked.add(1);
            continue;
        }
        const StewardHandoff handoff = make_steward_handoff(
            s_.net->member(m).id(), j.message_id, j.hop, crashed_at, now,
            s_.net->member(m).keys);
        s_.post_parked(kControlLatency, Op::kHandoff, j.message_id, handoff,
                       hop - 1);
    }
}

void Stewardship::accept_recovery_announcement(
    overlay::MemberIndex peer, const RecoveryAnnouncement& announcement) {
    if (!s_.online[peer]) return;
    const auto announcer = s_.net->index_of(announcement.node);
    if (!announcer.has_value()) return;
    const auto& key = s_.net->member(*announcer).keys.public_key();
    if (!verify_recovery_announcement(announcement, key, s_.registry)) {
        return;  // a forged outage claim buys nothing
    }
    static auto& announcements_delivered =
        Registry::global().counter("recovery.announcements_delivered");
    announcements_delivered.add(1);
    Node& node = nodes_[peer];
    node.recovery_seen[*announcer].push_back(announcement);
    const int retracted = node.ledger.retract_guilty(
        announcement.node, announcement.crashed_at, announcement.restarted_at);
    if (retracted > 0) {
        s_.count<&Stats::verdicts_retracted>(
            static_cast<std::size_t>(retracted));
        s_.journals[peer].record_retraction(announcement.node,
                                            announcement.crashed_at,
                                            announcement.restarted_at);
    }
}

void Stewardship::deliver_handoff(std::uint64_t msg_id, std::size_t to_hop,
                                  const StewardHandoff& handoff) {
    const auto it = messages_.find(msg_id);
    if (it == messages_.end()) return;
    MessageContext& ctx = it->second;
    if (to_hop + 1 >= ctx.route.size()) return;
    if (!s_.online[ctx.route[to_hop]]) return;
    // The handoff must be signed by the very node this steward forwarded
    // to; a third party cannot abandon someone else's stewardship.
    const util::NodeId downstream =
        s_.net->member(ctx.route[to_hop + 1]).id();
    const auto key = s_.key_of(handoff.steward);
    if (!(handoff.steward == downstream) || !key.has_value() ||
        !verify_steward_handoff(handoff, *key, s_.registry)) {
        return;
    }
    ctx.stewards[to_hop].handoff = handoff;
    static auto& handoffs_delivered =
        Registry::global().counter("recovery.handoffs_delivered");
    handoffs_delivered.add(1);
}

bool Stewardship::post_incident_coverage(const core::BlameEvidence& evidence,
                                         util::SimTime message_time) const {
    if (evidence.path_links.empty()) return false;
    const auto probes = core::probes_from_snapshots(evidence.snapshots);
    for (const net::LinkId link : evidence.path_links) {
        bool covered = false;
        for (const core::ProbeResult& p : probes) {
            if (p.link != link) continue;
            if (p.reporter == evidence.suspect) continue;
            if (p.at < message_time ||
                p.at > message_time + kBlame.delta) {
                continue;
            }
            covered = true;
            break;
        }
        if (!covered) return false;
    }
    return true;
}

bool Stewardship::announced_down(overlay::MemberIndex observer,
                                 overlay::MemberIndex suspect,
                                 util::SimTime t) const {
    const auto& seen = nodes_[observer].recovery_seen;
    const auto it = seen.find(suspect);
    if (it == seen.end()) return false;
    for (const RecoveryAnnouncement& a : it->second) {
        if (a.covers(t)) return true;
    }
    return false;
}

bool Stewardship::accused_abstained(const MessageContext& ctx,
                                    const util::NodeId& accused) const {
    for (std::size_t h = 1; h < ctx.stewards.size(); ++h) {
        if (s_.net->member(ctx.route[h]).id() == accused) {
            return ctx.stewards[h].judgment_insufficient;
        }
    }
    return false;
}

}  // namespace concilium::runtime
