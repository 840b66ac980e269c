#include "runtime/cluster.h"

#include "tomography/verification.h"
#include "util/metrics.h"
#include "util/spans.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace concilium::runtime {

namespace {

const NodeBehavior kHonest{};

// Every Stats increment is mirrored into the process metrics registry
// through a counter looked up once, into a function-local static at its
// call site: a by-name lookup takes the registry mutex and a map search,
// and the busiest sites run millions of times a run.
using util::metrics::Registry;

// A per-sim-minute windowed series (geometry matches the kWellKnownSeries
// catalogue in util/metrics.cpp).  Its callers keep the result in a
// function-local static.
util::metrics::SeriesMetric& minute_series(const char* name) {
    return Registry::global().series(  // hot-path-lint: boundary
        name, util::kMinute, 240, util::metrics::SeriesMetric::Mode::kSum);
}

// Inverts every link observation and path bucket of a snapshot: the
// report of a node lying about its own probes.
void invert_report(tomography::TomographicSnapshot& snapshot) {
    for (auto& obs : snapshot.links) obs.up = !obs.up;
    for (auto& path : snapshot.paths) {
        path.bucket = path.bucket == tomography::LossBucket::kClean
                          ? tomography::LossBucket::kDown
                          : tomography::LossBucket::kClean;
    }
}

}  // namespace

Cluster::Cluster(net::EventSim& sim, const net::FailureTimeline& timeline,
                 const overlay::OverlayNetwork& net,
                 const tomography::OverlayTrees& trees, RuntimeParams params,
                 std::vector<NodeBehavior> behaviors, util::Rng rng)
    : sim_(&sim), timeline_(&timeline), net_(&net), trees_(&trees),
      params_(params), behaviors_(std::move(behaviors)), rng_(rng),
      transport_(timeline, rng_.fork(), params.transport),
      dht_(net, params.dht_replication, params.dht_per_writer_quota),
      reputation_(params.reputation_vote_expiry) {
    if (!behaviors_.empty() && behaviors_.size() != net.size()) {
        throw std::invalid_argument(
            "Cluster: behaviors must match overlay size");
    }
    handler_ = sim_->register_handler(this, &Cluster::dispatch_event);
    online_.assign(net.size(), true);
    journals_.resize(net.size());
    crashed_.assign(net.size(), false);
    crashed_at_.assign(net.size(), 0);
    admitted_digests_.resize(net.size());
    member_of_.reserve(net.size());
    nodes_.reserve(net.size());
    for (overlay::MemberIndex m = 0; m < net.size(); ++m) {
        registry_.register_key(net.member(m).keys);
        member_of_.emplace(net.member(m).id(), m);
        nodes_.push_back(NodeState{
            .archive = SnapshotArchive(params_.blame.delta + 5 * util::kMinute,
                                       params_.snapshot_max_transit,
                                       params_.archive_max_per_origin),
            .ledger = core::VerdictLedger(params_.verdicts)});
    }
}

void Cluster::set_online(overlay::MemberIndex m, bool online) {
    online_.at(m) = online;
}

void Cluster::post_parked(util::SimTime delay, Op op, std::uint64_t b,
                          Parked payload, std::uint64_t hi) {
    std::uint64_t slot;
    if (free_parked_.empty()) {
        slot = parked_.size();
        parked_.push_back(std::move(payload));
    } else {
        slot = free_parked_.back();
        free_parked_.pop_back();
        parked_[slot] = std::move(payload);
    }
    post(delay, op, b, (hi << 32) | slot);
}

template <class T>
T Cluster::unpark(std::uint64_t c) {
    const auto slot = static_cast<std::uint32_t>(c);
    free_parked_.push_back(slot);
    return std::get<T>(std::move(parked_[slot]));
}

void Cluster::dispatch_event(void* ctx, std::uint32_t a, std::uint64_t b,
                             std::uint64_t c) {
    static_cast<Cluster*>(ctx)->run_event(static_cast<Op>(a), b, c);
}

void Cluster::run_event(Op op, std::uint64_t b, std::uint64_t c) {
    const auto member = static_cast<overlay::MemberIndex>(b);
    const auto hi = static_cast<std::size_t>(c >> 32);  // a hop or attempt
    switch (op) {
        case Op::kProbeRound:
            run_probe_round(member);
            break;
        case Op::kSlanderRound:
            run_slander_round(member);
            break;
        case Op::kSpamRound:
            run_spam_round(member);
            break;
        case Op::kPeerRefresh:
            if (sim_->now() - nodes_[member].last_heavyweight >=
                params_.heavyweight_min_gap) {
                run_heavyweight(member);
            }
            break;
        case Op::kDeliverToHop:
            deliver_to_hop(b, static_cast<std::size_t>(c));
            break;
        case Op::kDeliverAck:
            deliver_ack_to_hop(b, static_cast<std::size_t>(c));
            break;
        case Op::kAckTimeout:
            on_ack_timeout(b, static_cast<std::size_t>(c));
            break;
        case Op::kJudge:
            judge_next_hop(b, static_cast<std::size_t>(c));
            break;
        case Op::kForwardRetry:
            forward_retry(b, hi, static_cast<int>(c & 0xffffffffu));
            break;
        case Op::kMaybeComplete:
            maybe_complete(b);
            break;
        case Op::kFabricatedRevision:
            push_fabricated_revision(b, static_cast<std::size_t>(c));
            break;
        case Op::kRelayRevision:
            relay_revision(b, unpark<core::BlameEvidence>(c), hi);
            break;
        case Op::kHandoff:
            deliver_handoff(b, hi, unpark<StewardHandoff>(c));
            break;
        case Op::kFanOutSnapshot: {
            const FanOut fan = unpark<FanOut>(c);
            std::size_t rank = 0;
            for (const overlay::MemberIndex peer : net_->routing_peers(member)) {
                deliver_snapshot(peer, fan.copy_for(rank++));
            }
            break;
        }
        case Op::kDeliverSnapshot:
            deliver_snapshot(member, unpark<SnapshotRef>(c));
            break;
        case Op::kSnapshotRetry:
            send_snapshot(member, unpark<SnapshotRef>(c),
                          static_cast<int>(hi));
            break;
        case Op::kAnnouncement:
            accept_recovery_announcement(member,
                                         unpark<RecoveryAnnouncement>(c));
            break;
        case Op::kResync: {
            if (!online_[member]) break;
            ++stats_.resync_rounds;
            static auto& resync_rounds =
                Registry::global().counter("partition.resync_rounds");
            resync_rounds.add(1);
            probe_round_once(member);
            break;
        }
        case Op::kChurnLeave: {
            ++stats_.churn_leaves;
            static auto& churn_leaves =
                Registry::global().counter("runtime.churn_leaves");
            churn_leaves.add(1);
            set_online(member, false);
            break;
        }
        case Op::kChurnRejoin: {
            ++stats_.churn_rejoins;
            static auto& churn_rejoins =
                Registry::global().counter("runtime.churn_rejoins");
            churn_rejoins.add(1);
            // A crashed node stays down until restart_node brings it back.
            if (!crashed_[member]) set_online(member, true);
            break;
        }
        case Op::kCrash:
            crash_node(member);
            break;
        case Op::kRestart:
            restart_node(member);
            break;
        case Op::kPartitionStart: {
            ++stats_.partition_activations;
            static auto& activations =
                Registry::global().counter("partition.activations");
            activations.add(1);
            break;
        }
        case Op::kPartitionHeal:
            heal_partition();
            break;
    }
}

void Cluster::schedule_churn() {
    for (const net::ChurnEvent& ev : chaos_->churn) {
        if (ev.node >= net_->size()) continue;
        post_at(ev.leave, Op::kChurnLeave, ev.node);
        post_at(ev.rejoin, Op::kChurnRejoin, ev.node);
    }
}

util::SimTime Cluster::chaos_extra_delay(double rate,
                                         util::metrics::Counter& fired) {
    if (chaos_ == nullptr || rate <= 0.0) return 0;
    if (!rng_.bernoulli(rate)) return 0;
    fired.add(1);
    return std::max<util::SimTime>(
        1, static_cast<util::SimTime>(rng_.uniform(
               0.0, static_cast<double>(chaos_->max_extra_delay))));
}

// ------------------------- crash recovery + partitions (RECOVERY.md)

void Cluster::schedule_recovery_faults() {
    for (const net::CrashEvent& ev : chaos_->crashes) {
        if (ev.node >= net_->size()) continue;
        post_at(ev.crash, Op::kCrash, ev.node);
        post_at(ev.restart, Op::kRestart, ev.node);
    }
    for (const net::PartitionEvent& ev : chaos_->partitions) {
        post_at(ev.start, Op::kPartitionStart);
        post_at(ev.heal, Op::kPartitionHeal);
    }
}

void Cluster::crash_node(overlay::MemberIndex m) {
    if (crashed_[m]) return;
    ++stats_.crashes;
    static auto& crashes = Registry::global().counter("recovery.crashes");
    crashes.add(1);
    crashed_[m] = true;
    crashed_at_[m] = sim_->now();
    online_[m] = false;
    // Amnesia: every volatile structure resets.  Only journals_[m] -- the
    // node's "disk" -- survives a crash-stop.
    NodeState& node = nodes_[m];
    node.archive = SnapshotArchive(params_.blame.delta + 5 * util::kMinute,
                                   params_.snapshot_max_transit,
                                   params_.archive_max_per_origin);
    node.ledger = core::VerdictLedger(params_.verdicts);
    node.last_heavyweight = -(1LL << 60);
    node.next_epoch = 1;
    node.replay_stash.reset();
    node.collected.clear();
    node.recovery_seen.clear();
}

void Cluster::restart_node(overlay::MemberIndex m) {
    if (!crashed_[m]) return;
    crashed_[m] = false;
    online_[m] = true;
    ++stats_.restarts;
    static auto& restarts = Registry::global().counter("recovery.restarts");
    restarts.add(1);
    ++stats_.journal_replays;
    static auto& journal_replays =
        Registry::global().counter("recovery.journal_replays");
    journal_replays.add(1);
    const NodeJournal::RecoveredState recovered =
        journals_[m].replay(params_.verdicts.window);
    NodeState& node = nodes_[m];
    // Without the journaled epoch floor the restarted node would re-issue
    // epochs its peers already archived -- and read as an equivocator.
    node.next_epoch = std::max<std::uint64_t>(1, recovered.next_epoch);
    node.ledger.restore_windows(recovered.windows);
    // Collected commitments come back too (recovered.votes stay advisory:
    // the reputation book models durable DHT-backed state, so re-casting
    // would double-count).
    for (const auto& [issuer, commitment] : recovered.collected) {
        // The journal keys by durable NodeId; resolve to the dense member
        // index once, here at the replay boundary.
        const auto issuer_it = member_of_.find(issuer);
        if (issuer_it == member_of_.end()) continue;
        node.collected.insert_or_assign(issuer_it->second, commitment);
    }
    recovery_handshake(m, recovered);
    journals_[m].record_restart(sim_->now());
}

void Cluster::recovery_handshake(
    overlay::MemberIndex m, const NodeJournal::RecoveredState& recovered) {
    const util::SimTime now = sim_->now();
    // Outage interval (crash → handshake) on the sim clock, keyed by the
    // recovering member.
    util::spans::sim_span(util::spans::SpanType::kRecoveryHandshake,
                          crashed_at_[m], now, /*causal=*/m,
                          static_cast<std::int64_t>(recovered.incarnations));
    // (a) Announce the outage.  The signed interval is what turns peers'
    // degraded-mode guilty presumptions into retractions.
    const RecoveryAnnouncement announcement = make_recovery_announcement(
        net_->member(m).id(), recovered.incarnations + 1, crashed_at_[m], now,
        net_->member(m).keys);
    ++stats_.recovery_announcements;
    static auto& announcements_sent =
        Registry::global().counter("recovery.announcements_sent");
    announcements_sent.add(1);

    // (b) Leaf-set / jump-table repair: re-advertise routing state; every
    // peer re-runs the full validation pipeline (signature, freshness,
    // density), so a forged "repair" advertisement fails exactly like any
    // other forged advertisement.
    const auto key_fn = [this](const util::NodeId& id) { return key_of(id); };
    const auto ad = routing_advertisement(m);
    for (const overlay::MemberIndex peer : net_->routing_peers(m)) {
        if (!online_[peer]) continue;
        if (partition_blocks(m, peer)) {
            static auto& control_blocked =
                Registry::global().counter("partition.control_blocked");
            control_blocked.add(1);
            continue;
        }
        post_parked(params_.control_latency, Op::kAnnouncement, peer,
                    announcement);
        const auto verdict = core::validate_advertisement(
            ad, net_->secure_table(peer).density(), now, params_.validation,
            key_fn, registry_);
        if (verdict == core::AdvertisementCheck::kOk) {
            ++stats_.recovery_repairs_accepted;
            static auto& repairs_accepted =
                Registry::global().counter("recovery.repairs_accepted");
            repairs_accepted.add(1);
        } else {
            ++stats_.recovery_repairs_rejected;
            static auto& repairs_rejected =
                Registry::global().counter("recovery.repairs_rejected");
            repairs_rejected.add(1);
        }
    }

    // (c) Refresh the node's own view immediately: its next snapshots (and
    // the evidence it can contribute to judges) recover without waiting for
    // the periodic round.
    probe_round_once(m);

    // (d) Resume or abandon each stewardship in flight at the crash.
    for (const JournaledStewardship& s : recovered.open_stewardships) {
        const auto it = messages_.find(s.message_id);
        if (it == messages_.end()) continue;
        MessageContext& ctx = it->second;
        const auto hop = static_cast<std::size_t>(s.hop);
        if (hop + 1 >= ctx.route.size() || ctx.route[hop] != m) continue;
        StewardRecord& steward = ctx.stewards[hop];
        if (ctx.completed || steward.acked || steward.judged) continue;
        if (now - s.forwarded_at <= params_.recovery_resume_horizon) {
            ++stats_.stewardships_resumed;
            static auto& stewardships_resumed =
                Registry::global().counter("recovery.stewardships_resumed");
            stewardships_resumed.add(1);
            post(params_.ack_timeout, Op::kAckTimeout, s.message_id, hop);
            transmit_to_next(s.message_id, hop, 1);
        } else {
            // Too stale to resume: any ack is long lost and the upstream
            // judgment has run its course.  Abandon with a signed handoff
            // so the upstream's pending judgment of *us* resolves as
            // insufficient evidence, not guilt.
            ++stats_.stewardships_abandoned;
            static auto& stewardships_abandoned =
                Registry::global().counter("recovery.stewardships_abandoned");
            stewardships_abandoned.add(1);
            steward.judged = true;  // this steward will never judge
            journals_[m].record_steward_close(s.message_id, s.hop);
            if (hop > 0) {
                const overlay::MemberIndex up = ctx.route[hop - 1];
                if (online_[up] && !partition_blocks(m, up)) {
                    const StewardHandoff handoff = make_steward_handoff(
                        net_->member(m).id(), s.message_id, s.hop,
                        crashed_at_[m], now, net_->member(m).keys);
                    post_parked(params_.control_latency, Op::kHandoff,
                                s.message_id, handoff, hop - 1);
                } else if (online_[up]) {
                    static auto& control_blocked =
                        Registry::global().counter("partition.control_blocked");
                    control_blocked.add(1);
                }
            } else {
                // The abandoning steward is the sender itself: close out
                // the diagnosis so the completion callback still fires.
                post(params_.control_latency, Op::kMaybeComplete,
                     s.message_id);
            }
        }
    }
}

void Cluster::accept_recovery_announcement(
    overlay::MemberIndex peer, const RecoveryAnnouncement& announcement) {
    if (!online_[peer]) return;
    const auto announcer = member_of_.find(announcement.node);
    if (announcer == member_of_.end()) return;
    const crypto::PublicKey key =
        net_->member(announcer->second).keys.public_key();
    if (!verify_recovery_announcement(announcement, key, registry_)) {
        return;  // a forged outage claim buys nothing
    }
    static auto& announcements_delivered =
        Registry::global().counter("recovery.announcements_delivered");
    announcements_delivered.add(1);
    nodes_[peer].recovery_seen[announcer->second].push_back(announcement);
    const int retracted = nodes_[peer].ledger.retract_guilty(
        announcement.node, announcement.crashed_at,
        announcement.restarted_at);
    if (retracted > 0) {
        stats_.verdicts_retracted += static_cast<std::size_t>(retracted);
        journals_[peer].record_retraction(announcement.node,
                                          announcement.crashed_at,
                                          announcement.restarted_at);
    }
}

void Cluster::deliver_handoff(std::uint64_t msg_id, std::size_t to_hop,
                              const StewardHandoff& handoff) {
    const auto it = messages_.find(msg_id);
    if (it == messages_.end()) return;
    MessageContext& ctx = it->second;
    if (to_hop + 1 >= ctx.route.size()) return;
    if (!online_[ctx.route[to_hop]]) return;
    // The handoff must be signed by the very node this steward forwarded
    // to; a third party cannot abandon someone else's stewardship.
    const util::NodeId downstream = net_->member(ctx.route[to_hop + 1]).id();
    const auto key = key_of(handoff.steward);
    if (!(handoff.steward == downstream) || !key.has_value() ||
        !verify_steward_handoff(handoff, *key, registry_)) {
        return;
    }
    ctx.stewards[to_hop].handoff = handoff;
    static auto& handoffs_delivered =
        Registry::global().counter("recovery.handoffs_delivered");
    handoffs_delivered.add(1);
}

void Cluster::heal_partition() {
    ++stats_.partition_heals;
    static auto& heals = Registry::global().counter("partition.heals");
    heals.add(1);
    // Anti-entropy: both sides probe once, staggered, so fresh snapshots
    // cross the healed cut and the sides' archives re-converge.
    for (overlay::MemberIndex m = 0; m < net_->size(); ++m) {
        if (!online_[m]) continue;
        const auto stagger = static_cast<util::SimTime>(m % 64) *
                             (25 * util::kMillisecond);
        post(stagger, Op::kResync, m);
    }
}

bool Cluster::partition_blocks(overlay::MemberIndex a,
                               overlay::MemberIndex b) const {
    return chaos_ != nullptr && !chaos_->partitions.empty() &&
           chaos_->partition_blocks(a, b, sim_->now());
}

bool Cluster::post_incident_coverage(const core::BlameEvidence& evidence,
                                     util::SimTime message_time) const {
    if (evidence.path_links.empty()) return false;
    const auto probes = core::probes_from_snapshots(evidence.snapshots);
    for (const net::LinkId link : evidence.path_links) {
        bool covered = false;
        for (const core::ProbeResult& p : probes) {
            if (p.link != link) continue;
            if (p.reporter == evidence.suspect) continue;
            if (p.at < message_time ||
                p.at > message_time + params_.blame.delta) {
                continue;
            }
            covered = true;
            break;
        }
        if (!covered) return false;
    }
    return true;
}

bool Cluster::announced_down(overlay::MemberIndex observer,
                             overlay::MemberIndex suspect,
                             util::SimTime t) const {
    const auto it = nodes_[observer].recovery_seen.find(suspect);
    if (it == nodes_[observer].recovery_seen.end()) return false;
    for (const RecoveryAnnouncement& a : it->second) {
        if (a.covers(t)) return true;
    }
    return false;
}

bool Cluster::accused_abstained(const MessageContext& ctx,
                                const util::NodeId& accused) const {
    for (std::size_t h = 1; h < ctx.stewards.size(); ++h) {
        if (net_->member(ctx.route[h]).id() == accused) {
            return ctx.stewards[h].judgment_insufficient;
        }
    }
    return false;
}

const NodeBehavior& Cluster::behavior(overlay::MemberIndex m) const {
    if (behaviors_.empty()) return kHonest;
    return behaviors_[m];
}

std::optional<crypto::PublicKey> Cluster::key_of(
    const util::NodeId& id) const {
    const auto it = member_of_.find(id);
    if (it == member_of_.end()) return std::nullopt;
    return net_->member(it->second).keys.public_key();
}

std::vector<tomography::LeafBehavior> Cluster::leaf_behaviors(
    overlay::MemberIndex m) const {
    std::vector<tomography::LeafBehavior> out;
    const double chaos_ack_drop =
        chaos_ != nullptr ? chaos_->ack_drop_rate : 0.0;
    bool all_online = true;
    for (const bool b : online_) all_online = all_online && b;
    const bool partition_now = chaos_ != nullptr &&
                               !chaos_->partitions.empty() &&
                               chaos_->partition_active(sim_->now());
    if (behaviors_.empty() && all_online && chaos_ack_drop == 0.0 &&
        !partition_now) {
        return out;  // all honest + online, no injected ack loss
    }
    for (const overlay::MemberIndex leaf : trees_->leaf_members(m)) {
        tomography::LeafBehavior b;
        b.suppress_ack_probability = behavior(leaf).suppress_probe_acks;
        b.fabricate_acks = behavior(leaf).fabricate_probe_acks;
        if (chaos_ack_drop > 0.0) {
            // Environmental ack loss composes with any adversarial
            // suppression: the ack survives only if both spare it.
            b.suppress_ack_probability =
                1.0 - (1.0 - b.suppress_ack_probability) *
                          (1.0 - chaos_ack_drop);
        }
        if (!online_[leaf] ||
            (partition_now && partition_blocks(m, leaf))) {
            // Offline machines -- and machines across an active partition
            // cut -- answer nothing, honestly.
            b.suppress_ack_probability = 1.0;
            b.fabricate_acks = false;
        }
        out.push_back(b);
    }
    return out;
}

// --------------------------------------------------------------- probing

void Cluster::start() {
    exchange_routing_state();
    if (chaos_ != nullptr) {
        schedule_churn();
        schedule_recovery_faults();
    }
    for (overlay::MemberIndex m = 0; m < net_->size(); ++m) {
        schedule_round(Op::kProbeRound, m);
        if (behavior(m).slander) schedule_round(Op::kSlanderRound, m);
        if (behavior(m).spam_accusations) schedule_round(Op::kSpamRound, m);
    }
}

void Cluster::exchange_routing_state() {
    // Section 3.1: peers exchange signed jump tables before Concilium can
    // predict forwarding paths; each receiver runs the full validation
    // pipeline (owner signature, per-entry freshness, slot constraints,
    // the occupancy density test).
    ad_rejecters_.assign(net_->size(), {});
    const auto key_fn = [this](const util::NodeId& id) {
        return key_of(id);
    };
    for (overlay::MemberIndex m = 0; m < net_->size(); ++m) {
        if (!online_[m]) continue;
        const auto ad = routing_advertisement(m);
        for (const overlay::MemberIndex peer : net_->routing_peers(m)) {
            if (!online_[peer]) continue;
            const auto verdict = core::validate_advertisement(
                ad, net_->secure_table(peer).density(), sim_->now(),
                params_.validation, key_fn, registry_);
            if (verdict == core::AdvertisementCheck::kOk) {
                ++stats_.advertisements_accepted;
            } else {
                ++stats_.advertisements_rejected;
                ad_rejecters_[m].push_back(peer);
            }
        }
    }
}

overlay::JumpTableAdvertisement Cluster::routing_advertisement(
    overlay::MemberIndex m) const {
    auto ad = overlay::make_advertisement(
        *net_, m, sim_->now(), [this](overlay::MemberIndex) {
            // Entries were last vouched for within one probe period.
            return std::max<util::SimTime>(
                0, sim_->now() - params_.probe_interval_max / 2);
        });
    const double fraction = behavior(m).advertised_table_fraction;
    if (fraction < 1.0) {
        // Suppression attack: hide a share of the honest entries.
        ad.entries.resize(static_cast<std::size_t>(
            fraction * static_cast<double>(ad.entries.size())));
        ad.signature = net_->member(m).keys.sign(ad.signed_payload());
    }
    return ad;
}

void Cluster::schedule_round(Op op, overlay::MemberIndex m) {
    const auto delay = static_cast<util::SimTime>(rng_.uniform(
        0.0, static_cast<double>(params_.probe_interval_max)));
    post(delay, op, m);
}

void Cluster::run_probe_round(overlay::MemberIndex m) {
    probe_round_once(m);  // a no-op while m is offline
    schedule_round(Op::kProbeRound, m);
}

void Cluster::probe_round_once(overlay::MemberIndex m) {
    if (!online_[m]) return;
    ++stats_.lightweight_rounds;
    util::spans::sim_instant(util::spans::SpanType::kProbeRound, sim_->now(),
                             /*causal=*/m);
    const auto& tree = trees_->tree(m);
    if (!tree.leaves().empty()) {
        const auto behaviors = leaf_behaviors(m);
        const auto light = tomography::run_lightweight_probe(
            tree, transport_, sim_->now(), params_.lightweight_retries,
            behaviors, rng_);

        bool any_silent = false;
        tomography::TomographicSnapshot snap;
        snap.origin = net_->member(m).id();
        snap.probed_at = sim_->now();
        std::unordered_map<net::LinkId, bool> up_links;
        for (std::size_t leaf = 0; leaf < light.responsive.size(); ++leaf) {
            tomography::PathSummary summary;
            summary.peer = trees_->leaf_ids(m)[leaf];
            if (light.responsive[leaf]) {
                summary.bucket = tomography::LossBucket::kClean;
                // An acknowledged probe traversed every link on the path.
                for (const net::LinkId l :
                     trees_->slot_path_links(m, static_cast<int>(leaf))) {
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
        publish_snapshot(m, std::move(snap));

        // "If link loss is detected ... H initiates heavyweight probing."
        if (any_silent && sim_->now() - nodes_[m].last_heavyweight >=
                              params_.heavyweight_min_gap) {
            run_heavyweight(m);
        }
    }
}

void Cluster::run_heavyweight(overlay::MemberIndex m) {
    const auto& tree = trees_->tree(m);
    if (tree.leaves().empty()) return;
    ++stats_.heavyweight_sessions;
    // Dual-clock span: the sim instant keeps the deterministic section
    // aligned with the probe timeline, the wall interval measures the
    // session + MLE compute (the tomography hot path).
    util::spans::WallSpan hw_span(util::spans::SpanType::kHeavyweightSession,
                                  /*causal=*/m,
                                  static_cast<std::int64_t>(
                                      tree.leaves().size()));
    hw_span.set_sim(sim_->now(), sim_->now());
    nodes_[m].last_heavyweight = sim_->now();
    const auto behaviors = leaf_behaviors(m);
    const auto session = tomography::run_heavyweight_session(
        tree, transport_, sim_->now(), params_.heavyweight, behaviors, rng_);

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
        net_->member(m).id(), sim_->now(), tree, inference, params_.snapshot,
        trees_->leaf_ids(m));

    // An excluded leaf's silenced feedback makes its last mile *look* dead;
    // links that are only observable through excluded leaves carry no
    // evidence and must not be reported at all.  (publish_snapshot seals
    // and signs what is left.)
    bool any_excluded = false;
    for (const bool e : excluded) any_excluded = any_excluded || e;
    if (any_excluded) {
        std::unordered_map<net::LinkId, bool> observable;
        for (std::size_t leaf = 0; leaf < excluded.size(); ++leaf) {
            if (excluded[leaf]) continue;
            for (const net::LinkId l :
                 trees_->slot_path_links(m, static_cast<int>(leaf))) {
                observable[l] = true;
            }
        }
        std::erase_if(snapshot.links,
                      [&](const tomography::LinkObservation& obs) {
                          return !observable.contains(obs.link);
                      });
    }
    publish_snapshot(m, std::move(snapshot));
}

Cluster::SnapshotRef Cluster::seal(overlay::MemberIndex m,
                                   tomography::TomographicSnapshot snapshot) {
    auto pub = std::make_shared<PublishedSnapshot>();
    pub->snapshot = std::move(snapshot);
    pub->origin_m = m;
    pub->payload = pub->snapshot.signed_payload();
    pub->snapshot.signature = net_->member(m).keys.sign(pub->payload);
    pub->digest_id = interner_.intern(
        util::digest_bytes({pub->payload.data(), pub->payload.size()}));
    return pub;
}

void Cluster::publish_snapshot(overlay::MemberIndex m,
                               tomography::TomographicSnapshot snapshot) {
    const NodeBehavior& b = behavior(m);
    if (b.replay_snapshots && nodes_[m].replay_stash != nullptr) {
        // Replayer: instead of publishing fresh results (which would reveal
        // the paths it is breaking), re-advertise its first, favorable
        // snapshot verbatim -- signature and epoch included.  Receiving
        // archives reject it on the transit-time check (and, were the
        // timestamp forged, on the epoch floor).
        ++stats_.replays_published;
        static auto& replays_published =
            Registry::global().counter("attack.replays_published");
        replays_published.add(1);
        fan_out(m, FanOut{nodes_[m].replay_stash, nullptr});
        return;
    }
    if (b.flip_probe_reports) {
        // Section 3.3's worst-case leaf: answer others' probes correctly but
        // misreport one's own results.  The liar signs its lie.
        invert_report(snapshot);
    }
    snapshot.epoch = nodes_[m].next_epoch++;
    // Journal the epoch advance *before* the snapshot leaves: a crash
    // between publish and checkpoint must never let the restarted node
    // re-issue an epoch its peers already archived.
    journals_[m].record_epoch(nodes_[m].next_epoch);
    ++stats_.snapshots_published;
    static auto& snapshots_published =
        Registry::global().counter("runtime.snapshots_published");
    snapshots_published.add(1);
    // Publish → expected fan-out delivery on the sim clock; arg carries
    // the epoch so equivocating twins are distinguishable in the trace.
    util::spans::sim_span(util::spans::SpanType::kSnapshotExchange,
                          sim_->now(), sim_->now() + params_.control_latency,
                          /*causal=*/m,
                          static_cast<std::int64_t>(snapshot.epoch));
    // Sign, serialize and digest exactly once; every per-peer delivery
    // (and the node's own archive) reuses the sealed slab.
    FanOut fan{seal(m, std::move(snapshot)), nullptr};
    if (b.replay_snapshots) nodes_[m].replay_stash = fan.seal;
    if (nodes_[m].archive.add(archived(fan.seal), m, sim_->now(),
                              fan.seal->digest_id) == ArchiveAdd::kArchived) {
        note_admitted(*fan.seal);
    }
    if (b.equivocate_snapshots) {
        // Equivocator: odd-ranked peers get a fully link-flipped twin signed
        // over the *same* origin+epoch.  Any two peers comparing digests now
        // hold a self-verifying proof.
        ++stats_.equivocations_published;
        static auto& equivocations_published =
            Registry::global().counter("attack.equivocations_published");
        equivocations_published.add(1);
        tomography::TomographicSnapshot twin = fan.seal->snapshot;
        invert_report(twin);
        fan.twin = seal(m, std::move(twin));
    }
    fan_out(m, std::move(fan));
}

void Cluster::fan_out(overlay::MemberIndex m, FanOut fan) {
    if (chaos_ == nullptr) {
        // Lossless control plane (the paper's assumption): every copy lands
        // control_latency from now.
        post_parked(params_.control_latency, Op::kFanOutSnapshot, m,
                    std::move(fan));
        return;
    }
    std::size_t rank = 0;
    for (const overlay::MemberIndex peer : net_->routing_peers(m)) {
        send_snapshot(peer, fan.copy_for(rank++), 1);
    }
}

void Cluster::note_admitted(const PublishedSnapshot& published) {
    const std::uint64_t epoch = published.snapshot.epoch;
    auto& digests = admitted_digests_[published.origin_m];
    if (epoch >= digests.size()) {
        digests.resize(epoch + 1, util::DigestInterner::kInvalidId);
    }
    util::DigestInterner::Id& first = digests[epoch];
    if (first == util::DigestInterner::kInvalidId) {
        first = published.digest_id;
    } else if (first != published.digest_id) {
        first = kMixedDigests;
    }
}

void Cluster::detect_equivocation(overlay::MemberIndex holder,
                                  const PublishedSnapshot& published) {
    const tomography::TomographicSnapshot& snapshot = published.snapshot;
    if (snapshot.epoch == 0) return;  // unversioned: nothing to compare
    const overlay::MemberIndex origin_m = published.origin_m;
    // The digest record has seen every copy of this epoch that any archive
    // admitted, this one included.  Unless two of them differ, every peer
    // holds this digest or none, and the scan below could find no conflict.
    if (admitted_digests_[origin_m][snapshot.epoch] != kMixedDigests) return;
    if (proofs_filed_.contains({origin_m, snapshot.epoch})) return;
    static auto& equivocation_scans =
        Registry::global().counter("defense.equivocation_scans");
    equivocation_scans.add(1);
    // Digest exchange: compare the interned payload-digest id just archived
    // at `holder` against what the origin's other routing peers hold for the
    // same epoch.  Ids come from the cluster-wide interner, so agreement is
    // a single integer compare; only a mismatch -- an actual payload
    // conflict -- pays for building and verifying the full proof.  Both
    // copies carry the origin's valid signature, so the conflict *is* the
    // proof, no trust in either peer required.
    for (const overlay::MemberIndex peer : net_->routing_peers(origin_m)) {
        if (peer == holder || !online_[peer]) continue;
        const SnapshotArchive::DigestId other_digest =
            nodes_[peer].archive.digest_of(snapshot.origin, snapshot.epoch);
        if (other_digest == util::DigestInterner::kInvalidId ||
            other_digest == published.digest_id) {
            continue;  // peer lacks the epoch, or holds the same payload
        }
        const tomography::TomographicSnapshot* other =
            nodes_[peer].archive.find(snapshot.origin, snapshot.epoch);
        if (other == nullptr) continue;
        core::EquivocationProof proof{*other, snapshot};
        if (core::verify_equivocation_proof(
                proof, net_->member(origin_m).keys.public_key(), registry_) !=
            core::EquivocationCheck::kOk) {
            continue;  // not a usable proof after all
        }
        proofs_filed_.insert({origin_m, snapshot.epoch});
        dht_.put(holder,
                 core::EquivocationProof::dht_key(
                     net_->member(origin_m).keys.public_key()),
                 proof.serialize());
        ++stats_.equivocation_proofs_filed;
        static auto& equivocation_proofs_filed =
            Registry::global().counter("defense.equivocation_proofs_filed");
        equivocation_proofs_filed.add(1);
        return;
    }
}

void Cluster::send_snapshot(overlay::MemberIndex peer, SnapshotRef snapshot,
                            int attempt) {
    // Under chaos the control plane shares the faulty IP network: the
    // snapshot is one packet over the member-to-peer path, retried with
    // exponential backoff, and abandoned once the budget is spent -- the
    // peer then simply lacks this snapshot, so the blame evidence it can
    // contribute degrades instead of the diagnosis wedging on it.
    const overlay::MemberIndex m = snapshot->origin_m;
    if (!online_[m]) return;  // an offline origin stops retrying
    static auto& snapshot_attempts =
        Registry::global().counter("runtime.retry.snapshot_attempts");
    snapshot_attempts.add(1);
    util::SimTime latency = params_.control_latency;
    bool delivered = true;
    if (partition_blocks(m, peer)) {
        // The cut swallows this copy; the retry arm below may land a later
        // one after the heal.
        delivered = false;
        static auto& snapshots_blocked =
            Registry::global().counter("partition.snapshots_blocked");
        snapshots_blocked.add(1);
    } else if (trees_->leaf_slot(m, peer).has_value()) {
        const auto path = trees_->path_links(m, peer);
        delivered = transport_.sample_traversal(path, sim_->now());
        latency = std::max(latency, transport_.latency(path.size()));
    }
    if (delivered) {
        post_parked(latency, Op::kDeliverSnapshot, peer, std::move(snapshot));
        return;
    }
    const int next = attempt + 1;
    if (!params_.snapshot_retry.allows(next)) {
        ++stats_.snapshot_deliveries_failed;
        static auto& snapshot_exhausted =
            Registry::global().counter("runtime.retry.snapshot_exhausted");
        snapshot_exhausted.add(1);
        return;
    }
    ++stats_.snapshot_retries;
    static auto& snapshot_retries =
        Registry::global().counter("runtime.retry.snapshot_retries");
    snapshot_retries.add(1);
    const auto backoff = params_.snapshot_retry.delay_before(next, rng_);
    post_parked(backoff, Op::kSnapshotRetry, peer, std::move(snapshot),
                static_cast<std::uint64_t>(next));
}

void Cluster::deliver_snapshot(overlay::MemberIndex peer,
                               const SnapshotRef& published) {
    // Same check as tomography::verify_snapshot, run once per seal: every
    // copy a peer receives shares the seal and with it the verdict.
    static auto& cache_hit =
        Registry::global().counter("crypto.verify.cache_hit");
    static auto& cache_miss =
        Registry::global().counter("crypto.verify.cache_miss");
    if (published->signature_ok.has_value()) {
        cache_hit.add(1);
    } else {
        cache_miss.add(1);
        published->signature_ok = registry_.verify(
            net_->member(published->origin_m).keys.public_key(),
            published->payload, published->snapshot.signature);
    }
    if (!*published->signature_ok) {
        ++stats_.snapshots_rejected;
        static auto& snapshots_rejected =
            Registry::global().counter("runtime.snapshots_rejected");
        snapshots_rejected.add(1);
        return;
    }
    switch (nodes_[peer].archive.add(archived(published), published->origin_m,
                                     sim_->now(), published->digest_id)) {
        case ArchiveAdd::kArchived:
            note_admitted(*published);
            detect_equivocation(peer, *published);
            break;
        case ArchiveAdd::kRejectedStale: {
            ++stats_.snapshots_rejected_stale;
            static auto& rejected_stale =
                Registry::global().counter("defense.snapshots_rejected_stale");
            rejected_stale.add(1);
            break;
        }
        case ArchiveAdd::kRejectedEpoch: {
            ++stats_.snapshots_rejected_epoch;
            static auto& rejected_epoch =
                Registry::global().counter("defense.snapshots_rejected_epoch");
            rejected_epoch.add(1);
            break;
        }
    }
}

// -------------------------------------------------------------- messaging

std::uint64_t Cluster::send(overlay::MemberIndex from,
                            const util::NodeId& dest_key,
                            CompletionFn on_complete) {
    MessageContext ctx;
    ctx.id = next_message_id_++;
    ctx.route = net_->route(from, dest_key);
    ctx.sent_at = sim_->now();
    ctx.stewards.resize(ctx.route.size());
    ctx.on_complete = std::move(on_complete);
    ++stats_.messages;
    static auto& messages_sent =
        Registry::global().counter("runtime.messages_sent");
    messages_sent.add(1);
    const std::uint64_t id = ctx.id;
    messages_.emplace(id, std::move(ctx));
    deliver_to_hop(id, 0);
    return id;
}

std::span<const net::LinkId> Cluster::hop_path(const MessageContext& ctx,
                                               std::size_t hop) const {
    // The IP path between consecutive route hops, taken from the upstream
    // node's link map (direction does not matter for loss sampling).
    if (!trees_->leaf_slot(ctx.route[hop], ctx.route[hop + 1]).has_value()) {
        return {};
    }
    return trees_->path_links(ctx.route[hop], ctx.route[hop + 1]);
}

void Cluster::deliver_to_hop(std::uint64_t msg_id, std::size_t hop) {
    auto& ctx = messages_.at(msg_id);
    if (hop > 0) {
        // Dedupe: a node that already saw this message (retransmission or
        // chaos-duplicated packet) ignores further copies -- except the
        // destination, which re-acknowledges so that a retransmitted
        // message also heals a lost acknowledgment.
        if (ctx.stewards[hop].received) {
            if (hop + 1 == ctx.route.size() && !ctx.completed &&
                online_[ctx.route[hop]] && ctx.route.size() > 1) {
                static auto& reacks =
                    Registry::global().counter("runtime.retry.reacks");
                reacks.add(1);
                start_ack_return(msg_id);
                return;
            }
            ++stats_.duplicates_suppressed;
            static auto& duplicates_suppressed =
                Registry::global().counter("chaos.duplicates_suppressed");
            duplicates_suppressed.add(1);
            return;
        }
        ctx.stewards[hop].received = true;
    }
    if (hop > 0 && hop + 1 == ctx.route.size() &&
        !online_[ctx.route[hop]]) {
        // The destination is down: no acknowledgment will ever come.
        ctx.dropped_by_hop = hop;
        return;
    }
    if (hop + 1 == ctx.route.size()) {
        if (ctx.route.size() == 1) {
            // Sender is already the destination.
            ctx.completed = true;
            ++stats_.delivered;
            static auto& messages_delivered =
                Registry::global().counter("runtime.messages_delivered");
            messages_delivered.add(1);
            if (ctx.on_complete) {
                MessageOutcome outcome;
                outcome.delivered = true;
                outcome.route = ctx.route;
                ctx.on_complete(outcome);
            }
            return;
        }
        start_ack_return(msg_id);
        return;
    }
    forward_from_hop(msg_id, hop);
}

void Cluster::forward_from_hop(std::uint64_t msg_id, std::size_t hop) {
    auto& ctx = messages_.at(msg_id);
    const overlay::MemberIndex m = ctx.route[hop];
    const overlay::MemberIndex next = ctx.route[hop + 1];

    // A faulty *intermediate* forwarder may silently drop the message; an
    // offline one cannot forward at all.
    if (hop > 0 && (!online_[m] ||
                    rng_.bernoulli(behavior(m).drop_forward_probability))) {
        ctx.dropped_by_hop = hop;
        if (online_[m] && behavior(m).collude_revisions) {
            // The colluder waits out the upstream timeout, then pushes a
            // fabricated guilty revision framing its next hop for the drop
            // it just committed.
            post(params_.ack_timeout + params_.judgment_grace,
                 Op::kFabricatedRevision, msg_id, hop);
        }
        return;  // upstream stewards will time out
    }

    // Forwarding commitment (Section 3.6), issued by the next hop.
    if (behavior(next).refuse_commitments) {
        ++stats_.commitments_refused;
        static auto& commitments_refused =
            Registry::global().counter("runtime.commitments_refused");
        commitments_refused.add(1);
        ++stats_.reputation_votes;
        reputation_.cast_vote(net_->member(m).id(), net_->member(next).id(),
                              sim_->now());
        journals_[m].record_vote(net_->member(next).id(), sim_->now());
    } else {
        ++stats_.commitments_issued;
        static auto& commitments_issued =
            Registry::global().counter("runtime.commitments_issued");
        commitments_issued.add(1);
        ctx.stewards[hop].commitment = core::make_forwarding_commitment(
            net_->member(m).id(), net_->member(next).id(),
            net_->member(ctx.route.back()).id(), msg_id, ctx.sent_at,
            net_->member(next).keys);
        // Stewards keep the commitments they collect; a slanderer or
        // colluder later reuses them as raw material for forged evidence.
        nodes_[m].collected.insert_or_assign(next,
                                             *ctx.stewards[hop].commitment);
    }

    ctx.stewards[hop].forwarded = true;
    journals_[m].record_steward_open(msg_id, hop, sim_->now(),
                                     ctx.stewards[hop].commitment);
    post(params_.ack_timeout, Op::kAckTimeout, msg_id, hop);

    transmit_to_next(msg_id, hop, 1);
}

void Cluster::transmit_to_next(std::uint64_t msg_id, std::size_t hop,
                               int attempt) {
    auto& ctx = messages_.at(msg_id);
    const auto path = hop_path(ctx, hop);
    if (path.empty()) {
        ctx.dropped_by_network = true;
        ctx.network_drop_segment = hop;
        return;  // no IP path exists; retrying cannot help
    }
    // An active partition cut swallows every copy; the retry arm below
    // stays armed, so a retransmission after the heal can still succeed.
    const bool cut = partition_blocks(ctx.route[hop], ctx.route[hop + 1]);
    if (cut) {
        ++stats_.partition_blocked_packets;
        static auto& messages_blocked =
            Registry::global().counter("partition.messages_blocked");
        messages_blocked.add(1);
        static auto& blocked_by_minute =
            minute_series("partition.messages_blocked.by_minute");
        blocked_by_minute.observe(sim_->now());
        if (!ctx.dropped_by_hop.has_value()) {
            ctx.dropped_by_network = true;
            ctx.network_drop_segment = hop;
        }
    } else if (transport_.sample_traversal(path, sim_->now())) {
        // One packet over the IP path; loss kills this copy.
        static auto& reordered =
            Registry::global().counter("chaos.packets_reordered");
        const util::SimTime jitter = chaos_extra_delay(
            chaos_ != nullptr ? chaos_->reorder_rate : 0.0, reordered);
        post(transport_.latency(path.size()) + jitter, Op::kDeliverToHop,
             msg_id, hop + 1);
        if (chaos_ != nullptr && rng_.bernoulli(chaos_->duplicate_rate)) {
            // A duplicated packet arrives slightly later; the receiving
            // steward dedupes it.
            static auto& packets_duplicated =
                Registry::global().counter("chaos.packets_duplicated");
            packets_duplicated.add(1);
            const util::SimTime extra = std::max<util::SimTime>(
                1, static_cast<util::SimTime>(rng_.uniform(
                       0.0,
                       static_cast<double>(chaos_->max_extra_delay))));
            post(transport_.latency(path.size()) + jitter + extra,
                 Op::kDeliverToHop, msg_id, hop + 1);
        }
    } else if (!ctx.dropped_by_hop.has_value()) {
        ctx.dropped_by_network = true;
        ctx.network_drop_segment = hop;
    }
    // Steward retransmission (bounded backoff + jitter): the steward
    // cannot observe the loss, only the missing acknowledgment, so the
    // retry timer is armed regardless of this copy's fate and checks the
    // ack when it fires.  Downstream nodes dedupe spurious re-sends.
    const int next = attempt + 1;
    if (!params_.forward_retry.allows(next)) return;
    const auto backoff = params_.forward_retry.delay_before(next, rng_);
    post(backoff, Op::kForwardRetry, msg_id,
         (static_cast<std::uint64_t>(hop) << 32) |
             static_cast<std::uint32_t>(next));
}

void Cluster::forward_retry(std::uint64_t msg_id, std::size_t hop,
                            int attempt) {
    auto& ctx = messages_.at(msg_id);
    if (ctx.completed || ctx.stewards[hop].acked) return;
    if (!online_[ctx.route[hop]]) return;  // churned out mid-retry
    ++stats_.forward_retransmissions;
    static auto& forward_attempts =
        Registry::global().counter("runtime.retry.forward_attempts");
    forward_attempts.add(1);
    static auto& retries_by_minute =
        minute_series("runtime.retry.forward_attempts.by_minute");
    retries_by_minute.observe(sim_->now());
    transmit_to_next(msg_id, hop, attempt);
}

void Cluster::start_ack_return(std::uint64_t msg_id) {
    auto& ctx = messages_.at(msg_id);
    deliver_ack_to_hop(msg_id, ctx.route.size() - 1);
}

void Cluster::deliver_ack_to_hop(std::uint64_t msg_id, std::size_t hop) {
    auto& ctx = messages_.at(msg_id);
    if (!online_[ctx.route[hop]]) return;  // a dead relay swallows the ack
    ctx.stewards[hop].acked = true;
    if (ctx.stewards[hop].forwarded) {
        // The acknowledgment retires this hop's stewardship on "disk" too:
        // a later crash must not resurrect it as an open obligation.
        journals_[ctx.route[hop]].record_steward_close(msg_id, hop);
    }
    if (hop == 0) {
        if (!ctx.completed) {
            ctx.completed = true;
            ++stats_.delivered;
            static auto& messages_delivered =
                Registry::global().counter("runtime.messages_delivered");
            messages_delivered.add(1);
            if (ctx.on_complete) {
                MessageOutcome outcome;
                outcome.delivered = true;
                outcome.route = ctx.route;
                ctx.on_complete(outcome);
            }
        }
        return;
    }
    // Relay the acknowledgment upstream over hop-1's path.
    const auto path = hop_path(ctx, hop - 1);
    if (path.empty()) {
        ctx.dropped_by_network = true;
        return;
    }
    if (partition_blocks(ctx.route[hop], ctx.route[hop - 1])) {
        // The cut eats the relayed ack; upstream stewards will time out.
        ++stats_.partition_blocked_packets;
        static auto& acks_blocked =
            Registry::global().counter("partition.acks_blocked");
        acks_blocked.add(1);
        ctx.dropped_by_network = true;
        if (!ctx.network_drop_segment.has_value()) {
            ctx.network_drop_segment = hop - 1;
        }
        return;
    }
    if (transport_.sample_traversal(path, sim_->now())) {
        // Chaos may hold the relayed acknowledgment back; a delay long
        // enough to cross the upstream steward's timeout looks exactly
        // like a loss until the ack lands.
        static auto& delayed =
            Registry::global().counter("chaos.acks_delayed");
        const util::SimTime delay = chaos_extra_delay(
            chaos_ != nullptr ? chaos_->ack_delay_rate : 0.0, delayed);
        post(transport_.latency(path.size()) + delay, Op::kDeliverAck, msg_id,
             hop - 1);
    } else {
        // Lost acknowledgment: upstream stewards will time out and a chain
        // of verdicts will be issued (Section 3.5).
        ctx.dropped_by_network = true;
        if (!ctx.network_drop_segment.has_value()) {
            ctx.network_drop_segment = hop - 1;
        }
    }
}

void Cluster::on_ack_timeout(std::uint64_t msg_id, std::size_t hop) {
    auto& ctx = messages_.at(msg_id);
    StewardRecord& steward = ctx.stewards[hop];
    if (steward.acked || !steward.forwarded) return;
    // A crashed steward's timer outlived its memory of arming it; the
    // journaled stewardship is resumed or abandoned at restart instead.
    if (crashed_[ctx.route[hop]]) return;

    // Reactive heavyweight probing: the steward refreshes its own view and
    // asks its routing peers to do the same (Section 3.2).  The judge's own
    // refresh uses the (shorter) reactive floor: its tree covers the very
    // path it is about to rule on.
    const overlay::MemberIndex m = ctx.route[hop];
    if (sim_->now() - nodes_[m].last_heavyweight >=
        params_.reactive_heavyweight_min_gap) {
        run_heavyweight(m);
    }
    for (const overlay::MemberIndex peer : net_->routing_peers(m)) {
        const auto delay = static_cast<util::SimTime>(
            rng_.uniform(0.0, 2.0 * util::kSecond));
        post(delay, Op::kPeerRefresh, peer);
    }

    post(params_.judgment_grace, Op::kJudge, msg_id, hop);
}

core::BlameEvidence Cluster::build_evidence(
    const MessageContext& ctx, std::size_t judge_hop,
    core::BlameBreakdown* breakdown_out) const {
    const overlay::MemberIndex m = ctx.route[judge_hop];
    const overlay::MemberIndex suspect = ctx.route[judge_hop + 1];
    core::BlameEvidence ev;
    ev.judge = net_->member(m).id();
    ev.suspect = net_->member(suspect).id();
    ev.message_id = ctx.id;
    ev.message_time = ctx.sent_at;
    const auto hop_links = hop_path(ctx, judge_hop);
    ev.path_links.assign(hop_links.begin(), hop_links.end());
    ev.snapshots = nodes_[m].archive.evidence_for(
        ev.path_links, ctx.sent_at, params_.blame.delta, ev.suspect);
    if (ctx.stewards[judge_hop].commitment.has_value()) {
        ev.commitment = *ctx.stewards[judge_hop].commitment;
    }
    core::BlameBreakdown breakdown =
        core::compute_blame(ev.path_links,
                            core::probes_from_snapshots(ev.snapshots),
                            ctx.sent_at, ev.suspect, params_.blame);
    ev.claimed_blame = breakdown.blame;
    if (breakdown_out != nullptr) *breakdown_out = std::move(breakdown);
    ev.judge_signature = net_->member(m).keys.sign(ev.signed_payload());
    return ev;
}

void Cluster::judge_next_hop(std::uint64_t msg_id, std::size_t hop) {
    auto& ctx = messages_.at(msg_id);
    StewardRecord& steward = ctx.stewards[hop];
    if (steward.acked || steward.judged) return;
    const overlay::MemberIndex m = ctx.route[hop];
    if (crashed_[m]) return;  // a crashed judge testifies to nothing
    steward.judged = true;

    core::BlameBreakdown breakdown;
    core::BlameEvidence ev = build_evidence(ctx, hop, &breakdown);
    const bool guilty = core::is_guilty_verdict(ev.claimed_blame,
                                                params_.verdicts);
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
        const bool cut_from_suspect =
            hop + 1 < ctx.route.size() &&
            (partition_blocks(m, ctx.route[hop + 1]) ||
             (chaos_ != nullptr &&
              chaos_->partition_blocks(m, ctx.route[hop + 1], ctx.sent_at)));
        const overlay::MemberIndex suspect_m = ctx.route[hop + 1];
        insufficient =
            steward.handoff.has_value() || cut_from_suspect ||
            announced_down(m, suspect_m, ctx.sent_at) ||
            announced_down(m, suspect_m, sim_->now()) ||
            (degraded_mode() && !post_incident_coverage(ev, ctx.sent_at));
    }
    steward.breakdown = std::move(breakdown);
    steward.judged_at = sim_->now();
    util::spans::sim_instant(util::spans::SpanType::kJudgment, sim_->now(),
                             /*causal=*/msg_id,
                             /*arg=*/static_cast<std::int64_t>(hop));
    steward.judgment = std::move(ev);
    journals_[m].record_steward_close(msg_id, hop);
    if (insufficient) {
        // Abstention: no ledger entry, no journaled verdict, no upstream
        // revision -- "insufficient evidence" is not a verdict anybody may
        // accumulate toward an accusation or relay as a revision.
        steward.judgment_insufficient = true;
        ++stats_.insufficient_verdicts;
        static auto& insufficient = Registry::global().counter(
            "recovery.insufficient_evidence_verdicts");
        insufficient.add(1);
    } else {
        nodes_[m].ledger.record(steward.judgment->suspect,
                                steward.judgment->claimed_blame, sim_->now());
        journals_[m].record_verdict(steward.judgment->suspect, guilty,
                                    sim_->now());
        if (guilty) {
            ++stats_.guilty_verdicts;
        } else {
            ++stats_.innocent_verdicts;
        }
        steward.judgment_guilty = guilty;
        if (hop > 0) push_revision_upstream(msg_id, hop);
    }
    if (hop == 0) {
        // Give downstream revisions time to climb the chain, then settle.
        const auto settle =
            params_.control_latency *
                static_cast<util::SimTime>(ctx.route.size() + 2) +
            params_.judgment_grace;
        post(settle, Op::kMaybeComplete, msg_id);
    }
}

void Cluster::push_revision_upstream(std::uint64_t msg_id, std::size_t hop) {
    auto& ctx = messages_.at(msg_id);
    const overlay::MemberIndex m = ctx.route[hop];
    if (behavior(m).refuse_revisions) return;  // at its own peril
    if (!ctx.stewards[hop].judgment.has_value()) return;
    ++stats_.revisions_pushed;
    static auto& revisions_pushed =
        Registry::global().counter("runtime.revisions_pushed");
    revisions_pushed.add(1);
    // Each steward presents the verdict to its upstream neighbor, which
    // relays it further unless it withholds revisions itself (Section 3.5).
    post_parked(params_.control_latency, Op::kRelayRevision, msg_id,
                *ctx.stewards[hop].judgment, hop - 1);
}

void Cluster::relay_revision(std::uint64_t msg_id,
                             core::BlameEvidence evidence,
                             std::size_t to_hop) {
    auto& ctx = messages_.at(msg_id);
    ctx.stewards[to_hop].pushed.push_back(evidence);
    ++stats_.revisions_applied;
    static auto& revisions_applied =
        Registry::global().counter("runtime.revisions_applied");
    revisions_applied.add(1);
    if (to_hop == 0) return;
    if (behavior(ctx.route[to_hop]).refuse_revisions) return;
    post_parked(params_.control_latency, Op::kRelayRevision, msg_id,
                std::move(evidence), to_hop - 1);
}

// ------------------------------------------- attack campaign behaviours

void Cluster::push_fabricated_revision(std::uint64_t msg_id,
                                       std::size_t hop) {
    auto& ctx = messages_.at(msg_id);
    if (ctx.completed || !online_[ctx.route[hop]]) return;
    const overlay::MemberIndex m = ctx.route[hop];
    const overlay::MemberIndex next = ctx.route[hop + 1];
    core::BlameEvidence ev;
    ev.judge = net_->member(m).id();
    ev.suspect = net_->member(next).id();
    ev.message_id = ctx.id;
    ev.message_time = ctx.sent_at;
    const auto hop_links = hop_path(ctx, hop);
    ev.path_links.assign(hop_links.begin(), hop_links.end());
    // No snapshots: the colluder's archive holds evidence the path was fine
    // (it dropped the message itself), so it bundles nothing and asserts
    // maximum blame.  Without a commitment for *this* message from the
    // framed hop, the best it can attach is a stale commitment it collected
    // earlier -- either way, sender-side re-verification fails.
    const auto it = nodes_[m].collected.find(next);
    if (it != nodes_[m].collected.end()) ev.commitment = it->second;
    ev.claimed_blame = 1.0;
    ev.judge_signature = net_->member(m).keys.sign(ev.signed_payload());
    ++stats_.collusions_pushed;
    static auto& collusions_pushed =
        Registry::global().counter("attack.collusions_pushed");
    collusions_pushed.add(1);
    post_parked(params_.control_latency, Op::kRelayRevision, msg_id,
                std::move(ev), hop - 1);
}

void Cluster::run_slander_round(overlay::MemberIndex m) {
    if (!online_[m]) {
        schedule_round(Op::kSlanderRound, m);
        return;
    }
    const auto& peers = net_->routing_peers(m);
    if (!peers.empty()) {
        NodeState& node = nodes_[m];
        const overlay::MemberIndex victim =
            peers[node.slander_cursor++ % peers.size()];
        core::BlameEvidence ev;
        ev.judge = net_->member(m).id();
        ev.suspect = net_->member(victim).id();
        const auto collected = node.collected.find(victim);
        if (collected != node.collected.end()) {
            // Strongest forgery available: a genuine commitment from the
            // victim, with the accusation anchored to its message binding so
            // the commitment checks pass.  The lie then has to live in the
            // evidence bundle.
            ev.commitment = collected->second;
            ev.message_id = collected->second.message_id;
            ev.message_time = collected->second.at;
        } else {
            // No commitment from the victim: forge one in its name.  The
            // slanderer can only sign with its own key, so verification
            // rejects it outright.
            ev.message_id = (std::uint64_t{0x51AD} << 32) |
                            (std::uint64_t{m} << 16) | node.slander_cursor;
            ev.message_time = sim_->now();
            core::ForwardingCommitment c;
            c.sender = ev.judge;
            c.forwarder = ev.suspect;
            c.destination = ev.judge;
            c.message_id = ev.message_id;
            c.at = ev.message_time;
            c.signature = net_->member(m).keys.sign(c.signed_payload());
            ev.commitment = c;
        }
        if (trees_->leaf_slot(m, victim).has_value()) {
            const auto victim_links = trees_->path_links(m, victim);
            ev.path_links.assign(victim_links.begin(), victim_links.end());
        }
        // Cherry-picking: of everything archived about these links, keep
        // ONLY snapshots outside the admission window around message_time --
        // old outages the victim had nothing to do with.  Fresh exonerating
        // snapshots are deliberately withheld.
        auto bundle = node.archive.evidence_for(
            ev.path_links, ev.message_time,
            params_.blame.delta + 5 * util::kMinute, ev.suspect);
        std::erase_if(bundle,
                      [&](const tomography::TomographicSnapshot& s) {
                          const util::SimTime skew =
                              s.probed_at >= ev.message_time
                                  ? s.probed_at - ev.message_time
                                  : ev.message_time - s.probed_at;
                          return skew <= params_.blame.delta;
                      });
        if (bundle.size() > 4) bundle.resize(4);
        ev.snapshots = std::move(bundle);
        ev.claimed_blame = 1.0;
        ev.judge_signature = net_->member(m).keys.sign(ev.signed_payload());

        core::FaultAccusation accusation;
        accusation.accuser = net_->member(m).id();
        accusation.evidence.push_back(std::move(ev));
        accusation.signature =
            net_->member(m).keys.sign(accusation.signed_payload());
        dht_.put(m,
                 core::FaultAccusation::dht_key(
                     net_->member(victim).keys.public_key()),
                 accusation.serialize());
        ++stats_.slanders_filed;
        static auto& slanders_filed =
            Registry::global().counter("attack.slanders_filed");
        slanders_filed.add(1);
    }
    schedule_round(Op::kSlanderRound, m);
}

void Cluster::run_spam_round(overlay::MemberIndex m) {
    if (!online_[m]) {
        schedule_round(Op::kSpamRound, m);
        return;
    }
    const auto& peers = net_->routing_peers(m);
    if (!peers.empty()) {
        NodeState& node = nodes_[m];
        const overlay::MemberIndex victim =
            peers[node.spam_cursor++ % peers.size()];
        const auto key = core::FaultAccusation::dht_key(
            net_->member(victim).keys.public_key());
        for (int i = 0; i < 4; ++i) {
            std::vector<std::uint8_t> junk(24);
            for (auto& byte : junk) {
                byte = static_cast<std::uint8_t>(rng_.uniform_int(0, 255));
            }
            const auto result = dht_.put(m, key, std::move(junk));
            ++stats_.spam_puts;
            static auto& spam_puts =
                Registry::global().counter("attack.spam_puts");
            spam_puts.add(1);
            if (!result.accepted) {
                ++stats_.dht_puts_rejected;
                static auto& dht_puts_rejected =
                    Registry::global().counter("defense.dht_puts_rejected");
                dht_puts_rejected.add(1);
            }
        }
    }
    schedule_round(Op::kSpamRound, m);
}

void Cluster::maybe_complete(std::uint64_t msg_id) {
    auto& ctx = messages_.at(msg_id);
    if (ctx.completed) return;
    ctx.completed = true;
    if (ctx.dropped_by_hop.has_value()) {
        ++stats_.dropped_by_forwarder;
        static auto& messages_dropped_by_forwarder =
            Registry::global().counter("runtime.messages_dropped_by_forwarder");
        messages_dropped_by_forwarder.add(1);
    } else if (ctx.dropped_by_network) {
        ++stats_.dropped_by_network;
        static auto& messages_dropped_by_network =
            Registry::global().counter("runtime.messages_dropped_by_network");
        messages_dropped_by_network.add(1);
    }

    MessageOutcome outcome;
    outcome.route = ctx.route;
    outcome.true_drop_hop = ctx.dropped_by_hop;
    outcome.true_network_drop = ctx.dropped_by_network;
    outcome.true_network_segment = ctx.network_drop_segment;
    const auto& sender = ctx.stewards[0];
    if (!sender.judgment.has_value()) {
        // Sender never judged (e.g. it never forwarded); nothing to report.
        record_trace(ctx, outcome);
        if (ctx.on_complete) ctx.on_complete(outcome);
        return;
    }
    if (sender.judgment_insufficient) {
        // Degraded mode: the sender's own judgment abstained, so the
        // diagnosis closes without blaming anyone (RECOVERY.md).
        outcome.insufficient_evidence = true;
        record_trace(ctx, outcome);
        if (ctx.on_complete) ctx.on_complete(outcome);
        return;
    }
    if (!core::is_guilty_verdict(sender.judgment->claimed_blame,
                                 params_.verdicts)) {
        outcome.network_blamed = true;
        record_trace(ctx, outcome);
        if (ctx.on_complete) ctx.on_complete(outcome);
        return;
    }
    // Walk the revision chain: start blaming hop 1, follow pushed verdicts.
    // Every pushed revision is re-verified before it is honored -- same
    // checks a third party runs on a full accusation (signatures, the
    // commitment's message binding, snapshot freshness, the Equation 2-3
    // recomputation).  A fabricated revision is simply ignored, leaving the
    // blame where the sender's own verified chain ends.
    const core::AccusationVerifier verifier = make_verifier();
    util::NodeId accused = sender.judgment->suspect;
    std::vector<const core::BlameEvidence*> chain{&*sender.judgment};
    bool network = false;
    for (bool advanced = true; advanced;) {
        advanced = false;
        for (const core::BlameEvidence& ev : sender.pushed) {
            if (!(ev.judge == accused)) continue;
            const core::AccusationCheck check = verifier.verify_evidence(ev);
            if (check == core::AccusationCheck::kBlameBelowThreshold) {
                // The accused proved the IP path to its next hop was bad.
                network = true;
            } else if (check == core::AccusationCheck::kOk) {
                accused = ev.suspect;
                chain.push_back(&ev);
                advanced = true;
            } else {
                ++stats_.revisions_rejected;
                static auto& revisions_rejected =
                    Registry::global().counter("defense.revisions_rejected");
                revisions_rejected.add(1);
            }
            break;
        }
        if (network) break;
    }
    const auto accused_it = member_of_.find(accused);
    if (network) {
        outcome.network_blamed = true;
    } else if (accused_abstained(ctx, accused) ||
               (accused_it != member_of_.end() &&
                announced_down(ctx.route[0], accused_it->second,
                               ctx.sent_at))) {
        // The final accused either abstained from its own judgment (it
        // demonstrably forwarded, then lost its channel to the next hop
        // across a cut -- the abstention reaches the sender over the
        // intact same-side path in place of a revision) or provably
        // crashed across the message interval.  Either way the evidence
        // chain ends without a verdict: the sender abstains from blame
        // and accusation alike.
        outcome.insufficient_evidence = true;
        ++stats_.insufficient_verdicts;
        static auto& insufficient = Registry::global().counter(
            "recovery.insufficient_evidence_verdicts");
        insufficient.add(1);
    } else {
        outcome.blamed = accused;
        // File a formal accusation once the suspect has accumulated enough
        // guilty verdicts in the sender's window (Section 3.4).
        const overlay::MemberIndex sender_m = ctx.route[0];
        if (nodes_[sender_m].ledger.guilty_count(
                ctx.stewards[0].judgment->suspect) >=
                params_.verdicts.accusation_threshold &&
            ctx.stewards[0].commitment.has_value()) {
            core::FaultAccusation accusation;
            accusation.accuser = net_->member(sender_m).id();
            for (const core::BlameEvidence* ev : chain) {
                // A suspect that never issued a forwarding commitment can
                // only be handled through the reputation system (Section
                // 3.6); the verifiable chain truncates there.
                const auto suspect_key = key_of(ev->suspect);
                if (!suspect_key.has_value() ||
                    !core::verify_forwarding_commitment(
                        ev->commitment, *suspect_key, registry_)) {
                    break;
                }
                accusation.evidence.push_back(*ev);
            }
            if (!accusation.evidence.empty()) {
                accusation.signature = net_->member(sender_m).keys.sign(
                    accusation.signed_payload());
                const auto accused_member = member_of_.find(
                    accusation.accused());
                if (accused_member != member_of_.end()) {
                    dht_.put(sender_m,
                             core::FaultAccusation::dht_key(
                                 net_->member(accused_member->second)
                                     .keys.public_key()),
                             accusation.serialize());
                    ++stats_.accusations_filed;
                    static auto& accusations_filed =
                        Registry::global().counter("runtime.accusations_filed");
                    accusations_filed.add(1);
                }
            }
        }
    }
    record_trace(ctx, outcome);
    if (ctx.on_complete) ctx.on_complete(outcome);
}

void Cluster::record_trace(const MessageContext& ctx,
                           const MessageOutcome& outcome) {
    // The whole-diagnosis span (sent → settled), causally keyed by message
    // id like every judgment recorded along the way; arg encodes the
    // verdict class.  Recorded whether or not a DiagnosisTrace is attached.
    const std::int64_t verdict_arg = outcome.insufficient_evidence ? 3
                                     : outcome.network_blamed      ? 2
                                     : outcome.blamed.has_value()  ? 1
                                                                   : 0;
    util::spans::sim_span(util::spans::SpanType::kDiagnosis, ctx.sent_at,
                          sim_->now(), /*causal=*/ctx.id, verdict_arg);
    if (trace_ == nullptr) return;
    core::DiagnosisRecord rec;
    rec.message_id = ctx.id;
    rec.sent_at = ctx.sent_at;
    rec.completed_at = sim_->now();
    rec.forwarder_chain.reserve(ctx.route.size());
    for (const overlay::MemberIndex m : ctx.route) {
        rec.forwarder_chain.push_back(net_->member(m).id());
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

std::vector<core::FaultAccusation> Cluster::accusations_against(
    overlay::MemberIndex m) const {
    std::vector<core::FaultAccusation> out;
    const auto key =
        core::FaultAccusation::dht_key(net_->member(m).keys.public_key());
    // Read as an arbitrary third party.
    const auto result = dht_.get((m + 1) % net_->size(), key);
    for (const auto& bytes : result.values) {
        try {
            out.push_back(core::FaultAccusation::deserialize(bytes));
        } catch (const std::exception&) {
            // Spam: a value under an accusation key that is not an
            // accusation.  Readers skip it.
            static auto& malformed = Registry::global().counter(
                "defense.malformed_accusations_dropped");
            malformed.add(1);
        }
    }
    return out;
}

std::vector<core::EquivocationProof> Cluster::equivocation_proofs_against(
    overlay::MemberIndex m) const {
    std::vector<core::EquivocationProof> out;
    const auto key =
        core::EquivocationProof::dht_key(net_->member(m).keys.public_key());
    const auto result = dht_.get((m + 1) % net_->size(), key);
    for (const auto& bytes : result.values) {
        try {
            out.push_back(core::EquivocationProof::deserialize(bytes));
        } catch (const std::exception&) {
            static auto& malformed = Registry::global().counter(
                "defense.malformed_accusations_dropped");
            malformed.add(1);
        }
    }
    return out;
}

core::AccusationVerifier Cluster::make_verifier() const {
    return core::AccusationVerifier(
        registry_,
        [this](const util::NodeId& id) { return key_of(id); },
        params_.blame, params_.verdicts,
        // Path claims are checked against the verifier's own link map: the
        // judge's claimed path must be the actual IP path between the two
        // nodes (Section 3.4 bundles the routing state for this purpose).
        [this](const util::NodeId& judge, const util::NodeId& suspect,
               std::span<const net::LinkId> links) {
            const auto j = member_of_.find(judge);
            const auto s = member_of_.find(suspect);
            if (j == member_of_.end() || s == member_of_.end()) return false;
            if (!trees_->leaf_slot(j->second, s->second).has_value()) {
                return false;
            }
            const auto truth = trees_->path_links(j->second, s->second);
            return std::equal(links.begin(), links.end(), truth.begin(),
                              truth.end());
        });
}

core::AccusationCheck Cluster::verify(
    const core::FaultAccusation& accusation) const {
    return make_verifier().verify(accusation);
}

core::EquivocationCheck Cluster::verify(
    const core::EquivocationProof& proof,
    overlay::MemberIndex accused) const {
    return core::verify_equivocation_proof(
        proof, net_->member(accused).keys.public_key(), registry_);
}

}  // namespace concilium::runtime
