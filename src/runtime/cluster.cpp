#include "runtime/cluster.h"

#include <stdexcept>

namespace concilium::runtime {

namespace {

const NodeBehavior kHonest{};
/// Replicas each DHT value is stored on.
constexpr int kDhtReplication = 4;

// Every value stored under T's DHT key for member m, read as an arbitrary
// third party would and decoded with T::deserialize.  A malformed value
// (spam under an accusation key) is skipped and counted, not fatal.
template <class T>
std::vector<T> read_all(const Shared& s, overlay::MemberIndex m) {
    std::vector<T> out;
    const auto key = T::dht_key(s.net->member(m).keys.public_key());
    const auto result = s.dht.get((m + 1) % s.net->size(), key);
    for (const auto& bytes : result.values) {
        try {
            out.push_back(T::deserialize(bytes));
        } catch (const std::exception&) {
            static auto& malformed = util::metrics::Registry::global().counter(
                "defense.malformed_accusations_dropped");
            malformed.add(1);
        }
    }
    return out;
}

}  // namespace

Shared::Shared(net::EventSim& sim, const net::FailureTimeline& timeline,
               const overlay::OverlayNetwork& net,
               const tomography::OverlayTrees& trees, RuntimeParams params,
               std::vector<NodeBehavior> behaviors, util::Rng rng)
    : sim(&sim), net(&net), trees(&trees), params(params),
      behaviors(std::move(behaviors)), rng(rng),
      transport(timeline, this->rng.fork(), params.transport),
      online(net.size(), true),
      journals(net.size(), NodeJournal(kVerdicts.window)),
      dht(net, kDhtReplication, params.dht_per_writer_quota) {
    if (!this->behaviors.empty() && this->behaviors.size() != net.size()) {
        throw std::invalid_argument(
            "Cluster: behaviors must match overlay size");
    }
    for (overlay::MemberIndex m = 0; m < net.size(); ++m) {
        registry.register_key(net.member(m).keys);
    }
}

void Shared::post_parked(util::SimTime delay, Op op, std::uint64_t b,
                         Parked payload, std::uint64_t hi) {
    std::uint64_t slot;
    if (free_parked.empty()) {
        slot = parked.size();
        parked.push_back(std::move(payload));
    } else {
        slot = free_parked.back();
        free_parked.pop_back();
        parked[slot] = std::move(payload);
    }
    post(delay, op, b, (hi << 32) | slot);
}

void Shared::schedule_round(Op op, overlay::MemberIndex m) {
    const auto delay = static_cast<util::SimTime>(
        rng.uniform(0.0, static_cast<double>(params.probe_interval_max)));
    post(delay, op, m);
}

const NodeBehavior& Shared::behavior(overlay::MemberIndex m) const {
    return behaviors.empty() ? kHonest : behaviors[m];
}

std::optional<crypto::PublicKey> Shared::key_of(const util::NodeId& id) const {
    const auto m = net->index_of(id);
    if (!m.has_value()) return std::nullopt;
    return net->member(*m).keys.public_key();
}

bool Shared::partition_blocks(overlay::MemberIndex a,
                              overlay::MemberIndex b) const {
    return chaos != nullptr && !chaos->partitions.empty() &&
           chaos->partition_blocks(a, b, sim->now());
}

std::span<const net::LinkId> Shared::ip_path(overlay::MemberIndex a,
                                             overlay::MemberIndex b) const {
    if (!trees->leaf_slot(a, b).has_value()) return {};
    return trees->path_links(a, b);
}

Cluster::Cluster(net::EventSim& sim, const net::FailureTimeline& timeline,
                 const overlay::OverlayNetwork& net,
                 const tomography::OverlayTrees& trees, RuntimeParams params,
                 std::vector<NodeBehavior> behaviors, util::Rng rng)
    : s_(sim, timeline, net, trees, params, std::move(behaviors), rng),
      gossip_(s_), prober_(s_, gossip_),
      stewardship_(s_, prober_, gossip_, faults_),
      faults_(s_, prober_, gossip_, stewardship_),
      adversary_(s_, stewardship_, gossip_) {
    s_.handler = sim.register_handler(this, &Cluster::dispatch_event);
}

void Cluster::start() {
    faults_.start();
    for (overlay::MemberIndex m = 0; m < s_.net->size(); ++m) {
        s_.schedule_round(Op::kProbeRound, m);
        adversary_.start(m);
    }
}

void Cluster::dispatch_event(void* ctx, std::uint32_t a, std::uint64_t b,
                             std::uint64_t c) {
    static_cast<Cluster*>(ctx)->run_event(static_cast<Op>(a), b, c);
}

void Cluster::run_event(Op op, std::uint64_t b, std::uint64_t c) {
    const auto m = static_cast<overlay::MemberIndex>(b);
    const auto lo = static_cast<std::size_t>(c);        // a whole hop operand
    const auto hi = static_cast<std::size_t>(c >> 32);  // a hop or attempt
    switch (op) {
        case Op::kProbeRound: return prober_.probe_round(m);
        case Op::kSlanderRound: return adversary_.slander_round(m);
        case Op::kSpamRound: return adversary_.spam_round(m);
        case Op::kPeerRefresh: return prober_.refresh(m);
        case Op::kDeliverToHop: return stewardship_.deliver_to_hop(b, lo);
        case Op::kDeliverAck: return stewardship_.deliver_ack_to_hop(b, lo);
        case Op::kAckTimeout: return stewardship_.on_ack_timeout(b, lo);
        case Op::kJudge: return stewardship_.judge_next_hop(b, lo);
        case Op::kForwardRetry:
            return stewardship_.forward_retry(
                b, hi, static_cast<int>(c & 0xffffffffu));
        case Op::kMaybeComplete: return stewardship_.maybe_complete(b);
        case Op::kFabricatedRevision:
            return stewardship_.push_fabricated_revision(b, lo);
        case Op::kRelayRevision:
            return stewardship_.relay_revision(
                b, s_.unpark<core::BlameEvidence>(c), hi);
        case Op::kHandoff:
            return stewardship_.deliver_handoff(
                b, hi, s_.unpark<StewardHandoff>(c));
        case Op::kFanOutSnapshot:
            return gossip_.deliver_fan_out(m, s_.unpark<FanOut>(c));
        case Op::kSnapshotRetry:
            return gossip_.send(m, s_.unpark<FanOut>(c), static_cast<int>(hi));
        case Op::kAnnouncement:
            return stewardship_.accept_recovery_announcement(
                m, s_.unpark<RecoveryAnnouncement>(c));
        case Op::kResync: return prober_.resync(m);
        case Op::kChurnLeave: return faults_.churn_leave(m);
        case Op::kChurnRejoin: return faults_.churn_rejoin(m);
        case Op::kCrash: return faults_.crash(m);
        case Op::kRestart: return faults_.restart(m);
        case Op::kPartitionStart: return faults_.partition_start();
        case Op::kPartitionHeal: return faults_.heal_partition();
    }
}

std::vector<core::FaultAccusation> Cluster::accusations_against(
    overlay::MemberIndex m) const {
    return read_all<core::FaultAccusation>(s_, m);
}

std::vector<core::EquivocationProof> Cluster::equivocation_proofs_against(
    overlay::MemberIndex m) const {
    return read_all<core::EquivocationProof>(s_, m);
}

}  // namespace concilium::runtime
