#include "core/extensions.h"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "overlay/advertisement.h"

namespace concilium::core {

ProbeSharingPlan plan_probe_sharing(const overlay::OverlayNetwork& net,
                                    const net::Topology& topology,
                                    const tomography::OverlayTrees& trees,
                                    const HeavyweightProbeCost& cost) {
    // Bucket members by administrative domain.
    std::map<net::DomainId, std::vector<overlay::MemberIndex>> buckets;
    for (overlay::MemberIndex m = 0; m < net.size(); ++m) {
        buckets[topology.domain(net.member(m).ip())].push_back(m);
    }

    ProbeSharingPlan plan;
    for (auto& [domain, members] : buckets) {
        if (members.size() < 2) {
            plan.solo_members += members.size();
            continue;
        }
        ProbeSharingGroup group;
        group.domain = domain;
        group.members = members;
        // Individual cost: each member stripes its own leaves.
        std::unordered_set<overlay::MemberIndex> union_peers;
        std::unordered_set<net::LinkId> union_links;
        std::size_t links_sum = 0;
        for (const overlay::MemberIndex m : members) {
            const double leaves =
                static_cast<double>(trees.tree(m).leaves().size());
            group.individual_bytes +=
                BandwidthModel::heavyweight_probe_bytes(leaves, cost);
            for (const overlay::MemberIndex peer : trees.leaf_members(m)) {
                union_peers.insert(peer);
            }
            const auto links = trees.tree(m).links();
            links_sum += links.size();
            union_links.insert(links.begin(), links.end());
        }
        group.link_redundancy =
            union_links.empty()
                ? 1.0
                : static_cast<double>(links_sum) /
                      static_cast<double>(union_links.size());
        // Shared cost: one probe of the multi-forest (the union of the
        // group's routing peers), rotated through the group -- each round a
        // single member pays for everyone.
        const double shared_total = BandwidthModel::heavyweight_probe_bytes(
            static_cast<double>(union_peers.size()), cost);
        group.shared_bytes_per_member =
            shared_total / static_cast<double>(members.size());
        plan.groups.push_back(std::move(group));
    }
    return plan;
}

double ProbeSharingPlan::mean_savings() const {
    if (groups.empty()) return 1.0;
    double sum = 0.0;
    for (const ProbeSharingGroup& g : groups) sum += g.savings_factor();
    return sum / static_cast<double>(groups.size());
}

double ProbeSharingPlan::mean_link_redundancy() const {
    if (groups.empty()) return 1.0;
    double sum = 0.0;
    for (const ProbeSharingGroup& g : groups) sum += g.link_redundancy;
    return sum / static_cast<double>(groups.size());
}

// --------------------------------------------------------- ack batching

std::vector<std::uint8_t> BatchedAck::signed_payload() const {
    util::ByteWriter w;
    w.node_id(sender);
    w.node_id(receiver);
    w.u8(static_cast<std::uint8_t>(encoding));
    w.u64(first_id);
    w.u64(count);
    w.u32(static_cast<std::uint32_t>(ids.size()));
    for (const std::uint64_t id : ids) w.u64(id);
    w.i64(at);
    return w.data();
}

bool BatchedAck::covers(std::uint64_t id) const {
    switch (encoding) {
        case AckEncoding::kPerMessage:
        case AckEncoding::kCounter:
            return id >= first_id && id - first_id < count;
        case AckEncoding::kHashList:
            return std::binary_search(ids.begin(), ids.end(), id);
    }
    return false;
}

std::size_t BatchedAck::wire_bytes() const {
    // Envelope: two identifiers, encoding byte, timestamp, signature.
    const std::size_t envelope = 2 * util::NodeId::kBytes + 1 + 4 +
                                 crypto::Signature::kWireBytes;
    switch (encoding) {
        case AckEncoding::kPerMessage:
            return per_message_wire_bytes(static_cast<std::size_t>(count));
        case AckEncoding::kCounter:
            return envelope + 8 + 4;  // first id + count
        case AckEncoding::kHashList:
            return envelope + 8 * ids.size();
    }
    return envelope;
}

std::size_t BatchedAck::per_message_wire_bytes(std::size_t n) {
    // Each standalone ack: identifiers + message id + timestamp + signature.
    return n * (2 * util::NodeId::kBytes + 8 + 4 +
                crypto::Signature::kWireBytes);
}

void AckBatcher::record(std::uint64_t message_id) { ids_.insert(message_id); }

BatchedAck AckBatcher::flush(util::SimTime at,
                             const crypto::KeyPair& receiver_keys) {
    BatchedAck ack;
    ack.sender = sender_;
    ack.receiver = receiver_;
    ack.at = at;
    std::vector<std::uint64_t> sorted(ids_.begin(), ids_.end());
    std::sort(sorted.begin(), sorted.end());
    ids_.clear();
    const bool contiguous =
        !sorted.empty() &&
        sorted.back() - sorted.front() + 1 == sorted.size();
    if (contiguous) {
        ack.encoding = AckEncoding::kCounter;
        ack.first_id = sorted.front();
        ack.count = sorted.size();
    } else {
        ack.encoding = AckEncoding::kHashList;
        ack.ids = std::move(sorted);
    }
    ack.signature = receiver_keys.sign(ack.signed_payload());
    return ack;
}

bool verify_batched_ack(const BatchedAck& ack,
                        const crypto::PublicKey& receiver_key,
                        const crypto::KeyRegistry& registry) {
    return registry.verify(receiver_key, ack.signed_payload(), ack.signature);
}

double advertisement_diff_bytes(int changed_entries) {
    // Each changed entry is re-signed (144 bytes) plus a fresh 1-byte path
    // summary; the envelope re-signs the diff itself.
    return changed_entries *
               (static_cast<double>(overlay::AdvertisedEntry::kWireBytes) +
                1.0) +
           util::NodeId::kBytes + 8 + crypto::Signature::kWireBytes;
}

}  // namespace concilium::core
