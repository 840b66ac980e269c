#include "tomography/snapshot.h"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace concilium::tomography {

LossBucket quantize_loss(double loss) {
    if (loss < 0.01) return LossBucket::kClean;
    if (loss < 0.05) return LossBucket::kLow;
    if (loss < 0.20) return LossBucket::kModerate;
    if (loss < 0.80) return LossBucket::kHigh;
    return LossBucket::kDown;
}

double bucket_loss(LossBucket bucket) {
    switch (bucket) {
        case LossBucket::kClean: return 0.0;
        case LossBucket::kLow: return 0.03;
        case LossBucket::kModerate: return 0.12;
        case LossBucket::kHigh: return 0.5;
        case LossBucket::kDown: return 1.0;
    }
    throw std::invalid_argument("bucket_loss: bad bucket");
}

namespace {

/// Everything the signature covers, in wire order.
void write_signed_fields(util::ByteWriter& w, const TomographicSnapshot& s) {
    w.node_id(s.origin);
    w.u64(s.epoch);
    w.i64(s.probed_at);
    w.u32(static_cast<std::uint32_t>(s.paths.size()));
    for (const PathSummary& p : s.paths) {
        w.node_id(p.peer);
        w.u8(static_cast<std::uint8_t>(p.bucket));
    }
    w.u32(static_cast<std::uint32_t>(s.links.size()));
    for (const LinkObservation& l : s.links) {
        w.u32(l.link);
        w.u8(l.up ? 1 : 0);
    }
}

}  // namespace

std::vector<std::uint8_t> TomographicSnapshot::signed_payload() const {
    util::ByteWriter w;
    write_signed_fields(w, *this);
    return w.data();
}

std::size_t TomographicSnapshot::wire_bytes() const {
    // "Assuming 1 byte for each path summary" (Section 4.4).  Link verdicts
    // are derivable from the path summaries plus the advertised tree, so
    // they ride free; the envelope carries the origin, epoch, timestamp,
    // and signature.
    return paths.size() * 1 + util::NodeId::kBytes + 8 + 8 +
           crypto::Signature::kWireBytes;
}

void write_snapshot_wire(util::ByteWriter& w, const TomographicSnapshot& s) {
    write_signed_fields(w, s);
    w.bytes(s.signature.bytes());
}

TomographicSnapshot read_snapshot_wire(util::ByteReader& r) {
    TomographicSnapshot s;
    s.origin = r.node_id();
    s.epoch = r.u64();
    s.probed_at = r.i64();
    const std::uint32_t paths = r.u32();
    s.paths.reserve(std::min<std::size_t>(paths, r.remaining()));
    for (std::uint32_t i = 0; i < paths; ++i) {
        PathSummary p;
        p.peer = r.node_id();
        p.bucket = static_cast<LossBucket>(r.u8());
        s.paths.push_back(p);
    }
    const std::uint32_t links = r.u32();
    s.links.reserve(std::min<std::size_t>(links, r.remaining()));
    for (std::uint32_t i = 0; i < links; ++i) {
        LinkObservation l;
        l.link = r.u32();
        l.up = r.u8() != 0;
        s.links.push_back(l);
    }
    const auto raw = r.bytes();
    if (raw.size() != crypto::Signature::kBytes) {
        throw std::out_of_range("read_snapshot_wire: bad signature length");
    }
    std::array<std::uint8_t, crypto::Signature::kBytes> arr{};
    std::copy(raw.begin(), raw.end(), arr.begin());
    s.signature = crypto::Signature(arr);
    return s;
}

TomographicSnapshot summarize_inference(
    const util::NodeId& origin, util::SimTime probed_at, const ProbeTree& tree,
    const InferenceResult& inference, const SnapshotParams& params,
    const std::vector<util::NodeId>& leaf_ids) {
    if (leaf_ids.size() != tree.leaves().size()) {
        throw std::invalid_argument(
            "summarize_inference: leaf id count mismatch");
    }
    TomographicSnapshot snap;
    snap.origin = origin;
    snap.probed_at = probed_at;
    for (std::size_t slot = 0; slot < leaf_ids.size(); ++slot) {
        const double pass = inference.cumulative_pass.at(
            static_cast<std::size_t>(tree.leaf_nodes()[slot]));
        snap.paths.push_back(
            PathSummary{leaf_ids[slot], quantize_loss(1.0 - pass)});
    }
    for (const LinkLossEstimate& e : inference.links) {
        // Links with no probe evidence (below a dead ancestor) are omitted:
        // a snapshot only vouches for what its probes actually tested.
        if (!e.observable) continue;
        snap.links.push_back(
            LinkObservation{e.link, e.loss < params.down_loss_threshold});
    }
    return snap;
}

TomographicSnapshot make_snapshot(const util::NodeId& origin,
                                  const crypto::KeyPair& keys,
                                  util::SimTime probed_at,
                                  const ProbeTree& tree,
                                  const InferenceResult& inference,
                                  const SnapshotParams& params,
                                  const std::vector<util::NodeId>& leaf_ids) {
    TomographicSnapshot snap = summarize_inference(
        origin, probed_at, tree, inference, params, leaf_ids);
    snap.signature = keys.sign(snap.signed_payload());
    return snap;
}

bool verify_snapshot(const TomographicSnapshot& snapshot,
                     const crypto::PublicKey& origin_key,
                     const crypto::KeyRegistry& registry) {
    return registry.verify(origin_key, snapshot.signed_payload(),
                           snapshot.signature);
}

}  // namespace concilium::tomography
