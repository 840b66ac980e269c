// Signed tomographic snapshots.
//
// "After H has probed T_H ... it sends a timestamped snapshot of T_H and its
// summarized probe results to its routing peers.  The probe results for each
// path can be encoded in a few bits representing predefined loss rates.  H
// signs the tomographic snapshot with its public key, both to prevent
// spoofing attacks and to prevent H from disavowing previously advertised
// probe results." (Section 3.2)

#pragma once

#include <cstdint>
#include <vector>

#include "crypto/keys.h"
#include "net/topology.h"
#include "tomography/inference.h"
#include "tomography/tree.h"
#include "util/ids.h"
#include "util/serialize.h"
#include "util/time.h"

namespace concilium::tomography {

/// Predefined loss-rate buckets; a path summary costs one byte on the wire.
enum class LossBucket : std::uint8_t {
    kClean = 0,     ///< < 1% loss
    kLow = 1,       ///< 1% - 5%
    kModerate = 2,  ///< 5% - 20%
    kHigh = 3,      ///< 20% - 80%
    kDown = 4,      ///< >= 80%: effectively unusable
};

LossBucket quantize_loss(double loss);
/// Representative (midpoint) loss rate for a bucket.
double bucket_loss(LossBucket bucket);

/// One probed link's up/down verdict: the p.l_up of Equation 3.
struct LinkObservation {
    net::LinkId link = net::kInvalidLink;
    bool up = true;
};

/// Per-routing-peer end-to-end summary (the few-bits encoding).
struct PathSummary {
    util::NodeId peer;
    LossBucket bucket = LossBucket::kClean;
};

struct TomographicSnapshot {
    util::NodeId origin;
    /// Per-origin publication counter, covered by the signature.  Every
    /// published snapshot carries a strictly increasing epoch, so a replayed
    /// snapshot is recognizable (its epoch regressed) and two *different*
    /// snapshots signed for the same (origin, epoch) are a self-verifying
    /// equivocation proof.  0 = unversioned (hand-built test snapshots).
    std::uint64_t epoch = 0;
    util::SimTime probed_at = 0;
    std::vector<PathSummary> paths;
    std::vector<LinkObservation> links;
    crypto::Signature signature;

    [[nodiscard]] std::vector<std::uint8_t> signed_payload() const;

    /// Section 4.4 accounting: one byte per path summary on top of the
    /// routing-state advertisement it rides with.
    [[nodiscard]] std::size_t wire_bytes() const;
};

/// Wire form of a snapshot including its signature (shared by accusation
/// bundles and equivocation proofs).
void write_snapshot_wire(util::ByteWriter& w, const TomographicSnapshot& s);
TomographicSnapshot read_snapshot_wire(util::ByteReader& r);

struct SnapshotParams {
    /// A link (chain) whose inferred loss reaches this level is reported
    /// down.
    double down_loss_threshold = 0.5;
};

/// Summarizes an inference result into an unsigned snapshot: the path
/// buckets and observable link verdicts, with an empty signature for the
/// publisher to fill in once the snapshot is final.
TomographicSnapshot summarize_inference(
    const util::NodeId& origin, util::SimTime probed_at, const ProbeTree& tree,
    const InferenceResult& inference, const SnapshotParams& params,
    const std::vector<util::NodeId>& leaf_ids);

/// summarize_inference, signed with `keys`.
TomographicSnapshot make_snapshot(const util::NodeId& origin,
                                  const crypto::KeyPair& keys,
                                  util::SimTime probed_at,
                                  const ProbeTree& tree,
                                  const InferenceResult& inference,
                                  const SnapshotParams& params,
                                  const std::vector<util::NodeId>& leaf_ids);

/// Checks the origin's signature.
bool verify_snapshot(const TomographicSnapshot& snapshot,
                     const crypto::PublicKey& origin_key,
                     const crypto::KeyRegistry& registry);

}  // namespace concilium::tomography
