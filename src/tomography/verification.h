// Feedback verification (Section 3.3).
//
// "A faulty or malicious leaf can try to respond to probes that were actually
// lost in the network, or drop acknowledgments for probes that were received.
// The former only affects inferences over the last mile to the misbehaving
// leaf, but the latter can ruin many inferences throughout the tree.
// Fortunately, we can detect both types of misbehavior."
//
// Fabricated acknowledgments are caught deterministically by the probe
// nonce: the nonce travels only inside the probe, so a leaf that never
// received it cannot echo it.  Suppressed acknowledgments are caught
// statistically: when sibling subtrees demonstrate that a probe reached the
// shared parent router, an honest leaf's conditional acknowledgment rate is
// bounded below by its last-mile quality; a leaf whose conditional rate
// collapses is either suppressing feedback or sits behind a dead last mile
// -- in both cases its feedback must be excluded from tree inference, which
// is exactly what ref [3]'s verification achieves.

#pragma once

#include <vector>

#include "tomography/probing.h"
#include "tomography/tree.h"

namespace concilium::tomography {

// Each function throws std::invalid_argument when the session's rows are
// not as wide as the tree's (or the caller's) leaf count.

/// Leaves that acknowledged at least one probe with an invalid nonce.
/// This is hard evidence of fabrication.
std::vector<bool> detect_fabricators(std::size_t leaf_count,
                                     const ProbeMatrix& probes);

struct SuppressionTestParams {
    /// Flag a leaf when its ack rate conditioned on sibling evidence falls
    /// below this (honest leaves achieve ~ last-mile pass rate, near 1).
    double min_conditional_ack_rate = 0.5;
    /// Require at least this many evidence probes before judging.
    int min_evidence = 10;
};

/// Leaves whose conditional acknowledgment rate (given that some leaf in a
/// sibling subtree acknowledged the same stripe, proving the stripe reached
/// the shared parent) is implausibly low.
std::vector<bool> detect_suppressors(const ProbeTree& tree,
                                     const ProbeMatrix& probes,
                                     const SuppressionTestParams& params);

/// Convenience: probes with either defect masked out per leaf, so inference
/// can run on trustworthy feedback only.  Flagged leaves' acks are cleared
/// (treated as silent), matching the exclusion semantics of Section 3.3.
ProbeMatrix exclude_leaves(const ProbeMatrix& probes,
                           const std::vector<bool>& excluded);

}  // namespace concilium::tomography
