// Maximum-likelihood link-loss inference (MINC-style).
//
// "Loss rates for each root-leaf path are inferred using the number of
// acknowledgments received from each leaf host.  Using maximum likelihood
// estimators, these end-to-end loss rates induce loss rates for each internal
// IP link." (Section 3.2, after Duffield et al.)
//
// Striped probes emulate multicast, so the classic multicast estimator
// applies: let gamma_k be the probability that at least one leaf below tree
// node k acknowledges a probe, and A_k the probability that the probe reaches
// node k.  At every branch point the MLE solves
//
//     1 - gamma_k / A_k  =  prod_children (1 - gamma_child / A_k)
//
// for A_k; per-link pass rates are then ratios of consecutive A values.
// Chains of single-child interior routers are not individually identifiable
// from one vantage point (only the chain's aggregate loss is); estimates for
// such links carry the chain loss and length, and Concilium recovers
// per-link resolution by combining snapshots from peers whose trees branch
// elsewhere (Section 4.2's vouching argument).

#pragma once

#include <vector>

#include "net/topology.h"
#include "tomography/probing.h"
#include "tomography/tree.h"

namespace concilium::tomography {

struct LinkLossEstimate {
    net::LinkId link = net::kInvalidLink;
    /// Aggregate loss of the identifiability unit (chain) containing this
    /// link, in [0, 1].
    double loss = 0.0;
    /// Number of physical links in that unit; 1 means fully identified.
    int chain_length = 1;
    /// False when no probe evidence reaches this unit at all -- every link
    /// below a dead ancestor is unobservable, and reporting it (up or down)
    /// would be fabrication.  Snapshots omit unobservable links.
    bool observable = true;
};

struct InferenceResult {
    /// Estimated cumulative pass probability root -> node, per physical tree
    /// node index (1.0 at the root).
    std::vector<double> cumulative_pass;
    /// One estimate per physical tree link.
    std::vector<LinkLossEstimate> links;

    [[nodiscard]] double loss_of(net::LinkId link) const;
};

/// Runs the estimator over a probe session.  Probes whose acks carry invalid
/// nonces are treated as losses (the fabricated-ack defence, Section 3.3).
/// Throws std::invalid_argument on an empty or wrongly sized session.
InferenceResult infer_link_loss(const ProbeTree& tree,
                                const ProbeMatrix& probes);

}  // namespace concilium::tomography
