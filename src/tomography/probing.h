// Striped-unicast probe simulation.
//
// "H generates a single probe packet for each routing peer, but it issues
// these packets back to back.  Since these packets will stay close to each
// other as they traverse shared interior routers, they emulate a single
// multicast packet sent to the leaves of a multicast tree." (Section 3.2)
//
// A stripe is therefore modelled as one virtual multicast probe: every tree
// link is sampled once, and a leaf receives the probe iff all links on its
// root path passed.  Leaves acknowledge; misbehaving leaves may suppress
// acknowledgments for received probes or fabricate acknowledgments for lost
// ones (Section 3.3) -- fabricated acks carry an invalid nonce because the
// nonce travelled only inside the lost probe.
//
// The outcomes of a session are one bit-packed, run-length stripe x leaf
// matrix (ProbeMatrix): consecutive stripes with equal rows are stored
// once, so the feedback checks and MINC read whole 64-leaf words once per
// link-state change rather than once per stripe.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/link_state.h"
#include "net/topology.h"
#include "tomography/tree.h"
#include "util/function_ref.h"
#include "util/rng.h"
#include "util/time.h"

namespace concilium::tomography {

/// Probability that one packet crossing `link` at time t survives, and the
/// time until which that value holds (net::PassWindow).  The sampler asks
/// about a link again only once its window has ended, so a source whose
/// links change state at interval boundaries (net::Transport) is asked a
/// few times per session instead of once per link per stripe.  A callable
/// that returns a bare probability converts to a window that holds at t
/// only and is asked once per link per stripe, in links() order.  A
/// non-owning reference: the callable must outlive the call it is passed
/// to.
using PassProbabilityFn =
    util::FunctionRef<net::PassWindow(net::LinkId, util::SimTime)>;

/// Per-leaf misbehaviour during probing (Section 3.3's faulty leaves).
struct LeafBehavior {
    /// Probability of dropping the acknowledgment for a received probe.
    double suppress_ack_probability = 0.0;
    /// Acknowledge probes that were never received (spurious responses).
    bool fabricate_acks = false;
};

/// Bit `i` of a row of leaf-slot bits.
[[nodiscard]] inline bool test_bit(std::span<const std::uint64_t> row,
                                   std::size_t i) noexcept {
    return ((row[i / 64] >> (i % 64)) & 1U) != 0;
}

/// Whether two equally wide rows share a set bit.
[[nodiscard]] inline bool rows_meet(std::span<const std::uint64_t> a,
                                    std::span<const std::uint64_t> b) noexcept {
    for (std::size_t w = 0; w < a.size(); ++w) {
        if ((a[w] & b[w]) != 0) return true;
    }
    return false;
}

/// The bit planes of a ProbeMatrix.
enum class ProbePlane : std::uint8_t {
    kReceived,       ///< the probe physically reached the leaf
    kValidAck,       ///< the root saw an ack echoing the probe's nonce
    kFabricatedAck,  ///< the root saw an ack with an invalid nonce
};

/// Outcomes of a session's stripes for every leaf of one tree, run-length
/// encoded.  A run is a maximal stretch of consecutive stripes whose
/// received, valid-ack and fabricated-ack rows are all equal, so no two
/// adjacent runs are equal.  The matrix stores one row of leaf-slot bits
/// per plane per run, ceil(leaves / 64) words each, and the stripes each
/// run spans.  A leaf's ack is valid or fabricated, never both, and the bits
/// past the last leaf of a row are always zero.  Consumers weight each run
/// by its stripe count, so every count they take is the integer a
/// stripe-by-stripe walk would take.
class ProbeMatrix {
  public:
    ProbeMatrix() = default;
    /// An empty session whose rows are `leaves` bits wide; append() adds
    /// its stripes.
    explicit ProbeMatrix(std::size_t leaves)
        : leaves_(leaves), words_((leaves + 63) / 64) {}

    /// Number of stripes.
    [[nodiscard]] std::size_t size() const noexcept {
        return bounds_.empty() ? 0 : bounds_.back();
    }
    [[nodiscard]] std::size_t leaf_count() const noexcept { return leaves_; }
    [[nodiscard]] std::size_t words() const noexcept { return words_; }

    /// Number of runs.
    [[nodiscard]] std::size_t runs() const noexcept {
        return bounds_.empty() ? 0 : bounds_.size() - 1;
    }
    /// Stripes in run r (at least one).
    [[nodiscard]] std::size_t run_stripes(std::size_t r) const noexcept {
        return bounds_[r + 1] - bounds_[r];
    }
    /// Run r's row of one plane, which each of its stripes shares.
    [[nodiscard]] std::span<const std::uint64_t> run_row(
        ProbePlane p, std::size_t r) const noexcept {
        return {bits_.data() + (3 * r + static_cast<std::size_t>(p)) * words_,
                words_};
    }

    /// Per leaf slot, the stripes whose ack was nonce-valid.
    [[nodiscard]] std::vector<int> ack_counts() const;

    /// One stripe's row of one plane: its run's row, the run found by
    /// binary search over the run ends.
    [[nodiscard]] std::span<const std::uint64_t> row(
        ProbePlane p, std::size_t stripe) const noexcept;
    [[nodiscard]] bool test(ProbePlane p, std::size_t stripe,
                            std::size_t leaf) const noexcept {
        return test_bit(row(p, stripe), leaf);
    }

    /// Appends `stripes` stripes whose rows are `rows`: the received,
    /// valid-ack and fabricated-ack rows in plane order, words() words
    /// each.  They extend the last run when its rows equal `rows` and
    /// start a new run otherwise.  Throws std::invalid_argument on a
    /// wrongly sized `rows`.
    void append(std::span<const std::uint64_t> rows, std::size_t stripes = 1);

    /// Throws std::invalid_argument, naming `caller`, unless the rows are
    /// `leaves` bits wide.
    void require_width(std::size_t leaves, const char* caller) const;

  private:
    std::size_t leaves_ = 0;
    std::size_t words_ = 0;
    std::vector<std::uint64_t> bits_;  ///< [run][plane][word]
    /// Run r holds stripes [bounds_[r], bounds_[r + 1]); empty until the
    /// first append, then {0, run ends...}.
    std::vector<std::size_t> bounds_;
};

/// Samples one striped (multicast-emulating) probe of the tree at time t: a
/// one-stripe matrix.  `behaviors` may be empty (all leaves honest) or one
/// entry per leaf slot.
ProbeMatrix sample_striped_probe(const ProbeTree& tree,
                                 PassProbabilityFn pass_probability,
                                 util::SimTime t,
                                 std::span<const LeafBehavior> behaviors,
                                 util::Rng& rng);

struct HeavyweightParams {
    int probe_count = 200;              ///< stripes per session
    util::SimTime spacing = 50 * util::kMillisecond;  ///< stripe interval, >= 0
};

/// A heavyweight probing session: many stripes across a short window.
struct HeavyweightResult {
    ProbeMatrix probes;
    util::SimTime started_at = 0;
    util::SimTime finished_at = 0;
};

/// Runs a full heavyweight session starting at t0 (Duffield's full scheme).
HeavyweightResult run_heavyweight_session(
    const ProbeTree& tree, PassProbabilityFn pass_probability,
    util::SimTime t0, const HeavyweightParams& params,
    std::span<const LeafBehavior> behaviors, util::Rng& rng);

/// Lightweight probing (Section 3.2): one stripe doubling as the availability
/// probe, plus `retries` follow-up probes to silent leaves to separate
/// offline peers from lossy links.  Returns, per leaf, whether any probe got
/// through.
struct LightweightResult {
    std::vector<bool> responsive;  ///< per leaf slot
};
LightweightResult run_lightweight_probe(
    const ProbeTree& tree, PassProbabilityFn pass_probability,
    util::SimTime t, int retries, std::span<const LeafBehavior> behaviors,
    util::Rng& rng);

}  // namespace concilium::tomography
