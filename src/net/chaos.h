// Deterministic fault injection ("chaos") for simulations.
//
// The paper's evaluation bakes one static fault pattern into each figure's
// scenario; the robustness claims of Section 5, however, live in the regime
// where failures are correlated, bursty, and entangled with membership
// churn.  This module supplies that regime as data: a FaultSpec names the
// fault processes and their rates (parsed from a `--chaos flap:0.02,...`
// spec string), and build_fault_plan() expands it into a FaultPlan -- a
// fully materialized, immutable schedule of link flaps, correlated
// multi-link outages, loss-rate spikes, and node churn, plus per-packet
// reorder/duplicate/ack rates.
//
// Everything is generated up front from one util::Rng, exactly like
// net::generate_failure_timeline: a plan is a pure function of
// (spec, duration, candidate paths, node count, rng seed), so any chaos run
// is byte-reproducible at any --jobs count.  Consumers only ever read a
// finished plan: net::Transport folds pass_window() into every packet's
// and every probe stripe's pass probability, runtime::Cluster schedules the
// churn events and draws the per-packet effects from its own
// (single-threaded) generator.

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/link_state.h"
#include "net/paths.h"
#include "util/rng.h"
#include "util/time.h"

namespace concilium::net {

/// The fault processes a chaos spec may enable.  Rates are probabilities
/// (or per-minute intensities, see FaultSpec) and must lie in [0, 1].
enum class FaultKind : std::size_t {
    kFlap = 0,     ///< short independent link down intervals
    kCorrelated,   ///< multi-link outages along one overlay path
    kLossSpike,    ///< transient elevated loss on a healthy link
    kReorder,      ///< per-packet extra delivery delay (reordering)
    kDuplicate,    ///< per-packet duplication
    kChurn,        ///< node leave/rejoin
    kAckDrop,      ///< dropped tomography probe acknowledgments
    kAckDelay,     ///< delayed end-to-end acknowledgment relays
    kCrash,        ///< node crash-stop (amnesia) + delayed restart
    kPartition,    ///< correlated bisection of the overlay, scheduled heal
    kCount_,       // sentinel
};

[[nodiscard]] std::string_view to_string(FaultKind kind);

/// A parsed `--chaos` spec: which fault processes run and how hard.
///
/// Grammar (see CHAOS.md):   spec  := pair ("," pair)*
///                           pair  := kind ":" rate
///                           kind  := flap | corr | loss | reorder | dup |
///                                    churn | ackdrop | ackdelay |
///                                    crash | partition
///                           rate  := decimal in [0, 1]
///
/// Semantics: `flap`, `corr`, and `loss` are per-minute event intensities
/// (flap: expected fraction of candidate links flapped per minute; corr /
/// loss: expected events per minute per 100 candidate links); `churn` is a
/// per-node per-minute leave probability; `crash` is a per-node per-minute
/// crash-stop probability (restart after 1-4 min, see RECOVERY.md);
/// `partition` is a per-minute probability of a correlated bisection event
/// (heal after 1-3 min); the rest are per-packet (or per-ack)
/// probabilities.
class FaultSpec {
  public:
    FaultSpec() = default;

    /// Strict parser.  Throws std::invalid_argument naming the offending
    /// token on an unknown fault kind, a malformed rate, a rate outside
    /// [0, 1], or a duplicated kind.  The empty string is the empty spec.
    [[nodiscard]] static FaultSpec parse(std::string_view text);

    [[nodiscard]] double rate(FaultKind kind) const noexcept {
        return rates_[static_cast<std::size_t>(kind)];
    }
    void set_rate(FaultKind kind, double rate);

    /// True when every rate is zero.
    [[nodiscard]] bool empty() const noexcept;

    /// The spec with every rate multiplied by `factor` (clamped to 1.0);
    /// soak sweeps scale one base spec through intensity levels.
    [[nodiscard]] FaultSpec scaled(double factor) const;

    /// Canonical re-serialization (enabled kinds in enum order); parsing
    /// the result reproduces the spec.
    [[nodiscard]] std::string to_string() const;

  private:
    double rates_[static_cast<std::size_t>(FaultKind::kCount_)] = {};
};

/// One transient elevated-loss window on a link.
struct LossSpike {
    LinkId link = 0;
    util::SimTime start = 0;
    util::SimTime end = 0;  ///< exclusive
    double loss = 0.0;      ///< residual loss rate while active
};

/// One node leave/rejoin cycle.
struct ChurnEvent {
    std::size_t node = 0;
    util::SimTime leave = 0;
    util::SimTime rejoin = 0;
};

/// One crash-stop cycle.  Unlike churn (a graceful leave), a crash drops
/// all volatile state: on restart the node recovers from its
/// runtime::NodeJournal and re-joins via the recovery handshake
/// (RECOVERY.md).
struct CrashEvent {
    std::size_t node = 0;
    util::SimTime crash = 0;
    util::SimTime restart = 0;
};

/// One correlated bisection: every overlay node is assigned a side, and
/// while the event is active no packet, acknowledgment, probe, snapshot,
/// or control message crosses between sides.  Events never overlap.
struct PartitionEvent {
    util::SimTime start = 0;
    util::SimTime heal = 0;  ///< exclusive
    /// side[node] is 0 or 1; nodes on different sides cannot reach each
    /// other while the event is active.
    std::vector<std::uint8_t> side;
};

/// A materialized chaos schedule.  Plain data plus read-only queries; once
/// finalized, safe to share by const reference across worker threads.
struct FaultPlan {
    /// Flap + correlated-outage down intervals, merged and finalized.
    FailureTimeline downs;
    /// Churn schedule, sorted by leave time.
    std::vector<ChurnEvent> churn;
    /// Crash-stop schedule, sorted by crash time.
    std::vector<CrashEvent> crashes;
    /// Partition schedule, sorted by start time; events never overlap.
    std::vector<PartitionEvent> partitions;
    // Per-packet effect rates, copied from the spec.
    double reorder_rate = 0.0;
    double duplicate_rate = 0.0;
    double ack_drop_rate = 0.0;
    double ack_delay_rate = 0.0;
    /// Extra delay drawn (uniformly in (0, this]) for a reordered packet or
    /// a delayed acknowledgment relay.
    util::SimTime max_extra_delay = 500 * util::kMillisecond;

    /// Records a loss spike; call finalize() before querying.
    void add_spike(const LossSpike& spike);

    /// Finalizes `downs` and indexes the spikes per link.  Idempotent.
    void finalize();

    /// Loss spikes, grouped per link and sorted by start time.
    [[nodiscard]] const std::vector<LossSpike>& spikes() const noexcept {
        return spikes_;
    }

    /// The residual loss injected on `link` at time t (0 outside spikes;
    /// overlapping spikes yield the maximum).  A binary search in the
    /// link's spike index.
    [[nodiscard]] double loss_at(LinkId link, util::SimTime t) const;

    /// The plan's pass probability for `link` at t and until when it
    /// holds: 0 while a flap or outage has the link down, otherwise one
    /// minus the spike loss.
    [[nodiscard]] PassWindow pass_window(LinkId link, util::SimTime t) const;

    /// One past the highest link id with a down interval or a loss spike:
    /// every link at or beyond it always passes.  Valid once finalized.
    [[nodiscard]] std::size_t link_bound() const noexcept {
        return std::max(downs.link_bound(),
                        step_begin_.empty() ? 0 : step_begin_.size() - 1);
    }

    [[nodiscard]] bool has_packet_effects() const noexcept {
        return reorder_rate > 0.0 || duplicate_rate > 0.0;
    }

    /// True when a partition event is active at t.
    [[nodiscard]] bool partition_active(util::SimTime t) const;

    /// True when overlay nodes a and b sit on opposite sides of a
    /// partition active at t.  Nodes beyond the recorded side vector are
    /// treated as unpartitioned.
    [[nodiscard]] bool partition_blocks(std::size_t a, std::size_t b,
                                        util::SimTime t) const;

    /// True when the plan contains crash or partition events -- the
    /// trigger for the runtime's degraded-mode diagnosis (a guilty verdict
    /// then demands post-incident evidence coverage; see RECOVERY.md).
    [[nodiscard]] bool has_recovery_faults() const noexcept {
        return !crashes.empty() || !partitions.empty();
    }

  private:
    /// One step of a link's spike loss: `loss` holds from `start` until
    /// the next step's start.
    struct LossStep {
        util::SimTime start = 0;
        double loss = 0.0;
    };
    /// The loss (0 before its first step) and its end at t.
    [[nodiscard]] std::pair<double, util::SimTime> spike_loss(
        LinkId link, util::SimTime t) const;

    std::vector<LossSpike> spikes_;
    /// Per link (dense by LinkId), the maximum loss of its spikes as a step
    /// function: steps_[step_begin_[l] .. step_begin_[l + 1]) sorted by
    /// start, the last one back to 0.  Built by finalize().
    std::vector<std::size_t> step_begin_;
    std::vector<LossStep> steps_;
    bool spikes_indexed_ = true;
};

/// Expands a spec into a plan for [0, duration).  `candidate_paths` plays
/// the same role as in generate_failure_timeline: flaps pick a uniform
/// (path, link) position, correlated outages take down a contiguous run of
/// links along one path, loss spikes pick single links.  `node_count` is
/// the overlay size the churn process draws from.  Deterministic: the plan
/// is a pure function of the arguments and the rng's seed.
[[nodiscard]] FaultPlan build_fault_plan(
    const FaultSpec& spec, util::SimTime duration,
    std::span<const PathView> candidate_paths, std::size_t node_count,
    util::Rng& rng);

}  // namespace concilium::net
