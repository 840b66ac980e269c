// Packet transport over the simulated IP network.
//
// A packet sent along a path is dropped when any traversed link is down at
// the moment of crossing, or (with a small configurable probability per link)
// by residual loss on healthy links.  Latency is a fixed per-hop cost --
// the Concilium evaluation depends on loss and ordering, not on queueing
// dynamics.

#pragma once

#include <limits>
#include <span>
#include <vector>

#include "net/chaos.h"
#include "net/link_state.h"
#include "util/rng.h"

namespace concilium::net {

/// The fixed cost of crossing one link.
inline constexpr util::SimTime kPerHopLatency = 2 * util::kMillisecond;

struct TransportParams {
    double healthy_link_loss = 0.0;  ///< residual loss on an up link
};

/// Samples packets and answers pass-window queries for one event loop: a
/// Transport keeps a generator and a per-link memo, so it is not shared
/// between threads.  The scenario timeline and an attached chaos plan must
/// be finalized before they are handed over and stay unchanged while
/// attached; the memo relies on it.
class Transport {
  public:
    Transport(const FailureTimeline& timeline, util::Rng rng,
              TransportParams params = {})
        : timeline_(&timeline), rng_(rng), params_(params),
          memo_(timeline.link_bound()) {}

    /// Probability that one packet crossing `link` at time t survives, and
    /// until when it holds: the scenario timeline and the chaos plan folded
    /// into one window (a down link passes nothing; otherwise the loss is
    /// the larger of the healthy loss and the plan's spike loss).  Each
    /// link keeps the last window composed for it, from the instant it was
    /// asked for until its end, and a query inside it is answered from
    /// there; the answer holds over [t, until) either way.
    [[nodiscard]] PassWindow pass_window(LinkId link, util::SimTime t);

    /// The window query as a call, so a Transport can be handed to the
    /// probe sampler as its pass-probability source.
    [[nodiscard]] PassWindow operator()(LinkId link, util::SimTime t) {
        return pass_window(link, t);
    }

    [[nodiscard]] double pass_probability(LinkId link, util::SimTime t) {
        return pass_window(link, t).probability;
    }

    /// Samples a single packet traversal of `links` starting at time t.
    /// Each link is crossed kPerHopLatency later than the previous one.
    /// Returns true when the packet reaches the end of the path.
    bool sample_traversal(std::span<const LinkId> links, util::SimTime t);

    [[nodiscard]] util::SimTime latency(std::size_t hops) const noexcept {
        return static_cast<util::SimTime>(hops) * kPerHopLatency;
    }

    /// Attaches a chaos plan: flap / correlated-outage intervals and loss
    /// spikes fold into pass_window, so every packet -- probes and
    /// application traffic alike -- sees the injected faults.  The plan
    /// must be finalized and outlive the transport; pass nullptr to detach.
    /// Either way the memo starts over.
    void set_chaos(const FaultPlan* plan);

    /// Links the memo holds a window for: those below the timeline's and
    /// the plan's link_bound().  Every other link always has the window
    /// {1 - healthy_link_loss, kForever} and is composed afresh.
    [[nodiscard]] std::size_t memo_size() const noexcept {
        return memo_.size();
    }

  private:
    /// A composed window that holds over [from, until).  The default one
    /// holds nowhere.
    struct Memo {
        util::SimTime from = 0;
        util::SimTime until = std::numeric_limits<util::SimTime>::min();
        double probability = 1.0;
    };

    [[nodiscard]] PassWindow compose(LinkId link, util::SimTime t) const;

    const FailureTimeline* timeline_;
    util::Rng rng_;
    TransportParams params_;
    const FaultPlan* chaos_ = nullptr;
    std::vector<Memo> memo_;  ///< dense by LinkId
};

}  // namespace concilium::net
