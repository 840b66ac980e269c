#include "net/chaos.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/metrics.h"
#include "util/rate_spec.h"

namespace concilium::net {

namespace {

// Parse-order table; also the canonical to_string() order.
constexpr util::RateSpecKind kKinds[] = {
    {static_cast<std::size_t>(FaultKind::kFlap), "flap"},
    {static_cast<std::size_t>(FaultKind::kCorrelated), "corr"},
    {static_cast<std::size_t>(FaultKind::kLossSpike), "loss"},
    {static_cast<std::size_t>(FaultKind::kReorder), "reorder"},
    {static_cast<std::size_t>(FaultKind::kDuplicate), "dup"},
    {static_cast<std::size_t>(FaultKind::kChurn), "churn"},
    {static_cast<std::size_t>(FaultKind::kAckDrop), "ackdrop"},
    {static_cast<std::size_t>(FaultKind::kAckDelay), "ackdelay"},
    {static_cast<std::size_t>(FaultKind::kCrash), "crash"},
    {static_cast<std::size_t>(FaultKind::kPartition), "partition"},
};

// Dedicated substream tags for the recovery fault processes: their draws
// come from util::Rng::substream(rng.seed(), tag), never from the shared
// sequential stream, so adding crash:/partition: to a spec leaves every
// other kind's draws -- and therefore existing plans -- byte-identical.
constexpr std::uint64_t kCrashStream = 0x63726173;      // "cras"
constexpr std::uint64_t kPartitionStream = 0x70617274;  // "part"

}  // namespace

std::string_view to_string(FaultKind kind) {
    for (const util::RateSpecKind& k : kKinds) {
        if (k.slot == static_cast<std::size_t>(kind)) return k.name;
    }
    return "?";
}

FaultSpec FaultSpec::parse(std::string_view text) {
    FaultSpec spec;
    util::parse_rate_spec(text, "--chaos", "fault", kKinds, spec.rates_);
    return spec;
}

void FaultSpec::set_rate(FaultKind kind, double rate) {
    util::check_rate_bounds("--chaos", rate);
    rates_[static_cast<std::size_t>(kind)] = rate;
}

bool FaultSpec::empty() const noexcept {
    for (const double r : rates_) {
        if (r != 0.0) return false;
    }
    return true;
}

FaultSpec FaultSpec::scaled(double factor) const {
    FaultSpec out;
    for (std::size_t i = 0; i < static_cast<std::size_t>(FaultKind::kCount_);
         ++i) {
        out.rates_[i] = std::min(1.0, rates_[i] * factor);
    }
    return out;
}

std::string FaultSpec::to_string() const {
    return util::format_rate_spec(kKinds, rates_);
}

void FaultPlan::add_spike(const LossSpike& spike) {
    if (spike.end <= spike.start) return;
    spikes_.push_back(spike);
    spikes_indexed_ = false;
}

void FaultPlan::finalize() {
    downs.finalize();
    if (spikes_indexed_) return;
    std::sort(spikes_.begin(), spikes_.end(),
              [](const LossSpike& a, const LossSpike& b) {
                  if (a.link != b.link) return a.link < b.link;
                  return a.start < b.start;
              });
    // Each link's maximum spike loss only changes where one of its spikes
    // starts or ends, so those are the steps; equal neighbours merge.
    step_begin_.assign(spikes_.back().link + std::size_t{2}, 0);
    steps_.clear();
    std::vector<util::SimTime> cuts;
    for (auto first = spikes_.begin(); first != spikes_.end();) {
        const LinkId link = first->link;
        const auto last = std::find_if(
            first, spikes_.end(),
            [link](const LossSpike& s) { return s.link != link; });
        cuts.clear();
        for (auto s = first; s != last; ++s) {
            cuts.push_back(s->start);
            cuts.push_back(s->end);
        }
        std::sort(cuts.begin(), cuts.end());
        cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
        const std::size_t begin = steps_.size();
        for (const util::SimTime cut : cuts) {
            double loss = 0.0;
            for (auto s = first; s != last; ++s) {
                if (s->start <= cut && cut < s->end) {
                    loss = std::max(loss, s->loss);
                }
            }
            if (steps_.size() > begin && steps_.back().loss == loss) continue;
            steps_.push_back({cut, loss});
        }
        step_begin_[link + 1] = steps_.size();
        first = last;
    }
    // Links without spikes start where the previous link ended.
    for (std::size_t l = 1; l < step_begin_.size(); ++l) {
        step_begin_[l] = std::max(step_begin_[l], step_begin_[l - 1]);
    }
    spikes_indexed_ = true;
}

std::pair<double, util::SimTime> FaultPlan::spike_loss(
    LinkId link, util::SimTime t) const {
    if (!spikes_indexed_) {
        throw std::logic_error("FaultPlan: query before finalize()");
    }
    if (std::size_t{link} + 1 >= step_begin_.size()) return {0.0, kForever};
    const auto first = steps_.begin() +
                       static_cast<std::ptrdiff_t>(step_begin_[link]);
    const auto last = steps_.begin() +
                      static_cast<std::ptrdiff_t>(step_begin_[link + 1]);
    const auto next = std::upper_bound(
        first, last, t,
        [](util::SimTime v, const LossStep& s) { return v < s.start; });
    return {next == first ? 0.0 : std::prev(next)->loss,
            next == last ? kForever : next->start};
}

double FaultPlan::loss_at(LinkId link, util::SimTime t) const {
    return spike_loss(link, t).first;
}

PassWindow FaultPlan::pass_window(LinkId link, util::SimTime t) const {
    const PassWindow up = downs.pass_window(link, t);
    if (up.probability == 0.0) return up;
    const auto [loss, until] = spike_loss(link, t);
    return {1.0 - loss, std::min(up.until, until)};
}

bool FaultPlan::partition_active(util::SimTime t) const {
    for (const PartitionEvent& ev : partitions) {
        if (t < ev.start) break;  // sorted, non-overlapping
        if (t < ev.heal) return true;
    }
    return false;
}

bool FaultPlan::partition_blocks(std::size_t a, std::size_t b,
                                 util::SimTime t) const {
    if (a == b) return false;
    for (const PartitionEvent& ev : partitions) {
        if (t < ev.start) break;  // sorted, non-overlapping
        if (t >= ev.heal) continue;
        if (a >= ev.side.size() || b >= ev.side.size()) return false;
        return ev.side[a] != ev.side[b];
    }
    return false;
}

FaultPlan build_fault_plan(const FaultSpec& spec, util::SimTime duration,
                           std::span<const PathView> candidate_paths,
                           std::size_t node_count, util::Rng& rng) {
    auto& registry = util::metrics::Registry::global();
    static auto& plans = registry.counter("chaos.plans_built");
    static auto& flaps = registry.counter("chaos.flap_intervals");
    static auto& outages = registry.counter("chaos.correlated_outages");
    static auto& spikes = registry.counter("chaos.loss_spikes");
    static auto& churns = registry.counter("chaos.churn_events");
    static auto& crashes = registry.counter("chaos.crash_events");
    static auto& partitions = registry.counter("chaos.partition_events");
    plans.add(1);

    FaultPlan plan;
    plan.reorder_rate = spec.rate(FaultKind::kReorder);
    plan.duplicate_rate = spec.rate(FaultKind::kDuplicate);
    plan.ack_drop_rate = spec.rate(FaultKind::kAckDrop);
    plan.ack_delay_rate = spec.rate(FaultKind::kAckDelay);

    const double minutes = util::to_seconds(duration) / 60.0;
    const auto pick_link = [&](util::Rng& r) -> LinkId {
        const PathView& path = candidate_paths[r.uniform_index(
            candidate_paths.size())];
        return path.links[r.uniform_index(path.links.size())];
    };
    const auto event_count = [&](double per_minute_mean) {
        // Poisson arrivals via exponential gaps would also work; a binomial
        // draw per whole minute keeps the count bounded and the stream
        // consumption simple.
        std::size_t events = 0;
        const auto whole = static_cast<std::size_t>(minutes);
        for (std::size_t i = 0; i < whole; ++i) {
            if (rng.uniform() < per_minute_mean) ++events;
        }
        if (rng.uniform() < per_minute_mean * (minutes - static_cast<double>(
                                                             whole))) {
            ++events;
        }
        return events;
    };

    // --- link flaps: short independent down intervals -----------------------
    const double flap_rate = spec.rate(FaultKind::kFlap);
    if (flap_rate > 0.0 && !candidate_paths.empty()) {
        // Expected flap_rate * #links flaps per minute; 5-20 s downtime.
        std::size_t distinct_links = 0;
        for (const PathView& p : candidate_paths) distinct_links += p.hops();
        const double per_minute =
            flap_rate * static_cast<double>(distinct_links) /
            std::max<double>(1.0, static_cast<double>(candidate_paths.size()));
        const auto n = static_cast<std::size_t>(per_minute * minutes);
        for (std::size_t i = 0; i < n; ++i) {
            const LinkId link = pick_link(rng);
            const auto start = static_cast<util::SimTime>(
                rng.uniform(0.0, static_cast<double>(duration)));
            const auto down = static_cast<util::SimTime>(
                rng.uniform(5.0, 20.0) * static_cast<double>(util::kSecond));
            plan.downs.add_down(link, {start, start + down});
            flaps.add(1);
        }
    }

    // --- correlated outages: a contiguous run of links on one path ----------
    const double corr_rate = spec.rate(FaultKind::kCorrelated);
    if (corr_rate > 0.0 && !candidate_paths.empty()) {
        const double per_minute =
            corr_rate * static_cast<double>(candidate_paths.size()) / 100.0;
        const std::size_t n = event_count(std::min(1.0, per_minute));
        for (std::size_t i = 0; i < n; ++i) {
            const PathView& path = candidate_paths[rng.uniform_index(
                candidate_paths.size())];
            if (path.links.empty()) continue;
            const std::size_t width = std::min<std::size_t>(
                path.links.size(),
                static_cast<std::size_t>(rng.uniform_int(2, 5)));
            const std::size_t first =
                rng.uniform_index(path.links.size() - width + 1);
            const auto start = static_cast<util::SimTime>(
                rng.uniform(0.0, static_cast<double>(duration)));
            const auto down = static_cast<util::SimTime>(
                rng.uniform(30.0, 120.0) *
                static_cast<double>(util::kSecond));
            for (std::size_t l = 0; l < width; ++l) {
                plan.downs.add_down(path.links[first + l],
                                    {start, start + down});
            }
            outages.add(1);
        }
    }

    // --- loss spikes ---------------------------------------------------------
    const double loss_rate = spec.rate(FaultKind::kLossSpike);
    if (loss_rate > 0.0 && !candidate_paths.empty()) {
        const double per_minute =
            loss_rate * static_cast<double>(candidate_paths.size()) / 100.0;
        const std::size_t n = event_count(std::min(1.0, per_minute));
        for (std::size_t i = 0; i < n; ++i) {
            LossSpike spike;
            spike.link = pick_link(rng);
            spike.start = static_cast<util::SimTime>(
                rng.uniform(0.0, static_cast<double>(duration)));
            spike.end = spike.start + static_cast<util::SimTime>(
                                          rng.uniform(10.0, 60.0) *
                                          static_cast<double>(util::kSecond));
            spike.loss = rng.uniform(0.2, 0.8);
            plan.add_spike(spike);
            spikes.add(1);
        }
    }

    // --- churn ---------------------------------------------------------------
    const double churn_rate = spec.rate(FaultKind::kChurn);
    if (churn_rate > 0.0 && node_count > 0) {
        // Per node: a leave each minute with probability churn_rate,
        // downtime 30 s - 5 min, never overlapping its own previous cycle.
        for (std::size_t node = 0; node < node_count; ++node) {
            util::SimTime t = 0;
            while (t < duration) {
                t += util::kMinute;
                if (rng.uniform() >= churn_rate) continue;
                const auto down = static_cast<util::SimTime>(
                    rng.uniform(30.0, 300.0) *
                    static_cast<double>(util::kSecond));
                if (t >= duration) break;
                plan.churn.push_back(
                    {node, t, std::min(duration, t + down)});
                churns.add(1);
                t += down;
            }
        }
        std::sort(plan.churn.begin(), plan.churn.end(),
                  [](const ChurnEvent& a, const ChurnEvent& b) {
                      if (a.leave != b.leave) return a.leave < b.leave;
                      return a.node < b.node;
                  });
    }

    // --- crash-stop cycles (dedicated substream) -----------------------------
    const double crash_rate = spec.rate(FaultKind::kCrash);
    if (crash_rate > 0.0 && node_count > 0) {
        // Like churn but with amnesia: downtime 1-4 min, restart recovers
        // from the node's journal.  Drawn from a substream of the caller's
        // seed so the shared stream above is never perturbed.
        util::Rng crash_rng =
            util::Rng::substream(rng.seed(), kCrashStream);
        for (std::size_t node = 0; node < node_count; ++node) {
            util::SimTime t = 0;
            while (t < duration) {
                t += util::kMinute;
                if (crash_rng.uniform() >= crash_rate) continue;
                const auto down = static_cast<util::SimTime>(
                    crash_rng.uniform(60.0, 240.0) *
                    static_cast<double>(util::kSecond));
                if (t >= duration) break;
                plan.crashes.push_back(
                    {node, t, std::min(duration, t + down)});
                crashes.add(1);
                t += down;
            }
        }
        std::sort(plan.crashes.begin(), plan.crashes.end(),
                  [](const CrashEvent& a, const CrashEvent& b) {
                      if (a.crash != b.crash) return a.crash < b.crash;
                      return a.node < b.node;
                  });
    }

    // --- partitions (dedicated substream) ------------------------------------
    const double part_rate = spec.rate(FaultKind::kPartition);
    if (part_rate > 0.0 && node_count > 1) {
        // Per-minute bisection events, healed after 1-3 min, never
        // overlapping.  The cut is a contiguous index split -- the shape a
        // failed inter-domain link produces: everyone on one side loses
        // everyone on the other, all at once.
        util::Rng part_rng =
            util::Rng::substream(rng.seed(), kPartitionStream);
        util::SimTime t = 0;
        while (t < duration) {
            t += util::kMinute;
            if (part_rng.uniform() >= part_rate) continue;
            if (t >= duration) break;
            const auto heal_delay = static_cast<util::SimTime>(
                part_rng.uniform(60.0, 180.0) *
                static_cast<double>(util::kSecond));
            const auto lo = std::max<std::int64_t>(
                1, static_cast<std::int64_t>(node_count / 4));
            const auto hi = std::max(
                lo, std::min<std::int64_t>(
                        static_cast<std::int64_t>(node_count) - 1,
                        static_cast<std::int64_t>(3 * node_count / 4)));
            const auto cut =
                static_cast<std::size_t>(part_rng.uniform_int(lo, hi));
            PartitionEvent ev;
            ev.start = t;
            ev.heal = std::min(duration, t + heal_delay);
            ev.side.assign(node_count, 0);
            for (std::size_t i = cut; i < node_count; ++i) ev.side[i] = 1;
            t = ev.heal;
            plan.partitions.push_back(std::move(ev));
            partitions.add(1);
        }
    }

    plan.finalize();
    return plan;
}

}  // namespace concilium::net
