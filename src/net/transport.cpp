#include "net/transport.h"

#include <algorithm>

#include "util/metrics.h"

namespace concilium::net {

PassWindow Transport::pass_window(LinkId link, util::SimTime t) {
    if (link >= memo_.size()) return compose(link, t);
    Memo& m = memo_[link];
    if (m.from <= t && t < m.until) return {m.probability, m.until};
    const PassWindow w = compose(link, t);
    m = {t, w.until, w.probability};
    return w;
}

void Transport::set_chaos(const FaultPlan* plan) {
    chaos_ = plan;
    const std::size_t links = std::max(
        timeline_->link_bound(),
        plan == nullptr ? std::size_t{0} : plan->link_bound());
    memo_.assign(links, Memo{});
}

PassWindow Transport::compose(LinkId link, util::SimTime t) const {
    const PassWindow scenario = timeline_->pass_window(link, t);
    if (scenario.probability == 0.0) return scenario;
    PassWindow w{1.0 - params_.healthy_link_loss, scenario.until};
    if (chaos_ != nullptr) {
        const PassWindow injected = chaos_->pass_window(link, t);
        if (injected.probability == 0.0) return injected;
        // 1 - max(a, b) == min(1 - a, 1 - b) exactly: rounding is monotone.
        w = {std::min(w.probability, injected.probability),
             std::min(w.until, injected.until)};
    }
    return w;
}

bool Transport::sample_traversal(std::span<const LinkId> links,
                                 util::SimTime t) {
    static auto& sent =
        util::metrics::Registry::global().counter("net.packets_sent");
    static auto& delivered =
        util::metrics::Registry::global().counter("net.packets_delivered");
    static auto& dropped =
        util::metrics::Registry::global().counter("net.packets_dropped");
    sent.add(1);
    util::SimTime cross = t;
    for (const LinkId link : links) {
        if (!rng_.bernoulli(pass_probability(link, cross))) {
            dropped.add(1);
            return false;
        }
        cross += kPerHopLatency;
    }
    delivered.add(1);
    return true;
}

}  // namespace concilium::net
