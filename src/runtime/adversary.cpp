#include "runtime/owners.h"

namespace concilium::runtime {

void Adversary::slander_round(overlay::MemberIndex m) {
    const auto& peers = s_.net->routing_peers(m);
    if (s_.online[m] && !peers.empty()) {
        const overlay::MemberIndex victim =
            peers[slander_cursor_[m]++ % peers.size()];
        const auto& collected = stewardship_.collected(m);
        const auto commitment = collected.find(victim);
        const bool genuine = commitment != collected.end();
        // Strongest forgery available: a genuine commitment from the victim,
        // with the accusation anchored to its message binding so the
        // commitment checks pass.  The lie then has to live in the evidence
        // bundle.  Without one the slanderer forges a commitment in the
        // victim's name, but can only sign it with its own key, so
        // verification rejects it outright.
        const std::uint64_t message_id =
            genuine ? commitment->second.message_id
                    : (std::uint64_t{0x51AD} << 32) |
                          (std::uint64_t{m} << 16) | slander_cursor_[m];
        const util::SimTime message_time =
            genuine ? commitment->second.at : s_.sim->now();
        auto ev = s_.evidence(
            m, victim, message_id, message_time, [&](core::BlameEvidence& e) {
                if (genuine) {
                    e.commitment = commitment->second;
                } else {
                    core::ForwardingCommitment c;
                    c.sender = e.judge;
                    c.forwarder = e.suspect;
                    c.destination = e.judge;
                    c.message_id = e.message_id;
                    c.at = e.message_time;
                    c.signature = s_.net->member(m).keys.sign(
                        c.signed_payload());
                    e.commitment = c;
                }
                // Cherry-picking: of everything archived about these links,
                // keep ONLY snapshots outside the admission window around
                // message_time -- old outages the victim had nothing to do
                // with.  Fresh exonerating snapshots are deliberately
                // withheld.
                auto bundle = gossip_.archive(m).evidence_for(
                    e.path_links, e.message_time,
                    kBlame.delta + 5 * util::kMinute, e.suspect);
                std::erase_if(bundle,
                              [&](const tomography::TomographicSnapshot& s) {
                                  const util::SimTime skew =
                                      s.probed_at >= e.message_time
                                          ? s.probed_at - e.message_time
                                          : e.message_time - s.probed_at;
                                  return skew <= kBlame.delta;
                              });
                if (bundle.size() > 4) bundle.resize(4);
                e.snapshots = std::move(bundle);
                e.claimed_blame = 1.0;
            });

        core::FaultAccusation accusation;
        accusation.accuser = ev.judge;
        accusation.evidence.push_back(std::move(ev));
        accusation.signature =
            s_.net->member(m).keys.sign(accusation.signed_payload());
        s_.dht.put(m,
                   core::FaultAccusation::dht_key(
                       s_.net->member(victim).keys.public_key()),
                   accusation.serialize());
        s_.count<&Stats::slanders_filed>();
    }
    s_.schedule_round(Op::kSlanderRound, m);
}

void Adversary::spam_round(overlay::MemberIndex m) {
    const auto& peers = s_.net->routing_peers(m);
    if (s_.online[m] && !peers.empty()) {
        const overlay::MemberIndex victim =
            peers[spam_cursor_[m]++ % peers.size()];
        const auto key = core::FaultAccusation::dht_key(
            s_.net->member(victim).keys.public_key());
        for (int i = 0; i < 4; ++i) {
            std::vector<std::uint8_t> junk(24);
            for (auto& byte : junk) {
                byte = static_cast<std::uint8_t>(s_.rng.uniform_int(0, 255));
            }
            s_.count<&Stats::spam_puts>();
            if (!s_.dht.put(m, key, std::move(junk)).accepted) {
                s_.count<&Stats::dht_puts_rejected>();
            }
        }
    }
    s_.schedule_round(Op::kSpamRound, m);
}

}  // namespace concilium::runtime
