#include "core/reputation.h"

#include <algorithm>

namespace concilium::core {

const ReputationBook::Entry* ReputationBook::entry_of(
    const util::NodeId& subject) const {
    const auto it = slot_of_.find(subject);
    return it == slot_of_.end() ? nullptr : &entries_[it->second];
}

void ReputationBook::cast_vote(const util::NodeId& voter,
                               const util::NodeId& subject) {
    Entry* e = nullptr;
    const auto it = slot_of_.find(subject);
    if (it != slot_of_.end()) {
        e = &entries_[it->second];
    } else {
        slot_of_.emplace(subject, static_cast<std::uint32_t>(entries_.size()));
        entries_.push_back(Entry{subject, {}});
        e = &entries_.back();
    }
    if (std::find(e->voters.begin(), e->voters.end(), voter) ==
        e->voters.end()) {
        e->voters.push_back(voter);
    }
}

int ReputationBook::votes_against(const util::NodeId& subject) const {
    const Entry* e = entry_of(subject);
    return e == nullptr ? 0 : static_cast<int>(e->voters.size());
}

bool ReputationBook::poor_peer(const util::NodeId& subject,
                               int vote_threshold) const {
    return votes_against(subject) >= vote_threshold;
}

SanctionDecision evaluate_sanction(SanctionPolicy policy,
                                   int verified_accusations,
                                   int blacklist_threshold) {
    SanctionDecision d;
    if (verified_accusations <= 0) return d;
    switch (policy) {
        case SanctionPolicy::kNone:
            break;
        case SanctionPolicy::kDistrustSensitive:
            d.allow_sensitive_messages = false;
            break;
        case SanctionPolicy::kUniversalBlacklist:
            d.allow_sensitive_messages = false;
            if (verified_accusations >= blacklist_threshold) {
                d.allow_peering = false;
            }
            break;
    }
    return d;
}

}  // namespace concilium::core
