#include "core/accusation.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/metrics.h"

namespace concilium::core {

namespace {

void write_signature(util::ByteWriter& w, const crypto::Signature& sig) {
    w.bytes(sig.bytes());
}

crypto::Signature read_signature(util::ByteReader& r) {
    const auto raw = r.bytes();
    if (raw.size() != crypto::Signature::kBytes) {
        throw std::out_of_range("read_signature: bad length");
    }
    std::array<std::uint8_t, crypto::Signature::kBytes> arr{};
    std::copy(raw.begin(), raw.end(), arr.begin());
    return crypto::Signature(arr);
}

void write_commitment(util::ByteWriter& w, const ForwardingCommitment& c) {
    w.node_id(c.sender);
    w.node_id(c.forwarder);
    w.node_id(c.destination);
    w.u64(c.message_id);
    w.i64(c.at);
    write_signature(w, c.signature);
}

ForwardingCommitment read_commitment(util::ByteReader& r) {
    ForwardingCommitment c;
    c.sender = r.node_id();
    c.forwarder = r.node_id();
    c.destination = r.node_id();
    c.message_id = r.u64();
    c.at = r.i64();
    c.signature = read_signature(r);
    return c;
}

void write_evidence_body(util::ByteWriter& w, const BlameEvidence& e) {
    w.node_id(e.judge);
    w.node_id(e.suspect);
    w.u64(e.message_id);
    w.i64(e.message_time);
    w.u32(static_cast<std::uint32_t>(e.path_links.size()));
    for (const net::LinkId l : e.path_links) w.u32(l);
    w.u32(static_cast<std::uint32_t>(e.snapshots.size()));
    for (const auto& s : e.snapshots) tomography::write_snapshot_wire(w, s);
    write_commitment(w, e.commitment);
    w.f64(e.claimed_blame);
}

BlameEvidence read_evidence(util::ByteReader& r) {
    BlameEvidence e;
    e.judge = r.node_id();
    e.suspect = r.node_id();
    e.message_id = r.u64();
    e.message_time = r.i64();
    // Counts come off the wire: reserve no more than the bytes left could
    // hold (every record is at least one byte), so a forged count fails as
    // a truncated message instead of a huge allocation.
    const std::uint32_t links = r.u32();
    e.path_links.reserve(std::min<std::size_t>(links, r.remaining()));
    for (std::uint32_t i = 0; i < links; ++i) e.path_links.push_back(r.u32());
    const std::uint32_t snaps = r.u32();
    e.snapshots.reserve(std::min<std::size_t>(snaps, r.remaining()));
    for (std::uint32_t i = 0; i < snaps; ++i) {
        e.snapshots.push_back(tomography::read_snapshot_wire(r));
    }
    e.commitment = read_commitment(r);
    e.claimed_blame = r.f64();
    e.judge_signature = read_signature(r);
    return e;
}

}  // namespace

std::vector<std::uint8_t> BlameEvidence::signed_payload() const {
    util::ByteWriter w;
    write_evidence_body(w, *this);
    return w.data();
}

std::vector<ProbeResult> probes_from_snapshots(
    std::span<const tomography::TomographicSnapshot> snapshots) {
    std::vector<ProbeResult> probes;
    for (const auto& snap : snapshots) {
        for (const auto& obs : snap.links) {
            probes.push_back(
                ProbeResult{snap.origin, obs.link, obs.up, snap.probed_at});
        }
    }
    return probes;
}

const util::NodeId& FaultAccusation::accused() const {
    if (evidence.empty()) {
        throw std::logic_error("FaultAccusation::accused: no evidence");
    }
    return evidence.back().suspect;
}

const util::NodeId& FaultAccusation::original_accused() const {
    if (evidence.empty()) {
        throw std::logic_error(
            "FaultAccusation::original_accused: no evidence");
    }
    return evidence.front().suspect;
}

std::vector<std::uint8_t> FaultAccusation::signed_payload() const {
    util::ByteWriter w;
    w.node_id(accuser);
    w.u32(static_cast<std::uint32_t>(evidence.size()));
    for (const BlameEvidence& e : evidence) {
        write_evidence_body(w, e);
        write_signature(w, e.judge_signature);
    }
    return w.data();
}

std::vector<std::uint8_t> FaultAccusation::serialize() const {
    util::ByteWriter w;
    w.node_id(accuser);
    w.u32(static_cast<std::uint32_t>(evidence.size()));
    for (const BlameEvidence& e : evidence) {
        write_evidence_body(w, e);
        write_signature(w, e.judge_signature);
    }
    write_signature(w, signature);
    return w.data();
}

FaultAccusation FaultAccusation::deserialize(
    std::span<const std::uint8_t> bytes) {
    util::ByteReader r(bytes);
    FaultAccusation acc;
    acc.accuser = r.node_id();
    const std::uint32_t n = r.u32();
    acc.evidence.reserve(std::min<std::size_t>(n, r.remaining()));
    for (std::uint32_t i = 0; i < n; ++i) {
        acc.evidence.push_back(read_evidence(r));
    }
    acc.signature = read_signature(r);
    if (!r.exhausted()) {
        throw std::invalid_argument(
            "FaultAccusation::deserialize: trailing bytes");
    }
    return acc;
}

util::NodeId FaultAccusation::dht_key(const crypto::PublicKey& accused_key) {
    return util::NodeId::hash_of(accused_key.to_string());
}

void amend_accusation(FaultAccusation& accusation, BlameEvidence revision,
                      const crypto::KeyPair& accuser_keys) {
    if (accusation.evidence.empty()) {
        throw std::invalid_argument("amend_accusation: empty accusation");
    }
    if (!(revision.judge == accusation.accused())) {
        throw std::invalid_argument(
            "amend_accusation: revision judge must be the current accused");
    }
    accusation.evidence.push_back(std::move(revision));
    accusation.signature = accuser_keys.sign(accusation.signed_payload());
}

const char* to_string(AccusationCheck check) {
    switch (check) {
        case AccusationCheck::kOk: return "ok";
        case AccusationCheck::kEmptyEvidence: return "empty evidence";
        case AccusationCheck::kBadAccuserSignature:
            return "bad accuser signature";
        case AccusationCheck::kBrokenChain: return "broken revision chain";
        case AccusationCheck::kBadJudgeSignature:
            return "bad judge signature";
        case AccusationCheck::kBadCommitment:
            return "bad forwarding commitment";
        case AccusationCheck::kBadSnapshotSignature:
            return "bad snapshot signature";
        case AccusationCheck::kBlameMismatch: return "blame mismatch";
        case AccusationCheck::kBlameBelowThreshold:
            return "blame below threshold";
        case AccusationCheck::kBadPath: return "bad path claim";
        case AccusationCheck::kStaleEvidence:
            return "stale evidence (snapshot outside the admission window)";
        case AccusationCheck::kInsufficientEvidence:
            return "insufficient evidence (no admissible probe on the path)";
    }
    return "?";
}

AccusationCheck AccusationVerifier::verify_evidence(
    const BlameEvidence& ev) const {
    if (path_check_ &&
        !path_check_(ev.judge, ev.suspect, ev.path_links)) {
        return AccusationCheck::kBadPath;
    }
    const auto judge_key = key_of_(ev.judge);
    if (!judge_key.has_value() ||
        !registry_->verify(*judge_key, ev.signed_payload(),
                           ev.judge_signature)) {
        return AccusationCheck::kBadJudgeSignature;
    }
    // The suspect must have committed to forwarding this very message, at
    // (roughly) the time the judge claims it was sent: a genuine commitment
    // for an *old* message must not anchor an accusation about a new one.
    const auto suspect_key = key_of_(ev.suspect);
    if (!suspect_key.has_value()) return AccusationCheck::kBadCommitment;
    const ForwardingCommitment& c = ev.commitment;
    const util::SimTime skew = c.at >= ev.message_time
                                   ? c.at - ev.message_time
                                   : ev.message_time - c.at;
    if (!(c.forwarder == ev.suspect) || !(c.sender == ev.judge) ||
        c.message_id != ev.message_id || skew > blame_params_.delta ||
        !verify_forwarding_commitment(c, *suspect_key, *registry_)) {
        return AccusationCheck::kBadCommitment;
    }
    for (const auto& snap : ev.snapshots) {
        const auto origin_key = key_of_(snap.origin);
        if (!origin_key.has_value() ||
            !tomography::verify_snapshot(snap, *origin_key, *registry_)) {
            return AccusationCheck::kBadSnapshotSignature;
        }
        // Freshness: every bundled snapshot must come from the admission
        // window around the message.  compute_blame would discard the
        // out-of-window probes anyway, but a cherry-picked stale bundle
        // must be rejected outright rather than silently collapsing to
        // the evidence-free "presumed guilty" blame of 1.
        if (snap.probed_at < ev.message_time - blame_params_.delta ||
            snap.probed_at > ev.message_time + blame_params_.delta) {
            return AccusationCheck::kStaleEvidence;
        }
    }
    const auto probes = probes_from_snapshots(ev.snapshots);
    const BlameBreakdown breakdown = compute_blame(
        ev.path_links, probes, ev.message_time, ev.suspect, blame_params_);
    // Third parties demand *independent* corroboration: at least one
    // admitted probe on the claimed path.  The judge-side presumption of
    // guilt over an empty window (Section 3.4's "Otherwise, Concilium
    // determines that B was faulty") is how the judge breaks ties, but an
    // accusation carrying no admissible evidence is indistinguishable from
    // slander and convinces nobody.
    if (breakdown.links.empty()) {
        return AccusationCheck::kInsufficientEvidence;
    }
    if (std::abs(breakdown.blame - ev.claimed_blame) > 1e-9) {
        return AccusationCheck::kBlameMismatch;
    }
    if (!is_guilty_verdict(breakdown.blame, verdict_params_)) {
        return AccusationCheck::kBlameBelowThreshold;
    }
    return AccusationCheck::kOk;
}

AccusationCheck AccusationVerifier::verify(
    const FaultAccusation& accusation) const {
    const AccusationCheck result = [&]() -> AccusationCheck {
        if (accusation.evidence.empty()) return AccusationCheck::kEmptyEvidence;
        const auto accuser_key = key_of_(accusation.accuser);
        if (!accuser_key.has_value() ||
            !registry_->verify(*accuser_key, accusation.signed_payload(),
                               accusation.signature)) {
            return AccusationCheck::kBadAccuserSignature;
        }
        if (!(accusation.evidence.front().judge == accusation.accuser)) {
            return AccusationCheck::kBrokenChain;
        }
        for (std::size_t i = 1; i < accusation.evidence.size(); ++i) {
            if (!(accusation.evidence[i].judge ==
                  accusation.evidence[i - 1].suspect)) {
                return AccusationCheck::kBrokenChain;
            }
        }
        for (const BlameEvidence& ev : accusation.evidence) {
            const AccusationCheck check = verify_evidence(ev);
            if (check != AccusationCheck::kOk) return check;
        }
        return AccusationCheck::kOk;
    }();
    {
        using util::metrics::Registry;
        static auto& verified =
            Registry::global().counter("core.accusations_verified");
        static auto& failed =
            Registry::global().counter("core.accusation_checks_failed");
        result == AccusationCheck::kOk ? verified.add(1) : failed.add(1);
    }
    return result;
}

}  // namespace concilium::core
