// Trace-driven workload for conciliumd (DAEMON.md).
//
// Everything else in this repo drives the protocol from bespoke bench
// loops; the daemon instead streams its load from a *workload trace*: a
// versioned, line-oriented text file of timestamped message / churn /
// crash / fault / attack records plus a small directive preamble naming
// the world (seed, overlay size, topology shape, duration).  The format
// exists so that millions-of-users-shaped traffic -- diurnal load curves,
// flash crowds, correlated regional churn -- can be generated once
// (tools/gen_workload.py), version-controlled, and replayed byte-for-byte.
//
// Parsing is strict in the FaultSpec tradition: an unknown record kind, a
// malformed field, a record before the preamble ends, an out-of-order
// timestamp, or a truncated file (the mandatory `end <count>` trailer is
// how truncation is detected) all throw std::invalid_argument naming the
// offending line.  A daemon fed garbage refuses to start; it never guesses.
//
// Grammar (one construct per line; `#` comments and blank lines ignored):
//
//   header     := "concilium-trace v1"               (first line, exactly)
//   directive  := ("seed" | "nodes" | "hosts" | "stubs") SP uint
//               | "duration" SP time
//   record     := "msg"    SP time SP member SP hex64   (send toward key)
//               | "churn"  SP time SP member SP time    (leave, down-for)
//               | "crash"  SP time SP member SP time    (crash, down-for)
//               | "fault"  SP time SP member SP member SP time
//                                          (IP path a->b loses a link)
//               | "attack" SP time SP member SP role
//   trailer    := "end" SP uint                        (the record count)
//   time       := uint ("us" | "ms" | "s" | "min" | "h")
//   role       := drop | flip | equivocate | replay | slander | spam
//               | collude
//
// Directives must precede the first record, each may appear once, and
// record timestamps must be non-decreasing.  Attack roles are static node
// behaviors (runtime::NodeBehavior); the record's timestamp is validated
// and kept for bookkeeping but the role is active from cluster start --
// behaviors are fixed at construction (see DAEMON.md).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/faultfs.h"
#include "util/fnv.h"
#include "util/time.h"

namespace concilium::daemon {

enum class RecordKind : std::uint8_t {
    kMessage,  ///< application message send
    kChurn,    ///< graceful leave + rejoin
    kCrash,    ///< crash-stop (amnesia) + restart from the journal
    kFault,    ///< IP-level down interval on the a->b path
    kAttack,   ///< node adopts a misbehavior role
};

[[nodiscard]] std::string_view to_string(RecordKind kind);

enum class AttackRole : std::uint8_t {
    kDrop,        ///< drop every message it should forward
    kFlip,        ///< invert link verdicts in published snapshots
    kEquivocate,  ///< per-peer snapshot variants (ADVERSARY.md)
    kReplay,      ///< stale snapshot re-advertisement
    kSlander,     ///< forged accusations against honest peers
    kSpam,        ///< DHT junk floods under victims' keys
    kCollude,     ///< fabricated post-drop revisions
};

[[nodiscard]] std::string_view to_string(AttackRole role);

/// One parsed trace line.  Plain data; field use depends on `kind`:
/// msg uses (a, key); churn/crash use (a, down); fault uses (a, b, down);
/// attack uses (a, role).
struct WorkloadRecord {
    RecordKind kind = RecordKind::kMessage;
    util::SimTime at = 0;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::uint64_t key = 0;
    util::SimTime down = 0;
    AttackRole role = AttackRole::kDrop;
};

/// A fully parsed trace: the world directives plus every record in file
/// order (timestamps non-decreasing by construction).
struct Workload {
    std::uint64_t seed = 1;
    std::size_t overlay_nodes = 90;
    std::size_t end_hosts = 600;
    std::size_t stub_domains = 16;
    util::SimTime duration = 2 * util::kHour;

    std::vector<WorkloadRecord> records;
    std::size_t messages = 0;
    std::size_t churns = 0;
    std::size_t crashes = 0;
    std::size_t faults = 0;
    std::size_t attacks = 0;

    /// FNV-1a over the raw trace text; checkpoints refuse to resume a run
    /// whose trace bytes changed underneath them.
    std::uint64_t content_fnv = util::kFnvOffset;

    /// Timestamp of the last record (0 when the trace has none).
    [[nodiscard]] util::SimTime last_record_at() const noexcept {
        return records.empty() ? 0 : records.back().at;
    }

    /// Strict parse.  `origin` names the source in error messages
    /// (`origin:line: message`).  Throws std::invalid_argument.
    [[nodiscard]] static Workload parse(std::string_view text,
                                        std::string_view origin);

    /// parse() over a file's bytes; throws std::invalid_argument when the
    /// file cannot be read.
    [[nodiscard]] static Workload parse_file(const std::string& path);
    /// Same, reading through a FaultFs seam so trace input shares the
    /// daemon's storage-fault schedule.
    [[nodiscard]] static Workload parse_file(const std::string& path,
                                             util::FaultFs& fs);
};

/// Strict `<uint><unit>` simulation-time parse; throws
/// std::invalid_argument on anything else.
[[nodiscard]] util::SimTime parse_time(std::string_view token,
                                       const std::string& where);

}  // namespace concilium::daemon
