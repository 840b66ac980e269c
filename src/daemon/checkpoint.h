// Daemon checkpoints: periodic, verifiable progress records (DAEMON.md).
//
// conciliumd's recovery story is the NodeJournal philosophy applied at
// process scope: the workload trace is the journal of record, the run is a
// pure function of (trace bytes, directives), and a restarted daemon
// *replays* that function deterministically.  A checkpoint therefore does
// not serialize the cluster -- it records a digest of the full
// deterministic state at one sim instant (ground-truth stats, every node's
// journal, the feed cursor) so that
//
//   * restart knows the sim clock the previous incarnation had reached
//     (the resume target),
//   * the replay can be *verified*: when the replayed run reaches the
//     checkpointed clock its recomputed state text must match the
//     checkpoint byte for byte, or the daemon refuses to continue
//     (non-determinism and trace tampering both fail loudly), and
//   * two runs of the same trace -- killed-and-resumed or not -- can be
//     compared with cmp(1): equal state text == identical runs.
//
// The file format is the same strict line-oriented text as the trace, with
// a trailing self-digest so a torn write is detected even though writes go
// through write_atomic()'s tmp-fsync-rename-fsync sequence.
//
// Durability (DAEMON.md "Durability under storage faults"): all checkpoint
// file I/O goes through util::FaultFs, the deterministic storage-fault
// seam.  The chain helpers below implement verify-and-fall-back: a
// digest-mismatched, truncated, or unreadable checkpoint is *quarantined*
// (renamed with a named reason) instead of wedging resume, and the daemon
// proceeds from the newest valid ancestor -- redundancy plus verification,
// never hope.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/faultfs.h"
#include "util/time.h"

namespace concilium::daemon {

struct Checkpoint {
    /// FNV-1a of the raw trace text this run was driven by.
    std::uint64_t trace_fnv = 0;
    util::SimTime sim_clock = 0;
    /// Loop geometry: a resume with different tick or cadence would place
    /// feed windows and checkpoints elsewhere and silently diverge, so the
    /// daemon refuses to resume across a mismatch.
    util::SimTime tick = 0;
    util::SimTime checkpoint_every = 0;
    std::uint64_t messages_fed = 0;
    std::uint64_t checkpoints_written = 0;

    /// Ground-truth runtime::Cluster::Stats, every field by name in
    /// declaration order.
    std::vector<std::pair<std::string, std::uint64_t>> stats;

    /// Per-node durable state: each NodeJournal's size() and fnv().
    struct JournalDigest {
        std::uint64_t entries = 0;
        std::uint64_t fnv = 0;
    };
    std::vector<JournalDigest> journals;

    /// Serializes to the checkpoint text, self-digest line included.
    [[nodiscard]] std::string to_text() const;

    /// Strict parse; verifies the self-digest.  Throws
    /// std::invalid_argument naming `origin` and the offending line.
    [[nodiscard]] static Checkpoint parse(std::string_view text,
                                          std::string_view origin);

    /// parse() over a file's bytes, read through a FaultFs seam (and its
    /// fault schedule).
    [[nodiscard]] static Checkpoint parse_file(const std::string& path,
                                               util::FaultFs& fs);
};

/// Writes `text` to `path` atomically and durably: `path.tmp`, fsync of
/// the temp file *before* rename, fsync of the containing directory
/// *after* -- so neither a SIGKILL mid-write nor a power-loss-style crash
/// can surface an empty, missing, or half-written "successfully written"
/// file.  All five steps are FaultFs fault sites.  Throws
/// std::runtime_error on I/O failure (injected or real); the temp file is
/// cleaned up on every failure path.
void write_atomic(const std::string& path, const std::string& text,
                  util::FaultFs& fs);

/// Every resume candidate `checkpoint-<sim_clock_us>.ckpt` in `dir`,
/// newest (highest clock) first.  Leftover `*.tmp` files from interrupted
/// writes and `*.quarantined-*` artifacts are never candidates, nor is
/// anything whose stem is not a pure decimal clock.
[[nodiscard]] std::vector<std::string> checkpoint_chain(
    const std::string& dir);

/// The newest `checkpoint-*.ckpt` in `dir` (empty string when none):
/// checkpoint_chain(dir).front().
[[nodiscard]] std::string latest_checkpoint_file(const std::string& dir);

/// Moves a corrupt checkpoint out of the resume-candidate set by renaming
/// it to `<path>.quarantined-<reason>`, preserving the evidence for a
/// post-mortem.  Returns the new name, or the empty string when even the
/// rename failed (the caller still skips the file either way).
std::string quarantine_checkpoint(const std::string& path,
                                  const std::string& reason);

/// Maps a checkpoint load failure (exception text) to the short reason
/// slug used in quarantine names: "digest-mismatch", "truncated",
/// "io-error", or "parse-error".
[[nodiscard]] std::string checkpoint_failure_reason(const std::string& what);

/// Deletes the oldest entries of the chain beyond the newest `keep`
/// (keep == 0 keeps everything).  Quarantined artifacts are never touched.
/// Returns the number of files removed.
std::size_t prune_checkpoint_chain(const std::string& dir, std::size_t keep);

}  // namespace concilium::daemon
