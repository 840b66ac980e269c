#include "daemon/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "util/fnv.h"
#include "util/rate_spec.h"

namespace concilium::daemon {

namespace {

[[noreturn]] void fail(const std::string& where, const std::string& what) {
    throw std::invalid_argument(where + ": " + what);
}

void append_hex64(std::string& out, std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    out += buf;
}

}  // namespace

std::string Checkpoint::to_text() const {
    std::string out = "concilium-checkpoint v1\n";
    const auto line = [&out](const char* name, std::uint64_t v) {
        out += name;
        out += ' ';
        out += std::to_string(v);
        out += '\n';
    };
    out += "trace-fnv ";
    append_hex64(out, trace_fnv);
    out += '\n';
    line("sim-clock-us", static_cast<std::uint64_t>(sim_clock));
    line("tick-us", static_cast<std::uint64_t>(tick));
    line("checkpoint-every-us", static_cast<std::uint64_t>(checkpoint_every));
    line("messages-fed", messages_fed);
    line("checkpoints-written", checkpoints_written);
    for (const auto& [name, value] : stats) {
        out += "stat ";
        out += name;
        out += ' ';
        out += std::to_string(value);
        out += '\n';
    }
    for (std::size_t m = 0; m < journals.size(); ++m) {
        out += "journal ";
        out += std::to_string(m);
        out += ' ';
        out += std::to_string(journals[m].entries);
        out += ' ';
        append_hex64(out, journals[m].fnv);
        out += '\n';
    }
    out += "digest ";
    append_hex64(out, util::fnv1a(util::kFnvOffset, out.data(), out.size()));
    out += "\nend\n";
    return out;
}

Checkpoint Checkpoint::parse(std::string_view text, std::string_view origin) {
    Checkpoint ck;
    std::size_t line_no = 0;
    std::size_t pos = 0;
    bool saw_header = false;
    bool saw_digest = false;
    bool saw_end = false;
    std::size_t digest_covers = 0;  // byte offset the self-digest spans
    std::uint64_t claimed_digest = 0;

    // Field presence, so a truncated file cannot parse as a sparse one.
    bool have[6] = {};  // trace-fnv clock tick every fed written

    while (pos < text.size()) {
        const std::size_t eol = text.find('\n', pos);
        const std::size_t line_end =
            eol == std::string_view::npos ? text.size() : eol;
        const std::string_view line = text.substr(pos, line_end - pos);
        const std::size_t line_start = pos;
        pos = eol == std::string_view::npos ? text.size() : eol + 1;
        ++line_no;
        const std::string where =
            std::string(origin) + ":" + std::to_string(line_no);

        if (!saw_header) {
            if (line != "concilium-checkpoint v1") {
                fail(where, "not a checkpoint file");
            }
            saw_header = true;
            continue;
        }
        if (saw_end) fail(where, "content after 'end'");
        if (saw_digest) {
            if (line != "end") fail(where, "expected 'end' after digest");
            saw_end = true;
            continue;
        }

        // Tokenize: checkpoint lines are "name value [value ...]".
        std::vector<std::string_view> fields;
        std::size_t i = 0;
        while (i < line.size()) {
            while (i < line.size() && line[i] == ' ') ++i;
            std::size_t start = i;
            while (i < line.size() && line[i] != ' ') ++i;
            if (i > start) fields.push_back(line.substr(start, i - start));
        }
        if (fields.empty()) fail(where, "blank line inside checkpoint");
        const std::string_view kind = fields[0];

        const auto want = [&](std::size_t n) {
            if (fields.size() != n) {
                fail(where, "'" + std::string(kind) + "' takes " +
                                std::to_string(n - 1) + " value(s)");
            }
        };
        const auto hex = [&](std::string_view token) {
            if (token.size() != 16) {
                fail(where, "expected 16 hex digits");
            }
            std::uint64_t v = 0;
            for (const char c : token) {
                int d;
                if (c >= '0' && c <= '9') {
                    d = c - '0';
                } else if (c >= 'a' && c <= 'f') {
                    d = 10 + (c - 'a');
                } else {
                    fail(where, "expected lowercase hex digits");
                }
                v = (v << 4) | static_cast<std::uint64_t>(d);
            }
            return v;
        };
        const auto count = [&](std::string_view token) {
            return util::parse_number<std::uint64_t>(where, token, 0,
                                                     UINT64_MAX);
        };

        if (kind == "trace-fnv") {
            want(2);
            ck.trace_fnv = hex(fields[1]);
            have[0] = true;
        } else if (kind == "sim-clock-us") {
            want(2);
            ck.sim_clock = static_cast<util::SimTime>(count(fields[1]));
            have[1] = true;
        } else if (kind == "tick-us") {
            want(2);
            ck.tick = static_cast<util::SimTime>(count(fields[1]));
            have[2] = true;
        } else if (kind == "checkpoint-every-us") {
            want(2);
            ck.checkpoint_every =
                static_cast<util::SimTime>(count(fields[1]));
            have[3] = true;
        } else if (kind == "messages-fed") {
            want(2);
            ck.messages_fed = count(fields[1]);
            have[4] = true;
        } else if (kind == "checkpoints-written") {
            want(2);
            ck.checkpoints_written = count(fields[1]);
            have[5] = true;
        } else if (kind == "stat") {
            want(3);
            ck.stats.emplace_back(std::string(fields[1]), count(fields[2]));
        } else if (kind == "journal") {
            want(4);
            const std::uint64_t m = count(fields[1]);
            if (m != ck.journals.size()) {
                fail(where, "journal lines out of order");
            }
            Checkpoint::JournalDigest jd;
            jd.entries = count(fields[2]);
            jd.fnv = hex(fields[3]);
            ck.journals.push_back(jd);
        } else if (kind == "digest") {
            want(2);
            claimed_digest = hex(fields[1]);
            digest_covers = line_start + 7;  // text up to "digest "
            saw_digest = true;
        } else {
            fail(where, "unknown checkpoint field '" + std::string(kind) +
                            "'");
        }
    }

    if (!saw_header) fail(std::string(origin) + ":1", "empty checkpoint");
    if (!saw_end) {
        fail(std::string(origin) + ":" + std::to_string(line_no),
             "missing 'end' (truncated checkpoint?)");
    }
    for (const bool h : have) {
        if (!h) {
            fail(std::string(origin),
                 "checkpoint is missing a required header field");
        }
    }
    const std::uint64_t actual =
        util::fnv1a(util::kFnvOffset, text.data(), digest_covers);
    if (actual != claimed_digest) {
        fail(std::string(origin),
             "self-digest mismatch (torn or tampered checkpoint)");
    }
    return ck;
}

Checkpoint Checkpoint::parse_file(const std::string& path,
                                  util::FaultFs& fs) {
    return parse(fs.read_file(path), path);
}

void write_atomic(const std::string& path, const std::string& text,
                  util::FaultFs& fs) {
    const std::string tmp = path + ".tmp";
    const int fd = fs.open_trunc(tmp);
    try {
        fs.write_all(fd, text, tmp);
        // fsync *before* rename: without it, a power loss after the rename
        // can surface an empty or garbage file under the final name -- the
        // one failure shape tmp-then-rename exists to rule out.
        fs.fsync_fd(fd, tmp);
    } catch (...) {
        fs.close_fd(fd);
        std::remove(tmp.c_str());
        throw;
    }
    fs.close_fd(fd);
    try {
        fs.rename_file(tmp, path);
    } catch (...) {
        std::remove(tmp.c_str());
        throw;
    }
    // fsync the containing directory so the rename itself is durable.
    const std::string parent =
        std::filesystem::path(path).parent_path().string();
    fs.fsync_dir(parent.empty() ? "." : parent);
}

namespace {

/// The sim clock encoded in a resume-candidate filename, or -1 when the
/// name is not a candidate (wrong affixes, leftover `.tmp`, quarantined
/// artifact, non-decimal stem).
util::SimTime candidate_clock(const std::string& name) {
    if (name.rfind("checkpoint-", 0) != 0) return -1;
    if (name.size() < 17 || name.substr(name.size() - 5) != ".ckpt") {
        return -1;
    }
    // Defense in depth: the suffix check above already rejects `.tmp` and
    // `.quarantined-*` names, but those must never become resume
    // candidates even if the naming scheme grows, so reject explicitly.
    if (name.find(".tmp") != std::string::npos ||
        name.find(".quarantined") != std::string::npos) {
        return -1;
    }
    const std::string stem = name.substr(11, name.size() - 11 - 5);
    if (stem.empty()) return -1;
    util::SimTime clock = 0;
    for (const char c : stem) {
        if (c < '0' || c > '9') return -1;
        clock = clock * 10 + (c - '0');
    }
    return clock;
}

}  // namespace

std::vector<std::string> checkpoint_chain(const std::string& dir) {
    namespace fs = std::filesystem;
    std::error_code ec;
    std::vector<std::pair<util::SimTime, std::string>> found;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        const util::SimTime clock =
            candidate_clock(entry.path().filename().string());
        if (clock < 0) continue;
        found.emplace_back(clock, entry.path().string());
    }
    std::sort(found.begin(), found.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    std::vector<std::string> chain;
    chain.reserve(found.size());
    for (auto& [clock, path] : found) chain.push_back(std::move(path));
    return chain;
}

std::string latest_checkpoint_file(const std::string& dir) {
    const std::vector<std::string> chain = checkpoint_chain(dir);
    return chain.empty() ? std::string() : chain.front();
}

std::string quarantine_checkpoint(const std::string& path,
                                  const std::string& reason) {
    std::string slug;
    for (const char c : reason) {
        if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-') {
            slug += c;
        } else if (c == ' ' || c == '_') {
            slug += '-';
        }
    }
    if (slug.empty()) slug = "unknown";
    const std::string moved = path + ".quarantined-" + slug;
    if (std::rename(path.c_str(), moved.c_str()) != 0) return {};
    return moved;
}

std::string checkpoint_failure_reason(const std::string& what) {
    if (what.find("digest") != std::string::npos) return "digest-mismatch";
    if (what.find("truncated") != std::string::npos ||
        what.find("empty checkpoint") != std::string::npos) {
        return "truncated";
    }
    if (what.find("failed:") != std::string::npos) return "io-error";
    return "parse-error";
}

std::size_t prune_checkpoint_chain(const std::string& dir,
                                   std::size_t keep) {
    if (keep == 0) return 0;
    const std::vector<std::string> chain = checkpoint_chain(dir);
    std::size_t removed = 0;
    for (std::size_t i = keep; i < chain.size(); ++i) {
        if (std::remove(chain[i].c_str()) == 0) ++removed;
    }
    return removed;
}

}  // namespace concilium::daemon
