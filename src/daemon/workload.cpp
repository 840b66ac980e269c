#include "daemon/workload.h"

#include <cstdio>
#include <stdexcept>

#include "util/rate_spec.h"

namespace concilium::daemon {

std::string_view to_string(RecordKind kind) {
    switch (kind) {
        case RecordKind::kMessage: return "msg";
        case RecordKind::kChurn: return "churn";
        case RecordKind::kCrash: return "crash";
        case RecordKind::kFault: return "fault";
        case RecordKind::kAttack: return "attack";
    }
    return "?";
}

std::string_view to_string(AttackRole role) {
    switch (role) {
        case AttackRole::kDrop: return "drop";
        case AttackRole::kFlip: return "flip";
        case AttackRole::kEquivocate: return "equivocate";
        case AttackRole::kReplay: return "replay";
        case AttackRole::kSlander: return "slander";
        case AttackRole::kSpam: return "spam";
        case AttackRole::kCollude: return "collude";
    }
    return "?";
}

namespace {

[[noreturn]] void fail(const std::string& where, const std::string& what) {
    throw std::invalid_argument(where + ": " + what);
}

/// Splits a line into whitespace-separated fields (no quoting, no escapes:
/// the format is deliberately trivial to parse and to generate).
std::vector<std::string_view> split_fields(std::string_view line) {
    std::vector<std::string_view> fields;
    std::size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
        std::size_t start = i;
        while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
        if (i > start) fields.push_back(line.substr(start, i - start));
    }
    return fields;
}

std::uint64_t parse_hex64(std::string_view token, const std::string& where) {
    if (token.empty() || token.size() > 16) {
        fail(where, "expected up to 16 hex digits, got '" +
                        std::string(token) + "'");
    }
    std::uint64_t value = 0;
    for (const char c : token) {
        int digit;
        if (c >= '0' && c <= '9') {
            digit = c - '0';
        } else if (c >= 'a' && c <= 'f') {
            digit = 10 + (c - 'a');
        } else if (c >= 'A' && c <= 'F') {
            digit = 10 + (c - 'A');
        } else {
            fail(where, "expected hex digits, got '" + std::string(token) +
                            "'");
        }
        value = (value << 4) | static_cast<std::uint64_t>(digit);
    }
    return value;
}

AttackRole parse_role(std::string_view token, const std::string& where) {
    for (const AttackRole role :
         {AttackRole::kDrop, AttackRole::kFlip, AttackRole::kEquivocate,
          AttackRole::kReplay, AttackRole::kSlander, AttackRole::kSpam,
          AttackRole::kCollude}) {
        if (token == to_string(role)) return role;
    }
    fail(where, "unknown attack role '" + std::string(token) + "'");
}

std::uint32_t parse_member(std::string_view token, const std::string& where,
                           std::size_t overlay_nodes) {
    const std::uint64_t value =
        util::parse_number<std::uint64_t>(where, token, 0, UINT64_MAX);
    if (value >= overlay_nodes) {
        fail(where, "member " + std::to_string(value) +
                        " out of range (overlay has " +
                        std::to_string(overlay_nodes) + " nodes)");
    }
    return static_cast<std::uint32_t>(value);
}

}  // namespace

util::SimTime parse_time(std::string_view token, const std::string& where) {
    std::size_t digits = 0;
    while (digits < token.size() && token[digits] >= '0' &&
           token[digits] <= '9') {
        ++digits;
    }
    const std::string_view unit = token.substr(digits);
    util::SimTime scale = 0;
    if (unit == "us") {
        scale = util::kMicrosecond;
    } else if (unit == "ms") {
        scale = util::kMillisecond;
    } else if (unit == "s") {
        scale = util::kSecond;
    } else if (unit == "min") {
        scale = util::kMinute;
    } else if (unit == "h") {
        scale = util::kHour;
    } else {
        fail(where, "expected a time like 90s / 250ms / 2h, got '" +
                        std::string(token) + "'");
    }
    const std::uint64_t value = util::parse_number<std::uint64_t>(
        where, token.substr(0, digits), 0, UINT64_MAX);
    if (value > static_cast<std::uint64_t>(INT64_MAX) / scale) {
        fail(where, "time overflows: '" + std::string(token) + "'");
    }
    return static_cast<util::SimTime>(value) * scale;
}

Workload Workload::parse(std::string_view text, std::string_view origin) {
    Workload wl;
    wl.content_fnv = util::fnv1a(util::kFnvOffset, text.data(), text.size());

    bool saw_header = false;
    bool saw_records = false;
    bool saw_end = false;
    bool seen_directive[5] = {};  // seed nodes hosts stubs duration
    util::SimTime last_at = 0;
    std::size_t line_no = 0;
    std::size_t pos = 0;

    while (pos <= text.size()) {
        const std::size_t eol = text.find('\n', pos);
        const std::string_view line =
            text.substr(pos, eol == std::string_view::npos ? std::string_view::npos
                                                           : eol - pos);
        pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
        ++line_no;
        if (pos > text.size() && line.empty()) break;  // trailing EOF

        const std::string where =
            std::string(origin) + ":" + std::to_string(line_no);

        if (!saw_header) {
            if (line != "concilium-trace v1") {
                fail(where,
                     "not a workload trace (first line must be "
                     "'concilium-trace v1')");
            }
            saw_header = true;
            continue;
        }

        if (line.empty() || line[0] == '#') continue;
        if (saw_end) fail(where, "content after the 'end' trailer");

        const auto fields = split_fields(line);
        if (fields.empty()) continue;  // whitespace-only line
        const std::string_view kind = fields[0];

        // --- trailer ---------------------------------------------------
        if (kind == "end") {
            if (fields.size() != 2) fail(where, "'end' takes the record count");
            const std::uint64_t count = util::parse_number<std::uint64_t>(
                where, fields[1], 0, UINT64_MAX);
            if (count != wl.records.size()) {
                fail(where, "end trailer says " + std::to_string(count) +
                                " records but " +
                                std::to_string(wl.records.size()) +
                                " were parsed (truncated or edited trace?)");
            }
            saw_end = true;
            continue;
        }

        // --- directives (preamble only) --------------------------------
        const auto directive = [&](int slot) {
            if (saw_records) {
                fail(where, "directive '" + std::string(kind) +
                                "' after the first record");
            }
            if (seen_directive[slot]) {
                fail(where,
                     "duplicate directive '" + std::string(kind) + "'");
            }
            seen_directive[slot] = true;
            if (fields.size() != 2) {
                fail(where, "'" + std::string(kind) + "' takes one value");
            }
        };
        if (kind == "seed") {
            directive(0);
            wl.seed = util::parse_number<std::uint64_t>(
                where, fields[1], 0, UINT64_MAX);
            continue;
        }
        if (kind == "nodes") {
            directive(1);
            wl.overlay_nodes = util::parse_number<std::uint64_t>(
                where, fields[1], 0, UINT64_MAX);
            if (wl.overlay_nodes < 8 || wl.overlay_nodes > 100000) {
                fail(where, "nodes must be in [8, 100000]");
            }
            continue;
        }
        if (kind == "hosts") {
            directive(2);
            wl.end_hosts = util::parse_number<std::uint64_t>(
                where, fields[1], 0, UINT64_MAX);
            if (wl.end_hosts < 16) fail(where, "hosts must be >= 16");
            continue;
        }
        if (kind == "stubs") {
            directive(3);
            wl.stub_domains = util::parse_number<std::uint64_t>(
                where, fields[1], 0, UINT64_MAX);
            if (wl.stub_domains < 2) fail(where, "stubs must be >= 2");
            continue;
        }
        if (kind == "duration") {
            directive(4);
            wl.duration = parse_time(fields[1], where);
            if (wl.duration <= 0) fail(where, "duration must be positive");
            continue;
        }

        // --- records ---------------------------------------------------
        WorkloadRecord rec;
        if (kind == "msg") {
            if (fields.size() != 4) {
                fail(where, "'msg' takes: time member key64");
            }
            rec.kind = RecordKind::kMessage;
            rec.at = parse_time(fields[1], where);
            rec.a = parse_member(fields[2], where, wl.overlay_nodes);
            rec.key = parse_hex64(fields[3], where);
            ++wl.messages;
        } else if (kind == "churn" || kind == "crash") {
            if (fields.size() != 4) {
                fail(where, "'" + std::string(kind) +
                                "' takes: time member down-for");
            }
            rec.kind = kind == "churn" ? RecordKind::kChurn
                                       : RecordKind::kCrash;
            rec.at = parse_time(fields[1], where);
            rec.a = parse_member(fields[2], where, wl.overlay_nodes);
            rec.down = parse_time(fields[3], where);
            if (rec.down <= 0) fail(where, "down-for must be positive");
            ++(kind == "churn" ? wl.churns : wl.crashes);
        } else if (kind == "fault") {
            if (fields.size() != 5) {
                fail(where, "'fault' takes: time member member down-for");
            }
            rec.kind = RecordKind::kFault;
            rec.at = parse_time(fields[1], where);
            rec.a = parse_member(fields[2], where, wl.overlay_nodes);
            rec.b = parse_member(fields[3], where, wl.overlay_nodes);
            rec.down = parse_time(fields[4], where);
            if (rec.down <= 0) fail(where, "down-for must be positive");
            if (rec.a == rec.b) fail(where, "fault endpoints must differ");
            ++wl.faults;
        } else if (kind == "attack") {
            if (fields.size() != 4) {
                fail(where, "'attack' takes: time member role");
            }
            rec.kind = RecordKind::kAttack;
            rec.at = parse_time(fields[1], where);
            rec.a = parse_member(fields[2], where, wl.overlay_nodes);
            rec.role = parse_role(fields[3], where);
            ++wl.attacks;
        } else {
            fail(where, "unknown record kind '" + std::string(kind) + "'");
        }

        if (rec.at < last_at) {
            fail(where, "out-of-order timestamp (records must be sorted)");
        }
        last_at = rec.at;
        saw_records = true;
        wl.records.push_back(rec);
    }

    if (!saw_header) {
        fail(std::string(origin) + ":1",
             "not a workload trace (empty input)");
    }
    if (!saw_end) {
        fail(std::string(origin) + ":" + std::to_string(line_no),
             "missing 'end' trailer (truncated trace?)");
    }
    return wl;
}

Workload Workload::parse_file(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        throw std::invalid_argument(path + ": cannot open trace file");
    }
    std::string text;
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
        text.append(buf, n);
    }
    std::fclose(f);
    return parse(text, path);
}

Workload Workload::parse_file(const std::string& path, util::FaultFs& fs) {
    return parse(fs.read_file(path), path);
}

}  // namespace concilium::daemon
