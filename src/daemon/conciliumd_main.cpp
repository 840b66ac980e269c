// conciliumd: the Concilium protocol as a long-running service (DAEMON.md).
//
//   conciliumd --trace workload.trace [--checkpoint-dir DIR] [--http-port N]
//
// Streams the trace through a runtime::Cluster, cuts periodic checkpoints,
// and serves /metrics, /metrics.json, /healthz, and /spans while running.
// SIGTERM/SIGINT checkpoint and exit cleanly; SIGKILL loses nothing that
// matters -- the next start on the same checkpoint directory replays and
// resumes, byte-identical to a run that was never interrupted.

#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "daemon/daemon.h"
#include "daemon/http.h"
#include "daemon/workload.h"
#include "util/metrics.h"
#include "util/rate_spec.h"
#include "util/spans.h"

namespace {

using namespace concilium;

std::atomic<bool> g_stop{false};

void on_signal(int /*sig*/) { g_stop.store(true, std::memory_order_relaxed); }

int usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s --trace FILE [options]\n"
        "  --trace FILE            workload trace (required; see DAEMON.md)\n"
        "  --checkpoint-dir DIR    write periodic checkpoints; resume from\n"
        "                          the newest one on start\n"
        "  --checkpoint-every-sec N   checkpoint cadence in sim seconds "
        "(default 600)\n"
        "  --tick-sec N            loop tick in sim seconds (default 30)\n"
        "  --settle-sec N          post-trace settle time (default 300)\n"
        "  --pace-ms N             wall sleep per live tick (default 0)\n"
        "  --http-port N           serve /metrics /metrics.json /healthz\n"
        "                          /spans on 127.0.0.1:N (0 = ephemeral)\n"
        "  --port-file FILE        write the bound port (for ephemeral)\n"
        "  --state-out FILE        final state text (checkpoint format)\n"
        "  --metrics-out FILE      final metrics snapshot JSON\n"
        "  --spans-out FILE        Chrome trace JSON of recorded spans\n"
        "  --checkpoint-keep N     retain only the newest N checkpoints\n"
        "                          (default 0 = keep all)\n"
        "  --io-faults SPEC        inject storage faults at the given\n"
        "                          per-site rates, e.g. eio:0.01,short:0.01,\n"
        "                          torn_rename:0.005,bitrot:0.001,\n"
        "                          enospc:0.002\n"
        "  --io-faults-seed N      fault-schedule seed (default 0)\n"
        "  --io-fault-at SITE:KIND inject exactly one fault at global I/O\n"
        "                          site SITE (kinds above plus 'crash')\n"
        "  --io-ops-out FILE       write the final I/O site count (for the\n"
        "                          crashpoint sweep to enumerate sites)\n",
        argv0);
    return 2;
}

bool write_file(const std::string& path, const std::string& text) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) ==
                    text.size();
    std::fclose(f);
    return ok;
}

}  // namespace

int main(int argc, char** argv) {
    std::string trace_path;
    std::string checkpoint_dir;
    std::string state_out;
    std::string metrics_out;
    std::string spans_out;
    std::string port_file;
    std::string io_faults_text;
    std::string io_fault_at;
    std::string io_ops_out;
    std::uint64_t io_faults_seed = 0;
    std::optional<std::uint16_t> http_port;  // empty = no server
    int pace_ms = 0;
    daemon::DaemonOptions opts;

    // The most whole sim seconds a SimTime (in microseconds) can hold.
    constexpr std::uint64_t kMaxSeconds = INT64_MAX / util::kSecond;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const auto value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "conciliumd: %s needs a value\n",
                             argv[i]);
                std::exit(2);
            }
            return argv[++i];
        };
        const auto count = [&](std::uint64_t lo, std::uint64_t hi) {
            try {
                return util::parse_number(arg, value(), lo, hi);
            } catch (const std::invalid_argument& e) {
                std::fprintf(stderr, "conciliumd: %s\n", e.what());
                std::exit(usage(argv[0]));
            }
        };
        const auto seconds = [&](std::uint64_t lo) {
            return static_cast<util::SimTime>(count(lo, kMaxSeconds)) *
                   util::kSecond;
        };
        if (arg == "--trace") {
            trace_path = value();
        } else if (arg == "--checkpoint-dir") {
            checkpoint_dir = value();
        } else if (arg == "--checkpoint-every-sec") {
            opts.checkpoint_every = seconds(1);
        } else if (arg == "--tick-sec") {
            opts.tick = seconds(1);
        } else if (arg == "--settle-sec") {
            opts.settle = seconds(0);
        } else if (arg == "--pace-ms") {
            pace_ms = static_cast<int>(count(0, INT_MAX));
        } else if (arg == "--http-port") {
            http_port = static_cast<std::uint16_t>(count(0, UINT16_MAX));
        } else if (arg == "--port-file") {
            port_file = value();
        } else if (arg == "--state-out") {
            state_out = value();
        } else if (arg == "--metrics-out") {
            metrics_out = value();
        } else if (arg == "--spans-out") {
            spans_out = value();
        } else if (arg == "--checkpoint-keep") {
            opts.checkpoint_keep = count(0, SIZE_MAX);
        } else if (arg == "--io-faults") {
            io_faults_text = value();
        } else if (arg == "--io-faults-seed") {
            io_faults_seed = count(0, UINT64_MAX);
        } else if (arg == "--io-fault-at") {
            io_fault_at = value();
        } else if (arg == "--io-ops-out") {
            io_ops_out = value();
        } else if (arg == "--help" || arg == "-h") {
            return usage(argv[0]);
        } else {
            std::fprintf(stderr, "conciliumd: unknown flag %s\n", argv[i]);
            return usage(argv[0]);
        }
    }
    if (trace_path.empty()) {
        std::fprintf(stderr, "conciliumd: --trace is required\n");
        return usage(argv[0]);
    }

    util::spans::Recorder::global().enable();

    // The storage seam is built before the first file is touched so the
    // trace read, every checkpoint load, and every checkpoint write share
    // one deterministic fault schedule (site indices are global).
    std::shared_ptr<util::FaultFs> io;
    try {
        io = std::make_shared<util::FaultFs>(
            util::IoFaultSpec::parse(io_faults_text, io_faults_seed));
        if (!io_fault_at.empty()) io->arm_one_shot(io_fault_at);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "conciliumd: %s\n", e.what());
        return 2;
    }

    // Strict parse first: a malformed trace must fail fast, before any
    // world building, with the offending line on stderr.
    daemon::Workload workload;
    try {
        workload = daemon::Workload::parse_file(trace_path, *io);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "conciliumd: bad trace: %s\n", e.what());
        return 1;
    }

    opts.checkpoint_dir = checkpoint_dir;
    opts.io = io;
    std::unique_ptr<daemon::Daemon> daemon_ptr;
    try {
        daemon_ptr = std::make_unique<daemon::Daemon>(std::move(workload),
                                                      std::move(opts));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "conciliumd: %s\n", e.what());
        return 1;
    }
    daemon::Daemon& d = *daemon_ptr;

    // Quarantine and degradation notices must reach the operator; they go
    // to stderr as they appear.
    std::size_t notes_printed = 0;
    const auto flush_io_notes = [&] {
        const auto& notes = d.io_notes();
        for (; notes_printed < notes.size(); ++notes_printed) {
            std::fprintf(stderr, "conciliumd: %s\n",
                         notes[notes_printed].c_str());
        }
    };
    flush_io_notes();

    daemon::HttpServer server;
    if (http_port.has_value()) {
        daemon::HttpServer::Handlers handlers;
        handlers.metrics_text = [] {
            return util::metrics::Registry::global().snapshot().to_text();
        };
        handlers.metrics_json = [] {
            return util::metrics::Registry::global().snapshot().to_json();
        };
        handlers.health = [&d] { return d.health_text(); };
        handlers.spans = [] {
            return util::spans::Recorder::global().to_chrome_json();
        };
        try {
            server.start(*http_port, std::move(handlers));
        } catch (const std::exception& e) {
            std::fprintf(stderr, "conciliumd: %s\n", e.what());
            return 1;
        }
        if (!port_file.empty() &&
            !write_file(port_file, std::to_string(server.port()) + "\n")) {
            std::fprintf(stderr, "conciliumd: cannot write %s\n",
                         port_file.c_str());
            return 1;
        }
        std::printf("conciliumd: listening on 127.0.0.1:%u\n",
                    static_cast<unsigned>(server.port()));
        std::fflush(stdout);
    }

    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);

    if (d.resumed()) {
        std::printf("conciliumd: resuming -- replaying to sim clock\n");
        std::fflush(stdout);
    }

    bool finished = false;
    try {
        finished = d.run(&g_stop, pace_ms);
    } catch (const std::exception& e) {
        flush_io_notes();
        std::fprintf(stderr, "conciliumd: %s\n", e.what());
        return 1;
    }
    flush_io_notes();

    server.stop();

    if (!io_ops_out.empty() &&
        !write_file(io_ops_out, std::to_string(d.io().ops()) + "\n")) {
        std::fprintf(stderr, "conciliumd: cannot write %s\n",
                     io_ops_out.c_str());
        return 1;
    }

    if (!metrics_out.empty() &&
        !write_file(metrics_out,
                    util::metrics::Registry::global().snapshot().to_json())) {
        std::fprintf(stderr, "conciliumd: cannot write %s\n",
                     metrics_out.c_str());
        return 1;
    }
    if (!spans_out.empty() &&
        !write_file(spans_out,
                    util::spans::Recorder::global().to_chrome_json())) {
        std::fprintf(stderr, "conciliumd: cannot write %s\n",
                     spans_out.c_str());
        return 1;
    }

    if (!finished) {
        std::printf("conciliumd: stopped at sim clock %lldus (%s)\n",
                    static_cast<long long>(d.clock()),
                    d.io_degraded() ? "checkpointing degraded, NOT saved"
                                    : "checkpointed");
        return 0;
    }

    if (!state_out.empty() && !write_file(state_out, d.state_text())) {
        std::fprintf(stderr, "conciliumd: cannot write %s\n",
                     state_out.c_str());
        return 1;
    }

    const auto& score = d.score();
    std::printf(
        "conciliumd: done  sim=%llds fed=%llu delivered=%llu diagnosed=%llu "
        "false_acc=%llu correct=%llu insufficient=%llu orphans=%llu\n",
        static_cast<long long>(d.clock() / util::kSecond),
        static_cast<unsigned long long>(score.fed),
        static_cast<unsigned long long>(score.delivered),
        static_cast<unsigned long long>(score.diagnosed),
        static_cast<unsigned long long>(score.false_accusations),
        static_cast<unsigned long long>(score.correct_attributions),
        static_cast<unsigned long long>(score.insufficient),
        static_cast<unsigned long long>(score.orphans()));
    if (d.io_degraded()) {
        std::printf(
            "conciliumd: WARNING run finished io-degraded -- checkpoint "
            "writes were disarmed after exhausting the retry budget\n");
    }
    return 0;
}
