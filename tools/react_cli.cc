/**
 * @file
 * react-cli -- client for the reactd experiment server.
 *
 *     react-cli [options] ping
 *     react-cli [options] run BENCH TRACE BUFFER
 *     react-cli [options] sweep [--bench B] [--trace T] [--buffer K]
 *     react-cli [options] drain
 *
 * options:
 *     --socket PATH    server socket (default /tmp/reactd.sock)
 *     --timeout MS     per-request timeout
 *     --retries N      transient failures tolerated per job
 *     --seed N         base seed for submitted cells
 *     --deadline S     queue-wait deadline per job, seconds
 *     --faults SPEC    transport fault plan, e.g.
 *                      "drop=0.05,corrupt=0.05,seed=7"
 *
 * Names are the paper's display names ("DE", "RF Cart", "REACT", ...);
 * an unknown name lists the valid ones.  `run` prints one result,
 * `sweep` a table over the (filtered) evaluation grid; retries are
 * idempotent so a flaky transport can slow a sweep but never corrupt it.
 *
 * Exit codes (scripts and the soak harness branch on these):
 *     0  success
 *     1  the job itself failed on the server
 *     2  usage error (bad flags, unknown cell name)
 *     4  transport failure (cannot reach / keep a session to the server)
 *     5  the job's queue-wait deadline expired on the server
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/grid.hh"
#include "harness/paper_setup.hh"
#include "net/client.hh"
#include "trace/paper_traces.hh"

namespace {

using react::harness::BenchmarkKind;
using react::harness::BufferKind;
using react::trace::PaperTrace;

// Exit codes; keep in sync with the file comment.
constexpr int kExitOk = 0;
constexpr int kExitJobFailed = 1;
constexpr int kExitUsage = 2;
constexpr int kExitTransport = 4;
constexpr int kExitDeadline = 5;

/** Map a client error to the documented exit code. */
int
exitCodeFor(const react::net::ClientError &e)
{
    switch (e.kind) {
    case react::net::ClientError::Kind::DeadlineExpired:
        return kExitDeadline;
    case react::net::ClientError::Kind::JobFailed:
        return kExitJobFailed;
    case react::net::ClientError::Kind::Transport:
        break;
    }
    return kExitTransport;
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--socket PATH] [--timeout MS] [--retries N]\n"
        "          [--seed N] [--deadline S] [--faults SPEC]\n"
        "          ping | run BENCH TRACE BUFFER |\n"
        "          sweep [--bench B] [--trace T] [--buffer K] | drain\n",
        argv0);
}

void
listNames()
{
    std::fprintf(stderr, "  benchmarks:");
    for (const auto kind : react::harness::kAllBenchmarks)
        std::fprintf(stderr, " '%s'",
                     react::harness::benchmarkKindName(kind).c_str());
    std::fprintf(stderr, "\n  traces:");
    for (const auto kind : react::trace::kAllPaperTraces)
        std::fprintf(stderr, " '%s'",
                     react::trace::paperTraceName(kind).c_str());
    std::fprintf(stderr, "\n  buffers:");
    for (const auto kind : react::harness::kAllBuffers)
        std::fprintf(stderr, " '%s'",
                     react::harness::bufferKindName(kind).c_str());
    std::fprintf(stderr, "\n");
}

void
printResult(const react::net::JobOutcome &outcome)
{
    const react::harness::ExperimentResult &res = outcome.result;
    std::printf("cell:           %s:%s:%s\n", res.benchmarkName.c_str(),
                res.traceName.c_str(), res.bufferName.c_str());
    std::printf("job id:         %016llx\n",
                static_cast<unsigned long long>(outcome.jobId));
    if (res.latency >= 0.0)
        std::printf("latency:        %.3f s\n", res.latency);
    else
        std::printf("latency:        - (never started)\n");
    std::printf("on time:        %.3f s of %.3f s (duty %.1f%%)\n",
                res.onTime, res.totalTime, 100.0 * res.dutyCycle());
    std::printf("power cycles:   %llu\n",
                static_cast<unsigned long long>(res.powerCycles));
    std::printf("work units:     %llu\n",
                static_cast<unsigned long long>(res.workUnits));
    std::printf("state digest:   %08x\n", res.stateDigest);
}

int
runSweep(react::net::Client *client, const react::net::JobSpec &base,
         const std::string &bench_filter, const std::string &trace_filter,
         const std::string &buffer_filter)
{
    std::printf("%-5s %-10s %-9s %10s %10s %8s %10s\n", "bench", "trace",
                "buffer", "latency", "on time", "duty%", "digest");
    int failures = 0;
    for (const auto bench : react::harness::kAllBenchmarks) {
        const std::string bench_name =
            react::harness::benchmarkKindName(bench);
        if (!bench_filter.empty() && bench_filter != bench_name)
            continue;
        for (const auto trace : react::trace::kAllPaperTraces) {
            const std::string trace_name =
                react::trace::paperTraceName(trace);
            if (!trace_filter.empty() && trace_filter != trace_name)
                continue;
            for (const auto buffer : react::harness::kAllBuffers) {
                const std::string buffer_name =
                    react::harness::bufferKindName(buffer);
                if (!buffer_filter.empty() &&
                    buffer_filter != buffer_name)
                    continue;
                react::net::JobSpec spec = base;
                spec.bench = bench;
                spec.trace = trace;
                spec.buffer = buffer;
                try {
                    const react::net::JobOutcome outcome =
                        client->runJob(spec);
                    const auto &res = outcome.result;
                    std::printf(
                        "%-5s %-10s %-9s %10.3f %10.3f %8.1f   %08x\n",
                        bench_name.c_str(), trace_name.c_str(),
                        buffer_name.c_str(), res.latency, res.onTime,
                        100.0 * res.dutyCycle(), res.stateDigest);
                } catch (const react::net::ClientError &e) {
                    ++failures;
                    std::printf("%-5s %-10s %-9s  FAILED: %s\n",
                                bench_name.c_str(), trace_name.c_str(),
                                buffer_name.c_str(), e.what());
                }
                std::fflush(stdout);
            }
        }
    }
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    react::net::ClientConfig config;
    react::net::JobSpec base_spec;
    std::vector<std::string> positional;
    std::string bench_filter, trace_filter, buffer_filter;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            listNames();
            return 0;
        } else if (arg == "--socket" && value) {
            config.socketPath = value;
            ++i;
        } else if (arg == "--timeout" && value) {
            config.requestTimeoutMs = std::atoi(value);
            ++i;
        } else if (arg == "--retries" && value) {
            config.retry.maxRetries = std::atoi(value);
            ++i;
        } else if (arg == "--seed" && value) {
            base_spec.baseSeed =
                static_cast<uint64_t>(std::strtoull(value, nullptr, 10));
            ++i;
        } else if (arg == "--deadline" && value) {
            base_spec.deadlineSeconds = std::atof(value);
            ++i;
        } else if (arg == "--faults" && value) {
            std::string error;
            if (!react::net::FaultPlan::fromSpec(value, &config.faults,
                                                 &error)) {
                std::fprintf(stderr, "react-cli: bad --faults: %s\n",
                             error.c_str());
                return 2;
            }
            ++i;
        } else if (arg == "--bench" && value) {
            bench_filter = value;
            ++i;
        } else if (arg == "--trace" && value) {
            trace_filter = value;
            ++i;
        } else if (arg == "--buffer" && value) {
            buffer_filter = value;
            ++i;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "react-cli: bad argument '%s'\n",
                         arg.c_str());
            usage(argv[0]);
            return 2;
        } else {
            positional.push_back(arg);
        }
    }

    if (positional.empty()) {
        usage(argv[0]);
        return kExitUsage;
    }
    const std::string &command = positional[0];
    react::net::Client client(config);

    try {
        if (command == "ping") {
            if (!client.ping()) {
                std::fprintf(stderr, "react-cli: no pong from %s\n",
                             config.socketPath.c_str());
                return kExitTransport;
            }
            std::printf("pong from %s\n", config.socketPath.c_str());
            return kExitOk;
        }
        if (command == "drain") {
            const uint32_t in_flight = client.drain();
            std::printf("draining; %u job(s) in flight\n", in_flight);
            return kExitOk;
        }
        if (command == "run") {
            if (positional.size() != 4) {
                usage(argv[0]);
                return kExitUsage;
            }
            react::net::JobSpec spec = base_spec;
            if (!react::harness::parseBenchmarkKind(positional[1],
                                                    &spec.bench) ||
                !react::harness::parsePaperTrace(positional[2],
                                                 &spec.trace) ||
                !react::harness::parseBufferKind(positional[3],
                                                 &spec.buffer)) {
                std::fprintf(stderr, "react-cli: unknown cell name\n");
                listNames();
                return kExitUsage;
            }
            printResult(client.runJob(spec));
            return kExitOk;
        }
        if (command == "sweep") {
            return runSweep(&client, base_spec, bench_filter,
                            trace_filter, buffer_filter);
        }
    } catch (const react::net::ClientError &e) {
        std::fprintf(stderr, "react-cli: %s\n", e.what());
        return exitCodeFor(e);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "react-cli: %s\n", e.what());
        return kExitTransport;
    }

    std::fprintf(stderr, "react-cli: unknown command '%s'\n",
                 command.c_str());
    usage(argv[0]);
    return kExitUsage;
}
