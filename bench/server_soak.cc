/**
 * @file
 * Server soak: crash-fuzz for the serving layer.
 *
 * The serving-layer contract is that NOTHING between the client and the
 * physics can change a result: not a server kill mid-job, not a restart,
 * not checkpoint resume, not retries, not a transport that drops,
 * corrupts, delays, and tears frames.  This harness enforces it the
 * crash_fuzz way -- by actually doing all of those things at once:
 *
 *  1. Golden: every job's result is computed by a direct, in-process
 *     runGridCell() and encoded with harness::encodeResult (the bytes
 *     reactd serves).
 *  2. Soak: a reactd child (this binary re-exec'd with --serve,
 *     checkpointing to --dir) serves the same jobs to a client whose
 *     transport injects faults on a seeded schedule, while a killer
 *     thread SIGKILLs and restarts the server on its own seeded
 *     schedule.  Cells interrupted mid-run resume from their snapshots
 *     after the restart.
 *  3. Verdict: every job must complete exactly once (no losses, no
 *     duplicates -- ids are idempotent), every result must be
 *     byte-identical to its golden bytes, and a re-fetch after the
 *     chaos must return those same bytes again.  Finally the server is
 *     SIGTERM'd and must drain and exit 0.
 *
 * Usage: server_soak [--jobs N] [--kills N] [--seed S] [--dir PATH]
 *                    [--faults SPEC]
 *        server_soak --serve --socket PATH [--checkpoint-dir DIR]
 *                    [--checkpoint-interval STEPS]   (internal child)
 */

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/grid.hh"
#include "net/client.hh"
#include "net/protocol.hh"
#include "net/server.hh"
#include "util/rng.hh"

namespace {

namespace fs = std::filesystem;
using namespace react;

// ---------------------------------------------------------------------
// Child mode: a fresh single-purpose reactd process.

int
serveMain(int argc, char **argv)
{
    net::ServerConfig config;
    config.threads = 2;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--socket" && value) {
            config.socketPath = value;
            ++i;
        } else if (arg == "--checkpoint-dir" && value) {
            config.checkpointDir = value;
            ++i;
        } else if (arg == "--checkpoint-interval" && value) {
            config.checkpointIntervalSteps =
                std::strtoull(value, nullptr, 10);
            ++i;
        } else {
            std::fprintf(stderr, "server_soak --serve: bad arg '%s'\n",
                         arg.c_str());
            return 2;
        }
    }
    net::Server server(config);
    net::Server::installSignalHandlers(&server);
    return server.serve();
}

// ---------------------------------------------------------------------
// Parent mode: golden run, chaos, verdict.

struct Options
{
    int jobs = 8;
    int kills = 4;
    uint64_t seed = 1;
    std::string dir = "server_soak.tmp";
    std::string faults =
        "drop=0.06,corrupt=0.06,delay=0.05,delayms=2,partial=0.03";
};

std::string
selfExecutable()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0) {
        std::perror("readlink(/proc/self/exe)");
        std::exit(2);
    }
    buf[n] = '\0';
    return std::string(buf);
}

/** The server child process, restartable after kills. */
class ServerProcess
{
  public:
    ServerProcess(std::string exe, std::string socket, std::string ckpt)
        : exePath(std::move(exe)), socketPath(std::move(socket)),
          checkpointDir(std::move(ckpt))
    {
    }

    void start()
    {
        std::lock_guard<std::mutex> g(lock);
        startLocked();
    }

    /** SIGKILL the current incarnation and immediately restart it.
     *  @return false when no child was alive to kill. */
    bool killAndRestart()
    {
        std::lock_guard<std::mutex> g(lock);
        if (pid <= 0)
            return false;
        ::kill(pid, SIGKILL);
        int status = 0;
        ::waitpid(pid, &status, 0);
        pid = -1;
        startLocked();
        return true;
    }

    /** SIGTERM and wait; @return the child's exit status (-1 if it did
     *  not exit normally). */
    int drainAndWait()
    {
        std::lock_guard<std::mutex> g(lock);
        if (pid <= 0)
            return -1;
        ::kill(pid, SIGTERM);
        int status = 0;
        ::waitpid(pid, &status, 0);
        pid = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

  private:
    void startLocked()
    {
        const pid_t child = ::fork();
        if (child < 0) {
            std::perror("fork");
            std::exit(2);
        }
        if (child == 0) {
            ::execl(exePath.c_str(), "server_soak", "--serve",
                    "--socket", socketPath.c_str(), "--checkpoint-dir",
                    checkpointDir.c_str(), "--checkpoint-interval",
                    "2000", static_cast<char *>(nullptr));
            std::perror("execl");
            std::_Exit(2);
        }
        pid = child;
    }

    std::mutex lock;
    pid_t pid = -1;
    std::string exePath;
    std::string socketPath;
    std::string checkpointDir;
};

std::vector<net::JobSpec>
makeJobList(int jobs)
{
    // Cells on the RF traces are quick enough to soak in CI; walk the
    // buffer x benchmark product in a fixed order for a stable job set.
    std::vector<net::JobSpec> specs;
    const trace::PaperTrace traces[2] = {trace::PaperTrace::RfCart,
                                         trace::PaperTrace::RfObstruction};
    for (const auto bench : harness::kAllBenchmarks) {
        for (const auto buffer : harness::kAllBuffers) {
            if (static_cast<int>(specs.size()) >= jobs)
                return specs;
            net::JobSpec spec;
            spec.bench = bench;
            spec.buffer = buffer;
            spec.trace = traces[specs.size() % 2];
            specs.push_back(spec);
        }
    }
    return specs;
}

int
soakMain(const Options &options)
{
    const std::string socket_path =
        "/tmp/react_soak." + std::to_string(::getpid()) + ".sock";
    const fs::path dir(options.dir);
    fs::remove_all(dir);
    fs::create_directories(dir);

    const std::vector<net::JobSpec> specs = makeJobList(options.jobs);

    // Idempotency sanity before any networking: distinct specs must
    // have distinct ids (a collision would silently merge two jobs).
    for (size_t i = 0; i < specs.size(); ++i)
        for (size_t j = i + 1; j < specs.size(); ++j)
            if (specs[i].jobId() == specs[j].jobId()) {
                std::fprintf(stderr, "FAIL: job id collision %zu/%zu\n",
                             i, j);
                return 1;
            }

    std::printf("server_soak: golden pass over %zu cells...\n",
                specs.size());
    harness::prewarmEvaluationTraces();
    std::vector<std::vector<uint8_t>> golden;
    golden.reserve(specs.size());
    for (const auto &spec : specs) {
        const harness::ExperimentResult direct = harness::runGridCell(
            spec.buffer, spec.bench, spec.trace, spec.toConfig(),
            spec.baseSeed);
        golden.push_back(harness::encodeResult(direct));
    }

    ServerProcess server(selfExecutable(), socket_path,
                         (dir / "ckpt").string());
    fs::create_directories(dir / "ckpt");
    server.start();

    // Killer thread: seeded SIGKILL schedule against the live server.
    std::atomic<bool> stop_killer{false};
    std::atomic<int> kills_done{0};
    std::thread killer([&] {
        Rng rng(options.seed ^ 0x6b696c6cULL);
        for (int k = 0; k < options.kills; ++k) {
            const double pause =
                0.04 + 0.16 * rng.uniform();  // 40..200 ms
            const auto deadline = std::chrono::steady_clock::now() +
                std::chrono::duration<double>(pause);
            while (std::chrono::steady_clock::now() < deadline) {
                if (stop_killer.load())
                    return;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
            }
            if (stop_killer.load())
                return;
            if (server.killAndRestart())
                kills_done.fetch_add(1);
        }
    });

    // The client rides through kills, restarts, and its own injected
    // transport faults; generous retries, fast backoff.
    net::ClientConfig client_config;
    client_config.socketPath = socket_path;
    client_config.requestTimeoutMs = 2000;
    client_config.pollIntervalMs = 10;
    client_config.retry.maxRetries = 400;
    client_config.retry.initialBackoffMs = 5.0;
    client_config.retry.maxBackoffMs = 100.0;
    client_config.jitterSeed = options.seed;
    std::string fault_error;
    std::string fault_spec = options.faults;
    if (!fault_spec.empty())
        fault_spec += ",seed=" + std::to_string(options.seed + 17);
    if (!net::FaultPlan::fromSpec(fault_spec, &client_config.faults,
                                  &fault_error)) {
        std::fprintf(stderr, "bad --faults: %s\n", fault_error.c_str());
        return 2;
    }
    net::Client client(client_config);

    int mismatches = 0;
    std::vector<std::vector<uint8_t>> served(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        try {
            const net::JobOutcome outcome = client.runJob(specs[i]);
            served[i] = outcome.resultBytes;
            if (served[i] != golden[i]) {
                ++mismatches;
                std::fprintf(stderr,
                             "FAIL: job %zu (%s) diverged from the "
                             "direct run (%zu vs %zu bytes)\n",
                             i, specs[i].cellKey().c_str(),
                             served[i].size(), golden[i].size());
            }
        } catch (const std::exception &e) {
            ++mismatches;
            std::fprintf(stderr, "FAIL: job %zu (%s) lost: %s\n", i,
                         specs[i].cellKey().c_str(), e.what());
        }
    }

    stop_killer.store(true);
    killer.join();

    // No-duplication check: re-fetching every job after the chaos must
    // return the same bytes (from cache, or bit-identically recomputed
    // by a post-kill server incarnation).
    for (size_t i = 0; i < specs.size(); ++i) {
        try {
            const net::JobOutcome again = client.runJob(specs[i]);
            if (again.resultBytes != golden[i]) {
                ++mismatches;
                std::fprintf(stderr,
                             "FAIL: job %zu re-fetch diverged\n", i);
            }
        } catch (const std::exception &e) {
            ++mismatches;
            std::fprintf(stderr, "FAIL: job %zu re-fetch lost: %s\n", i,
                         e.what());
        }
    }

    // Graceful-drain phase: SIGTERM must end in a clean exit 0.
    const int drain_status = server.drainAndWait();
    if (drain_status != 0) {
        ++mismatches;
        std::fprintf(stderr,
                     "FAIL: drain exit status %d (want 0)\n",
                     drain_status);
    }

    std::printf(
        "server_soak: %zu jobs, %d kills, %" PRIu64
        " retries, %" PRIu64 " reconnects, %" PRIu64
        " injected faults, drain status %d -> %s\n",
        specs.size(), kills_done.load(), client.stats().retries,
        client.stats().reconnects, client.faultCounters().injected(),
        drain_status, mismatches == 0 ? "OK" : "FAIL");

    ::unlink(socket_path.c_str());
    if (mismatches == 0)
        fs::remove_all(dir);
    return mismatches == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--serve") == 0)
        return serveMain(argc, argv);

    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--jobs" && value) {
            options.jobs = std::atoi(value);
            ++i;
        } else if (arg == "--kills" && value) {
            options.kills = std::atoi(value);
            ++i;
        } else if (arg == "--seed" && value) {
            options.seed =
                static_cast<uint64_t>(std::strtoull(value, nullptr, 10));
            ++i;
        } else if (arg == "--dir" && value) {
            options.dir = value;
            ++i;
        } else if (arg == "--faults" && value) {
            options.faults = value;
            ++i;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--jobs N] [--kills N] [--seed S] "
                         "[--dir PATH] [--faults SPEC]\n",
                         argv[0]);
            return 2;
        }
    }
    return soakMain(options);
}
