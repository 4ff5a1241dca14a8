/**
 * @file
 * reactd -- the experiment server daemon.
 *
 *     reactd [--socket PATH] [--threads N] [--checkpoint-dir DIR]
 *            [--checkpoint-interval STEPS] [--idle-timeout-ms MS]
 *
 * Flags override the REACTD_* environment (see ServerConfig::fromEnv).
 * SIGTERM/SIGINT begin a graceful drain: in-flight cells finish (writing
 * their checkpoints when a checkpoint dir is set) and the process exits 0.
 */

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "net/server.hh"

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--socket PATH] [--threads N]\n"
        "          [--checkpoint-dir DIR] [--checkpoint-interval STEPS]\n"
        "          [--idle-timeout-ms MS]\n",
        argv0);
}

bool
parseLong(const char *text, long lo, long hi, long *out)
{
    char *end = nullptr;
    const long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || v < lo || v > hi)
        return false;
    *out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    react::net::ServerConfig config = react::net::ServerConfig::fromEnv();

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        long parsed = 0;
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--socket" && value) {
            config.socketPath = value;
            ++i;
        } else if (arg == "--threads" && value &&
                   parseLong(value, 1, 1 << 16, &parsed)) {
            config.threads = static_cast<int>(parsed);
            ++i;
        } else if (arg == "--checkpoint-dir" && value) {
            config.checkpointDir = value;
            ++i;
        } else if (arg == "--checkpoint-interval" && value &&
                   parseLong(value, 1, LONG_MAX, &parsed)) {
            config.checkpointIntervalSteps =
                static_cast<uint64_t>(parsed);
            ++i;
        } else if (arg == "--idle-timeout-ms" && value &&
                   parseLong(value, 1, 1 << 30, &parsed)) {
            config.idleTimeoutMs = static_cast<int>(parsed);
            ++i;
        } else {
            std::fprintf(stderr, "reactd: bad argument '%s'\n",
                         arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    react::net::Server server(config);
    react::net::Server::installSignalHandlers(&server);
    const int status = server.serve();
    react::net::Server::installSignalHandlers(nullptr);
    return status;
}
