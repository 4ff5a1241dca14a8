/**
 * @file
 * react-cli exit-code contract, tested against the real binary: scripts
 * (and the soak harnesses) branch on these, so each documented code is
 * pinned by fork+exec'ing react-cli at an in-process server and
 * asserting the raw wait status.
 *
 *     0 success | 1 job failed | 2 usage | 4 transport |
 *     5 deadline expired
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/parallel_runner.hh"
#include "net/client.hh"
#include "net/server.hh"

#ifndef REACT_CLI_BIN
#error "REACT_CLI_BIN must point at the react-cli binary"
#endif

namespace react {
namespace net {
namespace {

/** fork+exec react-cli with @p args; @return its exit code (-1 if it
 *  died on a signal). */
int
runCli(const std::vector<std::string> &args)
{
    std::vector<std::string> argv_store;
    argv_store.push_back(REACT_CLI_BIN);
    for (const auto &arg : args)
        argv_store.push_back(arg);
    std::vector<char *> argv;
    argv.reserve(argv_store.size() + 1);
    for (auto &arg : argv_store)
        argv.push_back(arg.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0)
        return -1;
    if (pid == 0) {
        // Quiet child: the parent asserts on status, not output.
        ::freopen("/dev/null", "w", stdout);
        ::freopen("/dev/null", "w", stderr);
        ::execv(argv[0], argv.data());
        std::_Exit(127);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

class CliExitCodes : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        harness::ParallelRunner::clearStopRequest();
    }

    void TearDown() override
    {
        stopServer();
        harness::ParallelRunner::clearStopRequest();
    }

    std::string startServer()
    {
        ServerConfig config;
        config.socketPath =
            (std::filesystem::temp_directory_path() /
             ("react_test_cli." + std::to_string(::getpid()) + ".sock"))
                .string();
        config.threads = 1;
        server = std::make_unique<Server>(config);
        thread = std::thread([this] { server->serve(); });
        ClientConfig probe;
        probe.socketPath = config.socketPath;
        Client pinger(probe);
        bool up = false;
        for (int i = 0; i < 500 && !(up = pinger.ping()); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        EXPECT_TRUE(up);
        return config.socketPath;
    }

    void stopServer()
    {
        if (server)
            server->requestDrain();
        if (thread.joinable())
            thread.join();
        server.reset();
    }

    std::unique_ptr<Server> server;
    std::thread thread;
};

TEST_F(CliExitCodes, SuccessIsZero)
{
    const std::string path = startServer();
    EXPECT_EQ(runCli({"--socket", path, "ping"}), 0);
    EXPECT_EQ(runCli({"--socket", path, "run", "DE", "RF Cart",
                      "REACT"}),
              0);
}

TEST_F(CliExitCodes, UsageErrorsAreTwo)
{
    EXPECT_EQ(runCli({}), 2);
    EXPECT_EQ(runCli({"--bogus-flag", "x", "ping"}), 2);
    const std::string path = startServer();
    EXPECT_EQ(runCli({"--socket", path, "run", "NoSuchBench",
                      "RF Cart", "REACT"}),
              2);
}

TEST_F(CliExitCodes, TransportFailureIsFour)
{
    // Nobody listens here; the connect fails immediately.
    EXPECT_EQ(runCli({"--socket", "/nonexistent/reactd.sock", "--retries",
                      "0", "--timeout", "500", "run", "DE", "RF Cart",
                      "REACT"}),
              4);
}

TEST_F(CliExitCodes, DeadlineExpiryIsFive)
{
    const std::string path = startServer();
    // A queue-wait deadline that lapses before any dispatch: the server
    // expires the job and the CLI must distinguish that from transport
    // loss (4) and from a failed run (1).
    EXPECT_EQ(runCli({"--socket", path, "--deadline", "1e-9",
                      "run", "DE", "RF Cart", "REACT"}),
              5);
}

} // namespace
} // namespace net
} // namespace react
