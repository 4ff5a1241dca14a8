/**
 * @file
 * Concurrency-stress suite: the shared-mutable surfaces of the tree
 * exercised with real thread contention, sized for the ThreadSanitizer
 * lane (`cmake --preset tsan`).  Under TSan every test here runs with
 * full happens-before checking; in the plain suite the same tests serve
 * as determinism/integrity regressions.  Every assertion is exact --
 * nothing in here depends on timing, only on the contract that thread
 * count and interleaving never change observable bytes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "harness/parallel_runner.hh"
#include "mcu/event_queue.hh"
#include "snapshot/snapshot.hh"
#include "util/rng.hh"

namespace react {
namespace {

constexpr int kThreads = 8;

/** Deterministic per-cell workload: a seeded RNG chain whose result
 *  depends only on the cell label, never on scheduling. */
double
chainValue(uint64_t base_seed, const std::string &label, int draws)
{
    Rng rng(harness::cellSeed(base_seed, label));
    double acc = 0.0;
    for (int i = 0; i < draws; ++i)
        acc += rng.uniform();
    return acc;
}

TEST(ConcurrencyRunner, EightThreadsMatchSerialBitExact)
{
    constexpr int kCells = 64;
    constexpr uint64_t kBase = 0x5eedu;

    auto sweep = [&](int threads) {
        std::vector<double> out(kCells, 0.0);
        harness::ParallelRunner runner(threads);
        runner.setSignalPolicy(harness::SignalPolicy::External);
        for (int i = 0; i < kCells; ++i) {
            const std::string label = "cell:" + std::to_string(i);
            // Uneven draw counts force the work-stealing path.
            const int draws = 100 + (i * 37) % 503;
            runner.submit(label, [&out, i, label, draws] {
                out[static_cast<size_t>(i)] =
                    chainValue(kBase, label, draws);
            });
        }
        runner.run();
        EXPECT_EQ(runner.executedCells(), static_cast<size_t>(kCells));
        return out;
    };

    const std::vector<double> serial = sweep(1);
    const std::vector<double> parallel = sweep(kThreads);
    ASSERT_EQ(serial.size(), parallel.size());
    // Bit-exact, not approximately equal: the determinism contract.
    EXPECT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                             serial.size() * sizeof(double)));
}

TEST(ConcurrencyRunner, EveryCellExecutesExactlyOnceUnderStealing)
{
    constexpr int kCells = 200;
    std::vector<std::atomic<int>> executions(kCells);
    harness::ParallelRunner runner(kThreads);
    runner.setSignalPolicy(harness::SignalPolicy::External);
    for (int i = 0; i < kCells; ++i) {
        runner.submit("count:" + std::to_string(i), [&executions, i] {
            executions[static_cast<size_t>(i)].fetch_add(1);
        });
    }
    runner.run();
    EXPECT_EQ(runner.executedCells(), static_cast<size_t>(kCells));
    for (int i = 0; i < kCells; ++i)
        EXPECT_EQ(executions[static_cast<size_t>(i)].load(), 1)
            << "cell " << i;
}

TEST(ConcurrencyRunner, StopFlagSafeUnderConcurrentRequesters)
{
    harness::ParallelRunner::clearStopRequest();
    constexpr int kCells = 64;
    std::vector<std::atomic<int>> executions(kCells);
    harness::ParallelRunner runner(kThreads);
    runner.setSignalPolicy(harness::SignalPolicy::External);
    for (int i = 0; i < kCells; ++i) {
        runner.submit("stop:" + std::to_string(i), [&executions, i] {
            // Enough work that requesters overlap the batch.
            volatile double sink = chainValue(7u, "stop-cell", 400);
            (void)sink;
            executions[static_cast<size_t>(i)].fetch_add(1);
        });
    }

    std::vector<std::thread> requesters;
    for (int t = 0; t < 4; ++t) {
        requesters.emplace_back([] {
            for (int k = 0; k < 100; ++k) {
                harness::ParallelRunner::requestStop();
                (void)harness::ParallelRunner::stopRequested();
            }
        });
    }
    runner.run();
    for (auto &t : requesters)
        t.join();

    // The drain contract: dispatched cells ran exactly once, undispatched
    // cells not at all, and the executed count agrees with the slots.
    size_t ran = 0;
    for (int i = 0; i < kCells; ++i) {
        const int n = executions[static_cast<size_t>(i)].load();
        EXPECT_TRUE(n == 0 || n == 1) << "cell " << i << " ran " << n;
        ran += static_cast<size_t>(n);
    }
    EXPECT_EQ(runner.executedCells(), ran);
    // Either the stop landed mid-batch (a real drain) or the batch beat
    // every requester to completion; both satisfy the contract, and
    // anything else (interrupted with a full count mismatch, or an
    // uninterrupted partial batch) fails.
    EXPECT_TRUE(runner.interrupted() ||
                ran == static_cast<size_t>(kCells));
    harness::ParallelRunner::clearStopRequest();
}

/** FNV-1a digest of an event queue's full delivery sequence. */
uint64_t
drainDigest(mcu::EventQueue &q)
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    double when = 0.0;
    uint64_t id = 0;
    while (q.consumeNext(1e18, &when, &id)) {
        uint64_t bits;
        std::memcpy(&bits, &when, sizeof bits);
        mix(bits);
        mix(id);
    }
    return h;
}

TEST(ConcurrencyEventQueue, PerThreadInstancesShareNothing)
{
    // Each thread owns its queue and RNG; TSan proves there is no hidden
    // global coupling, and the digests prove thread placement does not
    // change any delivery sequence.
    auto build_digest = [](int t) {
        Rng rng(1000u + static_cast<uint64_t>(t));
        mcu::EventQueue q =
            mcu::EventQueue::poisson(0.05, 40.0, rng);
        q.push(1.25 * t);  // runtime insertion under the FIFO tie-break
        q.push(1.25 * t);
        return drainDigest(q);
    };

    std::vector<uint64_t> threaded(kThreads, 0u);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&threaded, t, &build_digest] {
            threaded[static_cast<size_t>(t)] = build_digest(t);
        });
    for (auto &w : workers)
        w.join();

    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(threaded[static_cast<size_t>(t)], build_digest(t))
            << "thread " << t;
}

std::vector<uint8_t>
snapshotImage(int thread_idx, int round)
{
    snapshot::SnapshotWriter w;
    w.beginSection("concurrency");
    w.u64(static_cast<uint64_t>(thread_idx));
    w.u64(static_cast<uint64_t>(round));
    w.f64(1.0 / (1 + thread_idx + round));
    w.str("thread " + std::to_string(thread_idx));
    w.endSection();
    return w.finish();
}

TEST(ConcurrencySnapshot, RotationFromEightThreadsOnDistinctFiles)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() /
        ("react_tsan_ckpt." + std::to_string(::getpid()));
    fs::create_directories(dir);

    constexpr int kRounds = 6;
    std::vector<std::string> failures(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&failures, &dir, t] {
            const std::string path =
                (dir / ("snap." + std::to_string(t) + ".bin")).string();
            for (int round = 0; round < kRounds; ++round) {
                std::string err;
                if (!snapshot::saveSnapshotFile(
                        path, snapshotImage(t, round), &err)) {
                    failures[static_cast<size_t>(t)] = err;
                    return;
                }
                const snapshot::SnapshotLoad load =
                    snapshot::loadSnapshotFile(path);
                if (!load.ok || load.usedFallback ||
                    load.image != snapshotImage(t, round)) {
                    failures[static_cast<size_t>(t)] =
                        "round " + std::to_string(round) + ": " +
                        load.diagnostic;
                    return;
                }
            }
        });
    }
    for (auto &w : workers)
        w.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(failures[static_cast<size_t>(t)], "") << "thread " << t;

    // The rotation kept the previous generation: damage every primary
    // and each thread's .prev must still load.
    for (int t = 0; t < kThreads; ++t) {
        const std::string path =
            (dir / ("snap." + std::to_string(t) + ".bin")).string();
        std::filesystem::resize_file(path, 3);  // truncate -> CRC fails
        const snapshot::SnapshotLoad load =
            snapshot::loadSnapshotFile(path);
        EXPECT_TRUE(load.ok) << load.diagnostic;
        EXPECT_TRUE(load.usedFallback);
        EXPECT_EQ(load.image, snapshotImage(t, kRounds - 2));
    }
    fs::remove_all(dir);
}

} // namespace
} // namespace react
