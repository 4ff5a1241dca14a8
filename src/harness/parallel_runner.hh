/**
 * @file
 * Deterministic parallel experiment engine.
 *
 * The paper evaluation is an embarrassingly parallel grid of independent
 * (buffer config x trace x seed) simulation *cells*, but reproducibility
 * demands that parallelism never leak into the physics: a sweep run on
 * one thread and on sixteen must produce bit-identical results.  The
 * runner enforces the two rules that make that true:
 *
 *  1. Every cell is a self-contained closure writing to its own result
 *     slot.  Cells share nothing mutable; the runner only schedules.
 *  2. Randomness is seeded from the *cell key* (a stable string naming
 *     the cell, see cellSeed()), never from thread identity, scheduling
 *     order, time, or any other execution accident.
 *
 * Scheduling is work-stealing: cells are dealt round-robin onto per-
 * worker deques at submission time (a deterministic assignment), each
 * worker drains its own deque from the front and steals from the back of
 * its neighbours' when empty, so one long cell cannot strand the sweep
 * behind an idle core.  With one thread the runner degrades to an inline
 * serial loop in submission order -- the reference execution that the
 * determinism suite compares against.
 */

#ifndef REACT_HARNESS_PARALLEL_RUNNER_HH
#define REACT_HARNESS_PARALLEL_RUNNER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace react {
namespace harness {

/**
 * Derive a deterministic RNG seed from a stable cell identity.
 *
 * The key should name the cell the way a person would ("table2:DE:RF
 * Cart:REACT"), so the same cell gets the same stream in every sweep,
 * any thread count, any submission order -- and two different cells get
 * statistically unrelated streams.  FNV-1a over the key, avalanched
 * together with the caller's base seed via splitmix64 finalizers.
 */
uint64_t cellSeed(uint64_t base_seed, std::string_view cell_key);

/** Wall-clock accounting for one executed cell. */
struct CellTiming
{
    /** Display label the cell was submitted under. */
    std::string label;
    /** Wall seconds the cell's closure ran for. */
    double seconds = 0.0;
};

/**
 * How a runner reacts to SIGINT/SIGTERM during run().
 *
 * Either way the batch *drains gracefully*: no new cells are dispatched
 * once the stop flag is up, in-flight cells run to completion (writing
 * their checkpoints when REACT_CHECKPOINT_DIR is set), and the pool
 * joins cleanly.  The policies differ only in who owns the process
 * afterwards.
 */
enum class SignalPolicy
{
    /**
     * Default for command-line sweeps: run() installs SIGINT/SIGTERM
     * handlers for its duration and, if a signal arrived, exits the
     * process with kInterruptedExitStatus after the drain -- so a
     * partially-swept bench never writes a truncated CSV artifact.
     */
    ExitAfterDrain,
    /**
     * For hosts that own the process's signals (the in-process drain
     * tests): no handlers are installed and run() simply returns after
     * the drain; the host consults interrupted() and decides what to
     * do.  The host raises the stop flag itself via requestStop().
     */
    External,
};

/** Work-stealing scheduler for independent simulation cells. */
class ParallelRunner
{
  public:
    /** Exit status of a sweep that drained after SIGINT/SIGTERM
     *  (distinct from success, crash-hook kills, and sanitizer
     *  failures). */
    static constexpr int kInterruptedExitStatus = 75;

    /**
     * @param threads Worker count; 0 picks defaultThreadCount().  One
     *        worker executes inline (no thread is spawned).
     */
    explicit ParallelRunner(int threads = 0);

    /**
     * Thread count used when the constructor is given 0: the REACT_THREADS
     * environment variable when set to a positive integer, otherwise
     * std::thread::hardware_concurrency (at least 1).
     */
    static int defaultThreadCount();

    /** Number of workers this runner executes with. */
    int threadCount() const { return nThreads; }

    /**
     * Submit one cell.  The closure must be independent of every other
     * submitted cell (no shared mutable state) and deterministic given
     * its captures; it typically writes into a caller-owned result slot.
     *
     * @param label Display/timing label (stable, human-readable).
     * @param fn Cell body.
     * @return Submission index (also the index into timings()).
     */
    size_t submit(std::string label, std::function<void()> fn);

    /**
     * Execute every submitted cell and block until all complete.  The
     * first exception thrown by a cell is rethrown here after the pool
     * drains.  The runner may be reused: cells submitted after run()
     * form a new batch.
     */
    void run();

    /** Wall seconds of the last run() (scheduling included). */
    double wallSeconds() const { return lastWallSeconds; }

    /** Per-cell wall timings of the last run(), in submission order. */
    const std::vector<CellTiming> &timings() const { return cellTimings; }

    /** Sum of per-cell wall seconds of the last run() (the serial-
     *  equivalent work content). */
    double busySeconds() const;

    /** Select the SIGINT/SIGTERM behaviour (default ExitAfterDrain). */
    void setSignalPolicy(SignalPolicy policy) { signalPolicy = policy; }

    /**
     * Raise the process-wide stop flag: every running batch (in this or
     * any other runner) stops dispatching new cells and drains its
     * in-flight ones.  Async-signal-safe; this is exactly what the
     * installed handlers call.
     */
    static void requestStop();

    /** Whether the process-wide stop flag is up. */
    static bool stopRequested();

    /** Lower the stop flag (External hosts, between drain cycles). */
    static void clearStopRequest();

    /** True when the last run() stopped early on the stop flag. */
    bool interrupted() const { return lastInterrupted; }

    /** Cells actually executed by the last run() (== timings().size()
     *  unless the batch was interrupted). */
    size_t executedCells() const { return executedCount.load(); }

  private:
    struct Task
    {
        std::string label;
        std::function<void()> fn;
    };

    /** Worker loop: drain own deque, then steal. */
    void workerLoop(int worker_index);

    /** Pop the next task index for this worker; -1 when the batch is
     *  exhausted. */
    long nextTask(int worker_index);

    int nThreads = 1;
    SignalPolicy signalPolicy = SignalPolicy::ExitAfterDrain;
    bool lastInterrupted = false;
    std::atomic<size_t> executedCount{0};
    std::vector<Task> tasks;
    std::vector<CellTiming> cellTimings;
    double lastWallSeconds = 0.0;

    /** Per-worker task-index deques (guarded by one mutex each); rebuilt
     *  by run() from the round-robin deal. */
    struct WorkerQueue;
    std::vector<WorkerQueue> *queues = nullptr;  // set during run() only
};

} // namespace harness
} // namespace react

#endif // REACT_HARNESS_PARALLEL_RUNNER_HH
