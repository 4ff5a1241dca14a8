/**
 * @file
 * End-to-end experiment runner: harvesting frontend -> buffer -> power
 * gate -> MCU -> benchmark, the full loop of the paper's testbed (S 4).
 *
 * Following the paper's protocol (S 5), each run replays one power trace
 * into one buffer while the backend executes one benchmark, then lets the
 * system run on stored energy until the buffer drains.  The runner
 * reports the paper's metrics: system latency (first enable, Table 4),
 * work counts (Tables 2 and 5), on-time, power cycles, and the full
 * energy ledger behind Fig. 7.
 */

#ifndef REACT_HARNESS_EXPERIMENT_HH
#define REACT_HARNESS_EXPERIMENT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "buffers/energy_buffer.hh"
#include "harvest/frontend.hh"
#include "mcu/device.hh"
#include "sim/energy_ledger.hh"
#include "sim/fault_injector.hh"
#include "sim/power_gate.hh"
#include "workload/benchmark.hh"

namespace react {
namespace harness {

/** Runner options. */
struct ExperimentConfig
{
    /** Integration timestep, seconds. */
    double dt = 1e-3;
    /** Maximum extra run time after the trace ends (run-until-drain
     *  allowance). */
    double drainAllowance = 900.0;
    /** After the trace ends, stop once the backend has been continuously
     *  off for this long (no input power remains to restart it). */
    double settleTime = 20.0;
    /** Power-gate enable threshold, volts. */
    double enableVoltage = 3.3;
    /** Power-gate brown-out threshold, volts. */
    double brownoutVoltage = 1.8;
    /** Record the rail voltage (for the figure benches). */
    bool recordRail = false;
    /** Sampling interval of the rail recording, seconds. */
    double recordInterval = 0.5;
    /** Stop as soon as the backend first enables (latency-only runs,
     *  Table 4: charge time is software-invariant). */
    bool stopAfterLatency = false;

    /**
     * Hardware fault schedule.  The default all-zero plan leaves the run
     * bit-identical to a build without fault injection (no injector is
     * even constructed).  When any rate is non-zero, one seeded injector
     * is attached to the buffer and the power gate for the whole run.
     */
    sim::FaultPlan faultPlan;
    /** Master seed for the fault injector's component streams. */
    uint64_t faultSeed = 0x5eedull;
    /**
     * Escalate an energy-conservation violation (|error| beyond 1e-9 J
     * per joule harvested) from a warning to a panic.  Tests enable
     * this; interactive benches keep the warning so a sweep finishes.
     */
    bool strictConservation = false;

    /**
     * @name Checkpoint / restore (crash resilience for long runs)
     *
     * With a non-empty checkpointPath the runner periodically writes a
     * versioned, CRC-guarded snapshot of the complete simulation state
     * (atomically: see snapshot::saveSnapshotFile), and a "finished"
     * snapshot carrying the final result once the run completes.  With
     * resume set, the runner first tries to load that file: a finished
     * snapshot returns the stored result immediately, a mid-run one
     * resumes the loop bit-identically, and a damaged one falls back to
     * the previous snapshot or a cold start -- never undefined behaviour.
     * @{
     */
    /** Snapshot file path; empty disables checkpointing entirely. */
    std::string checkpointPath;
    /** Steps between periodic checkpoints (0 = only the finished one). */
    uint64_t checkpointEverySteps = 0;
    /** Try to resume from checkpointPath before cold-starting. */
    bool resume = false;
    /**
     * Simulated crash for the crash-consistency fuzzer: stop abruptly
     * after this many steps (0 = never) *without* writing a checkpoint
     * at the kill step, exactly as a power failure would.
     */
    uint64_t haltAfterSteps = 0;
    /** @} */
};

/** One recorded rail sample. */
struct RailSample
{
    double time = 0.0;
    double voltage = 0.0;
    bool backendOn = false;
    int level = 0;
};

/** Outcome of one run. */
struct ExperimentResult
{
    std::string bufferName;
    std::string benchmarkName;
    std::string traceName;

    /** Time of first backend enable, seconds; < 0 when it never starts
     *  (the paper's "-" entries in Table 4). */
    double latency = -1.0;
    /** Total time the backend was powered, seconds. */
    double onTime = 0.0;
    /** Total simulated time, seconds. */
    double totalTime = 0.0;
    /** Fixed-timestep engine iterations executed (totalTime / dt). */
    uint64_t steps = 0;
    /** Number of power cycles (off -> on transitions). */
    uint64_t powerCycles = 0;
    /** Mean uninterrupted on-period, seconds. */
    double meanOnPeriod() const;
    /** Fraction of total time the backend was powered. */
    double dutyCycle() const;

    /** Benchmark counters. */
    uint64_t workUnits = 0;
    uint64_t packetsRx = 0;
    uint64_t packetsTx = 0;
    uint64_t failedOps = 0;
    uint64_t missedEvents = 0;

    /** Buffer energy audit. */
    sim::EnergyLedger ledger;
    /** Energy still stored when the run ended, joules. */
    double residualEnergy = 0.0;
    /** Ledger conservation error for the whole run, joules (signed). */
    double conservationError = 0.0;

    /** @name Fault-injection outcome (zero without a fault plan). @{ */
    /** Injected hardware faults over the run. */
    uint64_t faultEvents = 0;
    /** Recovery actions the hardened management software took. */
    uint64_t recoveryEvents = 0;
    /** Banks the REACT watchdog retired. */
    int banksRetired = 0;
    /** Corrupt FRAM config records replaced with the safe default. */
    int framRecoveries = 0;
    /** Chronological fault/recovery log (capped inside the injector). */
    std::vector<sim::FaultEvent> faultLog;
    /** @} */

    /**
     * Work lost to hardware faults versus a reference run of the same
     * setup without them (clamped at zero: noise can make a faulted run
     * marginally luckier).
     */
    uint64_t workLostVersus(const ExperimentResult &fault_free) const;

    /** Rail recording (when enabled). */
    std::vector<RailSample> rail;

    /** @name Checkpoint / restore outcome. @{ */
    /** The run stopped at haltAfterSteps (result is partial). */
    bool halted = false;
    /** The run resumed from (or returned directly out of) a snapshot. */
    bool resumed = false;
    /** The primary snapshot was damaged and `.prev` (or a cold start)
     *  was used instead. */
    bool snapshotFallback = false;
    /** Human-readable account of the snapshot load (empty when no
     *  resume was attempted). */
    std::string snapshotDiagnostic;
    /**
     * CRC-32 over the serialized final state of every component (gate,
     * device, buffer, benchmark including event-queue delivery ids, and
     * fault injector).  Two runs are bit-identical iff their digests --
     * and the explicit counters above -- match; the crash fuzzer uses
     * this to prove checkpoint/restore transparency.
     */
    uint32_t stateDigest = 0;
    /** @} */
};

/**
 * Serialize a complete result: a one-section snapshot image whose
 * "result" section is byte-identical to the one a finished checkpoint
 * stores.  This is the one ExperimentResult codec -- finished
 * checkpoints and reactd's JobResult payload both carry it.  Every
 * field is included except the operational ones (resumed,
 * snapshotFallback, snapshotDiagnostic), so a result served from a
 * resume or a cache is byte-identical to a direct run.
 */
std::vector<uint8_t> encodeResult(const ExperimentResult &res);

/**
 * Decode encodeResult()'s bytes.  The operational fields default.
 *
 * @throws snapshot::SnapshotError on any damage: bad header, CRC
 *         mismatch, truncation, trailing bytes, or a layout mismatch.
 */
ExperimentResult decodeResult(std::vector<uint8_t> bytes);

/**
 * One cell's control plane: the per-cell state and the lifecycle steps
 * that both experiment loops share -- runExperiment below and the batch
 * lane engine (batch_runner.hh).  Each loop keeps its own clock, physics
 * stepping, and exit checks; what happens *to the cell* -- the cold
 * start, a power-gate edge, a rail sample, and the end-of-run
 * accounting -- is decided here, once.
 *
 * Construction cold-starts the cell.  Destruction detaches the fault
 * injector from the (caller-owned) buffer.
 */
class CellRun
{
  public:
    CellRun(buffer::EnergyBuffer &buffer, workload::Benchmark *benchmark,
            const harvest::HarvesterFrontend &frontend,
            const ExperimentConfig &config);
    ~CellRun();

    CellRun(const CellRun &) = delete;
    CellRun &operator=(const CellRun &) = delete;

    /**
     * Reset buffer, benchmark, device, gate, and result to the t = 0
     * state, with a fresh fault injector when the plan has one.  Also
     * how a rejected checkpoint degrades: whatever a partial restore
     * touched is rebuilt, so the cold start is a true cold start.
     */
    void coldStart();

    /** Apply the power-gate transition latched by the step at @p t
     *  (call when gate.update() returned true). */
    void gateEdge(double t);

    /** Record a rail sample at @p t when one is due (recordRail runs
     *  only). */
    void sampleRail(double t, double rail_voltage);

    /**
     * Close the result at final time @p t: counters, energy ledger,
     * conservation audit, fault tallies, and stateDigest.  The caller
     * has already set result.steps and result.onTime and left the
     * buffer object holding the final physics state.
     */
    void finish(double t);

    buffer::EnergyBuffer &buffer;
    workload::Benchmark *benchmark;
    const harvest::HarvesterFrontend &frontend;
    const ExperimentConfig &config;
    mcu::Device device;
    sim::PowerGate gate;
    /** Null unless the fault plan is enabled. */
    std::unique_ptr<sim::FaultInjector> injector;
    workload::BenchContext ctx;
    /** Stored energy at the cold start: the conservation audit's
     *  baseline. */
    double storedStart = 0.0;
    /** Time of the next due rail sample. */
    double nextRecord = 0.0;
    ExperimentResult result;
};

/**
 * Run one experiment.  The buffer and benchmark are reset first.
 *
 * @param buffer Energy buffer under test.
 * @param benchmark Workload; may be null, in which case the backend sits
 *        in active mode whenever powered (the Fig. 1 motivation setup).
 * @param frontend Power replay source.
 * @param config Runner options.
 */
ExperimentResult runExperiment(buffer::EnergyBuffer &buffer,
                               workload::Benchmark *benchmark,
                               const harvest::HarvesterFrontend &frontend,
                               const ExperimentConfig &config =
                                   ExperimentConfig());

} // namespace harness
} // namespace react

#endif // REACT_HARNESS_EXPERIMENT_HH
