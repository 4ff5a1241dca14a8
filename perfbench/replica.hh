/**
 * @file
 * Traced replica of the classic per-cell step loop.
 *
 * runExperiment() has no internal clocks, so the per-layer split of the
 * classic engine is measured from outside: this file rebuilds one grid
 * cell from the same public pieces runGridCell() uses (makeBuffer,
 * makeBenchmark, HarvesterFrontend, mcu::Device, sim::PowerGate) and
 * steps it with runExperiment's loop order statement for statement, for
 * the grid's configuration (exact stepping, no faults, no checkpoints,
 * no rail recording).  The caller compares the replica's outcome with
 * runGridCell's; a split whose replica diverged is rejected.
 *
 * Timing samples every kSampleStride-th step only, because one
 * steady_clock read costs about as much as a whole static-buffer step.
 * Sampled steps rotate between a phase sample (five clock reads around
 * the gate, frontend, buffer and workload calls), a loop sample (two
 * reads around the whole iteration) and an empty sample (three
 * back-to-back reads).  The empty samples calibrate, in place, what a
 * span costs with nothing in it -- separately for a sample's first span,
 * whose opening read follows untimed steps and costs more, and for the
 * spans after it -- and that cost is subtracted from every other span.
 * Means drop the slowest 1 % of samples (preemptions).
 */

#ifndef REACT_PERFBENCH_REPLICA_HH
#define REACT_PERFBENCH_REPLICA_HH

#include <cstdint>

#include "harness/experiment.hh"
#include "harness/paper_setup.hh"
#include "trace/paper_traces.hh"

namespace perfbench {

/** Steps between two timed steps of a traced replica (prime, so the
 *  samples do not lock onto a periodic workload event). */
constexpr uint64_t kSampleStride = 61;

/** Mean host nanoseconds per step of each layer of the classic loop. */
struct StepSplit
{
    /** HarvesterFrontend::power. */
    double frontendNs = 0.0;
    /** PowerGate::update plus the power-transition hooks it triggers. */
    double gateNs = 0.0;
    /** EnergyBuffer::step. */
    double bufferNs = 0.0;
    /** On-time accounting and Benchmark::tick. */
    double workloadNs = 0.0;
    /** The whole iteration, exit checks included. */
    double loopNs = 0.0;
    /** Calibrated cost of an empty first span (subtracted from gate
     *  and loop) and of a later one (subtracted from the rest). */
    double emptyFirstNs = 0.0;
    double emptyNs = 0.0;
    uint64_t phaseSamples = 0;
    uint64_t loopSamples = 0;
};

/** One replica run. */
struct ReplicaRun
{
    /** The counters, ledger, conservation error and state digest
     *  runExperiment would report. */
    react::harness::ExperimentResult result;
    /** Host seconds of the step loop. */
    double loopSeconds = 0.0;
    /** Per-layer split (all zero when untraced). */
    StepSplit split;
};

/**
 * Run the grid cell (@p buffer_kind, @p bench_kind, @p trace_kind) with
 * workload seed cellSeed(@p base_seed, gridCellKey(...)), exactly as
 * runGridCell does.  With @p traced the loop samples its layers;
 * without it the loop reads no clock inside.
 */
ReplicaRun runReplica(react::harness::BufferKind buffer_kind,
                      react::harness::BenchmarkKind bench_kind,
                      react::trace::PaperTrace trace_kind,
                      uint64_t base_seed, bool traced);

} // namespace perfbench

#endif // REACT_PERFBENCH_REPLICA_HH
