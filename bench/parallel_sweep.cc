/**
 * @file
 * Parallel experiment-engine benchmark and determinism gate.
 *
 * Runs the full evaluation grid (4 benchmarks x 5 traces x 5 buffers =
 * 100 cells) twice -- once on a single thread (the serial reference) and
 * once at the configured worker count -- then:
 *
 *  1. fingerprints both result sets bit-for-bit and FAILS (nonzero exit)
 *     if parallel execution changed any number anywhere, and
 *  2. emits BENCH_parallel.json with cell/step throughput, speedup, and
 *     per-benchmark wall time for CI trend tracking.
 *
 * On a single-core machine the speedup is ~1x by construction; the
 * determinism gate is the part that must hold everywhere.  Thread count
 * comes from REACT_THREADS or hardware concurrency.
 */

#include <chrono>
#include <cinttypes>
#include <string>
#include <vector>

#include "bench_common.hh"

namespace {

using namespace react;

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

/** Canonical bit-faithful rendering of one cell result. */
std::string
fingerprintCell(const std::string &key, const harness::ExperimentResult &r)
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s|work=%" PRIu64 "|rx=%" PRIu64 "|tx=%" PRIu64
        "|missed=%" PRIu64 "|steps=%" PRIu64 "|cycles=%" PRIu64
        "|latency=%.17g|on=%.17g|harvested=%.17g|delivered=%.17g"
        "|clipped=%.17g|leaked=%.17g|switch=%.17g|conservation=%.17g",
        key.c_str(), r.workUnits, r.packetsRx, r.packetsTx, r.missedEvents,
        r.steps, r.powerCycles, r.latency, r.onTime,
        r.ledger.harvested.raw(), r.ledger.delivered.raw(),
        r.ledger.clipped.raw(), r.ledger.leaked.raw(),
        r.ledger.switchLoss.raw(), r.conservationError);
    return buf;
}

struct SweepOutcome
{
    /** Fingerprint lines in submission order (thread-count invariant). */
    std::vector<std::string> fingerprints;
    /** Wall seconds of the runner's run() call. */
    double wallSeconds = 0.0;
    /** Sum of per-cell wall seconds (serial-equivalent work content). */
    double busySeconds = 0.0;
    /** Engine iterations across all cells. */
    uint64_t totalSteps = 0;
    /** Per-benchmark summed cell wall seconds, kAllBenchmarks order. */
    std::array<double, 4> benchmarkSeconds{};
};

/** Run the full 100-cell grid at the given thread count. */
SweepOutcome
runSweep(int threads)
{
    harness::ParallelRunner runner(threads);
    std::array<bench::GridResults, 4> results;
    std::vector<std::string> keys;
    for (size_t b = 0; b < harness::kAllBenchmarks.size(); ++b) {
        bench::submitGrid(runner, harness::kAllBenchmarks[b], results[b]);
        for (const auto trace_kind : trace::kAllPaperTraces) {
            for (const auto buffer_kind : harness::kAllBuffers) {
                keys.push_back(bench::gridCellKey(
                    harness::kAllBenchmarks[b], trace_kind, buffer_kind));
            }
        }
    }
    runner.run();

    SweepOutcome out;
    out.wallSeconds = runner.wallSeconds();
    out.busySeconds = runner.busySeconds();
    size_t cell = 0;
    for (size_t b = 0; b < harness::kAllBenchmarks.size(); ++b) {
        for (size_t t = 0; t < trace::kAllPaperTraces.size(); ++t) {
            for (size_t u = 0; u < harness::kAllBuffers.size(); ++u) {
                const auto &r = results[b][t][u];
                out.fingerprints.push_back(
                    fingerprintCell(keys[cell], r));
                out.totalSteps += r.steps;
                out.benchmarkSeconds[b] +=
                    runner.timings()[cell].seconds;
                ++cell;
            }
        }
    }
    return out;
}

/** Table-2 static column on the lane engine vs classic stepping. */
struct LaneEngineOutcome
{
    /** Kernel the batch side ran ("avx2" where the host runs it,
     *  "scalar" elsewhere). */
    const char *kernel = "scalar";
    size_t cells = 0;
    double classicWallSeconds = 0.0;
    double batchWallSeconds = 0.0;
    size_t divergent = 0;
};

/**
 * Run the Table-2 Data-Encryption static-buffer column (5 traces x the
 * static buffer kinds) twice -- per-cell runGridCell, then one
 * runGridCellBatch on the best kernel this host has -- and require every
 * cell bit-identical.  BENCH_hotloop.json gates the same column at 2.5x
 * (tools/check_hotloop_regression.py); here we record what a real sweep
 * actually gains once trace generation, workload, and harness
 * bookkeeping share the bill.
 */
LaneEngineOutcome
runLaneEngineColumn()
{
    LaneEngineOutcome out;
    const sim::simd::Kernel kernel = sim::simd::resolveKernel(
        sim::simd::Policy::Auto, sim::simd::avx2Available());
    out.kernel = sim::simd::kernelName(kernel);

    std::vector<trace::PaperTrace> traces;
    std::vector<harness::BufferKind> buffers;
    for (const auto trace_kind : trace::kAllPaperTraces)
        for (const auto buffer_kind : harness::kAllBuffers)
            if (harness::isStaticBufferKind(buffer_kind)) {
                traces.push_back(trace_kind);
                buffers.push_back(buffer_kind);
            }
    out.cells = traces.size();

    std::vector<harness::ExperimentResult> classic(out.cells);
    double t0 = nowSeconds();
    for (size_t i = 0; i < out.cells; ++i) {
        classic[i] = harness::runGridCell(
            buffers[i], harness::BenchmarkKind::DataEncryption, traces[i]);
    }
    out.classicWallSeconds = nowSeconds() - t0;

    std::vector<harness::ExperimentResult> batched(out.cells);
    std::vector<harness::GridBatchCell> cells;
    for (size_t i = 0; i < out.cells; ++i) {
        cells.push_back({buffers[i],
                         harness::BenchmarkKind::DataEncryption, traces[i],
                         &batched[i]});
    }
    t0 = nowSeconds();
    harness::runGridCellBatch(cells, harness::ExperimentConfig(),
                              harness::kEvaluationSeed, kernel);
    out.batchWallSeconds = nowSeconds() - t0;

    for (size_t i = 0; i < out.cells; ++i) {
        const std::string key = bench::gridCellKey(
            harness::BenchmarkKind::DataEncryption, traces[i], buffers[i]);
        const std::string a = fingerprintCell(key, classic[i]);
        const std::string b = fingerprintCell(key, batched[i]);
        if (a != b) {
            if (++out.divergent <= 5) {
                std::fprintf(stderr, "LANE-ENGINE DIVERGENT CELL:\n"
                             "  classic: %s\n  batch:   %s\n",
                             a.c_str(), b.c_str());
            }
        }
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace react;
    bench::printPreamble(
        "Parallel sweep: deterministic sharded execution of the full "
        "evaluation grid",
        "engine benchmark (not a paper figure); serial-vs-parallel "
        "bit-identity gate");

    std::string json_path = "BENCH_parallel.json";
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--json")
            json_path = argv[i + 1];
    }

    bench::prewarmEvaluationTraces();

    const int threads = harness::ParallelRunner::defaultThreadCount();
    std::printf("running 100 cells serially (reference)...\n");
    const SweepOutcome serial = runSweep(1);
    std::printf("running 100 cells on %d worker thread(s)...\n", threads);
    const SweepOutcome parallel = runSweep(threads);
    std::printf("running the Table-2 DE static column on the lane "
                "engine...\n");
    const LaneEngineOutcome lane = runLaneEngineColumn();

    // Determinism gate: every cell bit-identical to the serial reference.
    size_t divergent = 0;
    for (size_t i = 0; i < serial.fingerprints.size(); ++i) {
        if (serial.fingerprints[i] != parallel.fingerprints[i]) {
            if (++divergent <= 5) {
                std::fprintf(stderr, "DIVERGENT CELL:\n  serial:   %s\n"
                             "  parallel: %s\n",
                             serial.fingerprints[i].c_str(),
                             parallel.fingerprints[i].c_str());
            }
        }
    }
    const bool deterministic = divergent == 0;

    const double speedup = parallel.wallSeconds > 0.0
        ? serial.wallSeconds / parallel.wallSeconds
        : 0.0;
    const double cells_per_sec = parallel.wallSeconds > 0.0
        ? 100.0 / parallel.wallSeconds
        : 0.0;
    const double steps_per_sec = parallel.wallSeconds > 0.0
        ? static_cast<double>(parallel.totalSteps) / parallel.wallSeconds
        : 0.0;

    JsonWriter w;
    w.beginObject();
    w.field("threads", threads);
    w.field("cells", 100);
    w.field("deterministic", deterministic);
    w.field("divergent_cells", static_cast<uint64_t>(divergent));
    w.field("total_steps", parallel.totalSteps);
    w.field("serial_wall_s", serial.wallSeconds);
    w.field("parallel_wall_s", parallel.wallSeconds);
    w.field("parallel_busy_s", parallel.busySeconds);
    w.field("speedup", speedup);
    w.field("cells_per_sec", cells_per_sec);
    w.field("steps_per_sec", steps_per_sec);
    w.key("figures");
    w.beginArray();
    for (size_t b = 0; b < harness::kAllBenchmarks.size(); ++b) {
        w.beginObject();
        w.field("benchmark",
                harness::benchmarkKindName(harness::kAllBenchmarks[b]));
        w.field("serial_cell_s", serial.benchmarkSeconds[b]);
        w.field("parallel_cell_s", parallel.benchmarkSeconds[b]);
        w.endObject();
    }
    w.endArray();
    w.key("lane_engine");
    w.beginObject();
    w.field("kernel", lane.kernel);
    w.field("cells", static_cast<uint64_t>(lane.cells));
    w.field("classic_wall_s", lane.classicWallSeconds);
    w.field("batch_wall_s", lane.batchWallSeconds);
    w.field("classic_cells_per_sec",
            lane.classicWallSeconds > 0.0
                ? static_cast<double>(lane.cells) / lane.classicWallSeconds
                : 0.0);
    w.field("cells_per_sec",
            lane.batchWallSeconds > 0.0
                ? static_cast<double>(lane.cells) / lane.batchWallSeconds
                : 0.0);
    w.field("speedup",
            lane.batchWallSeconds > 0.0
                ? lane.classicWallSeconds / lane.batchWallSeconds
                : 0.0);
    w.field("bit_identical", lane.divergent == 0);
    w.field("divergent_cells", static_cast<uint64_t>(lane.divergent));
    w.endObject();
    w.endObject();
    writeTextFile(json_path, w.str() + "\n");

    std::printf("\nthreads:            %d\n", threads);
    std::printf("serial wall:        %.2f s\n", serial.wallSeconds);
    std::printf("parallel wall:      %.2f s\n", parallel.wallSeconds);
    std::printf("speedup:            %.2fx\n", speedup);
    std::printf("cell throughput:    %.2f cells/s\n", cells_per_sec);
    std::printf("step throughput:    %.3g steps/s\n", steps_per_sec);
    std::printf("determinism:        %s\n",
                deterministic ? "bit-identical across thread counts"
                              : "DIVERGED");
    std::printf("lane engine:        %s kernel, %zu cells, %.2fx vs "
                "classic, %s\n",
                lane.kernel, lane.cells,
                lane.batchWallSeconds > 0.0
                    ? lane.classicWallSeconds / lane.batchWallSeconds
                    : 0.0,
                lane.divergent == 0 ? "bit-identical" : "DIVERGED");
    std::printf("artifact:           %s\n", json_path.c_str());

    if (!deterministic) {
        std::fprintf(stderr, "\n%zu of 100 cells diverged between serial "
                     "and parallel execution\n", divergent);
        return 1;
    }
    if (lane.divergent != 0) {
        std::fprintf(stderr, "\n%zu of %zu lane-engine cells diverged "
                     "from classic per-cell execution\n",
                     lane.divergent, lane.cells);
        return 1;
    }
    return 0;
}
