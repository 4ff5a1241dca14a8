#include "grid.hh"

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <mutex>

#include "harness/batch_runner.hh"
#include "harness/checkpoint.hh"
#include "harness/parallel_runner.hh"
#include "harvest/frontend.hh"
#include "util/determinism.hh"
#include "util/logging.hh"

namespace react {
namespace harness {

std::string
gridCellKey(BenchmarkKind bench_kind, trace::PaperTrace trace_kind,
            BufferKind buffer_kind)
{
    return benchmarkKindName(bench_kind) + ":" +
        trace::paperTraceName(trace_kind) + ":" +
        bufferKindName(buffer_kind);
}

const trace::PowerTrace &
evaluationTrace(trace::PaperTrace which)
{
    // Shared across every thread and cell, but safe for the contract:
    // mutex-guarded, keyed by a closed enum in an *ordered* map, and
    // makePaperTrace is a pure seeded synthesis -- whichever thread
    // populates an entry first, every reader observes identical bytes.
    REACT_NONDET_OK("mutex-guarded memo of pure seeded trace synthesis");
    static std::mutex lock;
    REACT_NONDET_OK("value per key is bit-identical regardless of populating thread");
    static std::map<trace::PaperTrace, trace::PowerTrace> cache;
    const std::lock_guard<std::mutex> guard(lock);
    auto it = cache.find(which);
    if (it == cache.end())
        it = cache.emplace(which, trace::makePaperTrace(which)).first;
    return it->second;
}

void
prewarmEvaluationTraces()
{
    for (const auto which : trace::kAllPaperTraces)
        evaluationTrace(which);
}

ExperimentResult
runGridCell(BufferKind buffer_kind, BenchmarkKind bench_kind,
            trace::PaperTrace trace_kind, const ExperimentConfig &config,
            uint64_t base_seed)
{
    const std::string cell_key =
        gridCellKey(bench_kind, trace_kind, buffer_kind);
    auto buffer = makeBuffer(buffer_kind);
    const auto &power = evaluationTrace(trace_kind);
    auto benchmark = makeBenchmark(
        bench_kind, power.duration() + kGridDrainAllowance,
        cellSeed(base_seed, cell_key));
    harvest::HarvesterFrontend frontend(power);
    ExperimentConfig cell_config = config;
    applyCheckpointEnv(&cell_config, cell_key);
    return runExperiment(*buffer, benchmark.get(), frontend, cell_config);
}

void
runGridCellBatch(const std::vector<GridBatchCell> &cells,
                 const ExperimentConfig &config, uint64_t base_seed,
                 sim::simd::Kernel kernel, BatchPhaseStats *stats)
{

    /** Constructed components of one admitted cell, kept alive for the
     *  duration of the streaming run. */
    struct PreparedCell
    {
        std::unique_ptr<buffer::EnergyBuffer> buffer;
        std::unique_ptr<workload::Benchmark> benchmark;
        std::unique_ptr<harvest::HarvesterFrontend> frontend;
        ExperimentResult *slot;
    };
    std::vector<PreparedCell> pending;
    pending.reserve(cells.size());

    for (const GridBatchCell &cell : cells) {
        const std::string cell_key =
            gridCellKey(cell.benchKind, cell.traceKind, cell.bufferKind);
        auto buffer = makeBuffer(cell.bufferKind);
        const auto &power = evaluationTrace(cell.traceKind);
        auto benchmark = makeBenchmark(
            cell.benchKind, power.duration() + kGridDrainAllowance,
            cellSeed(base_seed, cell_key));
        auto frontend = std::make_unique<harvest::HarvesterFrontend>(power);
        ExperimentConfig cell_config = config;
        applyCheckpointEnv(&cell_config, cell_key);
        // The checkpoint env makes the cell inadmissible (non-empty
        // path), so every admitted cell's effective config equals the
        // shared one runExperimentBatch receives.
        if (kernel == sim::simd::Kernel::Disabled ||
            !batchAdmissible(*buffer, cell_config)) {
            *cell.slot = runExperiment(*buffer, benchmark.get(), *frontend,
                                       cell_config);
            continue;
        }
        pending.push_back(PreparedCell{std::move(buffer),
                                       std::move(benchmark),
                                       std::move(frontend), cell.slot});
    }
    if (pending.empty())
        return;

    // Stream every admitted cell through one lane-refilled run, longest
    // trace first: with slot refill, longest-first admission minimizes
    // the makespan (the classic LPT schedule -- total iterations land
    // near max(sum/kMaxLanes, longest cell) instead of the
    // sum-of-group-maxima a fixed grouping pays).  Each cell's numbers
    // are independent of admission order (tests prove composition
    // independence), so the sort changes wall time only; stable_sort on
    // the duration keeps tie order deterministic.
    std::stable_sort(pending.begin(), pending.end(),
                     [](const PreparedCell &a, const PreparedCell &b) {
                         return a.frontend->traceDuration().raw() >
                             b.frontend->traceDuration().raw();
                     });
    std::vector<BatchCell> batch;
    batch.reserve(pending.size());
    for (PreparedCell &prepared : pending) {
        auto *static_buffer =
            dynamic_cast<buffer::StaticBuffer *>(prepared.buffer.get());
        react_assert(static_buffer != nullptr,
                     "admitted batch cell lost its StaticBuffer");
        batch.push_back(BatchCell{static_buffer, prepared.benchmark.get(),
                                  prepared.frontend.get(), prepared.slot});
    }
    runExperimentBatch(batch.data(), static_cast<int>(batch.size()),
                       config, kernel, stats);
}

} // namespace harness
} // namespace react
