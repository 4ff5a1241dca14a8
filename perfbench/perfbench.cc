/**
 * @file
 * The repository benchmark: times the paper's evaluation workloads end
 * to end, splits their cost by layer, and checks every output.
 *
 *   perfbench --workload eval_grid|static_lanes|fault_ckpt
 *             [--seed N] [--seconds S] [--trace 0|1] [--workers N]
 *
 * All timing is taken outside the simulator, around calls into its
 * public functions.  A run sets up the workload several times (setup_s
 * is the median), runs one untimed warm-up pass, then repeats timed
 * passes over the workload's cells for --seconds and reports medians.  With --trace 1 it also runs
 * the traced layer split (replica.hh, and the lane engine's phase
 * clocks) and prints the per-layer metrics instead of the end-to-end
 * ones.  The last line of stdout is one JSON object; README.md explains
 * every metric.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checks.hh"
#include "harness/batch_runner.hh"
#include "harness/checkpoint.hh"
#include "harness/figure_of_merit.hh"
#include "harness/grid.hh"
#include "harness/parallel_runner.hh"
#include "harvest/frontend.hh"
#include "replica.hh"
#include "sim/fault_injector.hh"
#include "sim/hotloop_stats.hh"
#include "sim/simd.hh"
#include "snapshot/snapshot.hh"
#include "trace/paper_traces.hh"

namespace {

namespace fs = std::filesystem;
namespace harness = react::harness;
namespace simd = react::sim::simd;
using harness::BenchmarkKind;
using harness::BufferKind;
using harness::ExperimentResult;
using perfbench::CellRun;
using perfbench::CheckLog;
using react::trace::PaperTrace;
using Clock = std::chrono::steady_clock;

/** Each of these silently changes what the workloads measure. */
constexpr const char *kRefusedEnv[] = {"REACT_SIMD", "REACT_FAST_PATH",
                                       "REACT_CHECKPOINT_DIR",
                                       "REACT_THREADS"};

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 7;
/** Timed passes per run, at least, however long a pass takes. */
constexpr size_t kMinPasses = 3;
/** Fault realizations of each faulted fault_ckpt cell (see
 *  workloadCells). */
constexpr size_t kFaultRealizations = 2;
/** Untraced/traced replica repetitions (interleaved). */
constexpr int kReplicaReps = 3;
/** The seed the golden was recorded with. */
constexpr uint64_t kGoldenSeed = harness::kEvaluationSeed;

/** Fig. 7 / S 5.5 headline improvements of REACT over 770uF, 10mF,
 *  17mF and Morphy, in percent. */
constexpr double kPaperFig7[4] = {39.1, 18.8, 19.3, 26.2};

enum class Workload
{
    EvalGrid,
    StaticLanes,
    FaultCkpt,
};

struct Options
{
    Workload workload = Workload::EvalGrid;
    std::string workloadName;
    uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    int workers = 0;
};

/** One cell of a workload. */
struct CellSpec
{
    BufferKind buffer;
    BenchmarkKind bench;
    PaperTrace trace;
    /** FaultPlan::stress severity and fault seed (fault_ckpt only). */
    double severity = 0.0;
    uint64_t faultSeed = 0;
    /** Unique label; equals gridKey except in fault_ckpt. */
    std::string key;
    std::string gridKey;
};

/** Outcome and timing of one pass over a workload's cells. */
struct Pass
{
    std::vector<CellRun> cells;
    /** Per-cell seconds from ParallelRunner::timings (empty on the lane
     *  engine, which has no per-cell clock). */
    std::vector<double> cellSeconds;
    double wall = 0.0;
    double cpu = 0.0;
    double busy = 0.0;
    double maxCell = 0.0;
    uint64_t snapFiles = 0;
    uint64_t snapBytes = 0;
    double loadUs = 0.0;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "eval_grid|static_lanes|fault_ckpt [--seed N] "
                 "[--seconds S] [--trace 0|1] [--workers N]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        errno = 0;
        if (arg == "--workload") {
            have_workload = true;
            opt.workloadName = value;
            if (value == "eval_grid")
                opt.workload = Workload::EvalGrid;
            else if (value == "static_lanes")
                opt.workload = Workload::StaticLanes;
            else if (value == "fault_ckpt")
                opt.workload = Workload::FaultCkpt;
            else
                usage(("unknown workload " + value).c_str());
            continue;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            if (!(opt.seconds > 0.0 && opt.seconds <= 3600.0))
                usage("--seconds must be in (0, 3600]");
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            opt.trace = value == "1";
            continue;
        } else if (arg == "--workers") {
            opt.workers = static_cast<int>(std::strtol(value.c_str(), &end,
                                                       10));
            if (opt.workers < 1 || opt.workers > 256)
                usage("--workers must be in [1, 256]");
        } else {
            usage(("unknown argument " + arg).c_str());
        }
        if (errno != 0 || *end != '\0' || value.empty())
            usage(("malformed value for " + arg).c_str());
    }
    if (!have_workload)
        usage("--workload is required");
    return opt;
}

std::vector<CellSpec>
workloadCells(Workload workload, uint64_t seed)
{
    std::vector<CellSpec> cells;
    const auto add = [&](BufferKind buffer, BenchmarkKind bench,
                         PaperTrace trace, double severity,
                         uint64_t fault_seed, std::string key) {
        const std::string grid_key =
            harness::gridCellKey(bench, trace, buffer);
        cells.push_back({buffer, bench, trace, severity, fault_seed,
                         key.empty() ? grid_key : key, grid_key});
    };
    if (workload == Workload::FaultCkpt) {
        // fault_sweep's 15 cells, in its submission order; each faulted
        // one under kFaultRealizations fault seeds (severity 0 builds no
        // injector, so its cells need only one).  Realization 0 draws
        // its faults from the workload seed; realization 1 uses
        // fault_sweep's own fixed fault seed.  A faulted REACT cell costs
        // 0.9-1.9 s depending on which banks its faults retire, so with
        // seed-drawn faults alone the pass time spread 13-19 % across
        // seeds; the fixed realization holds half the faulted work the
        // same at every seed.
        const uint64_t fault_seeds[kFaultRealizations] = {
            seed, harness::ExperimentConfig().faultSeed};
        const double severities[] = {0.0, 0.5, 1.0, 2.0, 4.0};
        const BufferKind kinds[] = {BufferKind::React,
                                    BufferKind::Static770uF,
                                    BufferKind::Static17mF};
        for (const double severity : severities) {
            const size_t realizations =
                severity == 0.0 ? 1 : kFaultRealizations;
            for (size_t r = 0; r < realizations; ++r) {
                for (const BufferKind kind : kinds) {
                    char label[96];
                    std::snprintf(label, sizeof(label), "fault@%.1f#%zu:%s",
                                  severity, r,
                                  harness::gridCellKey(
                                      BenchmarkKind::SenseCompute,
                                      PaperTrace::SolarCampus, kind)
                                      .c_str());
                    add(kind, BenchmarkKind::SenseCompute,
                        PaperTrace::SolarCampus, severity, fault_seeds[r],
                        label);
                }
            }
        }
        return cells;
    }
    // Fig. 7's submission order: benchmark, then trace, then buffer.
    for (const BenchmarkKind bench : harness::kAllBenchmarks) {
        for (const PaperTrace trace : react::trace::kAllPaperTraces) {
            for (const BufferKind buffer : harness::kAllBuffers) {
                if (workload == Workload::StaticLanes &&
                    !harness::isStaticBufferKind(buffer))
                    continue;
                add(buffer, bench, trace, 0.0, 0, "");
            }
        }
    }
    return cells;
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
            static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Python's statistics.quantiles(values, n=4) (the exclusive method). */
std::vector<double>
quartiles(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    if (n == 1)
        return {values[0], values[0], values[0]};
    std::vector<double> q;
    const size_t m = n + 1;
    for (size_t i = 1; i < 4; ++i) {
        size_t j = i * m / 4;
        const size_t delta = i * m - j * 4;
        j = std::clamp<size_t>(j, 1, n - 1);
        q.push_back((values[j - 1] * static_cast<double>(4 - delta) +
                     values[j] * static_cast<double>(delta)) /
                    4.0);
    }
    return q;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    if (n == 0)
        return 0.0;
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Shortest round-trip text of a double. */
std::string
num(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** Metrics in print order, with units. */
class MetricSet
{
  public:
    void add(const std::string &name, double value, const std::string &unit)
    {
        if (!std::isfinite(value))
            throw std::runtime_error("metric " + name + " is not finite");
        entries.push_back({name, value, unit});
    }

    std::string json() const
    {
        std::string out = "{";
        for (size_t i = 0; i < entries.size(); ++i) {
            const Entry &e = entries[i];
            out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " +
                num(e.value) + ", \"unit\": \"" + e.unit + "\"}";
        }
        return out + "}";
    }

    void print(const char *heading) const
    {
        std::printf("%s\n", heading);
        for (const Entry &e : entries)
            std::printf("  %-30s %-14s %s\n", e.name.c_str(),
                        num(e.value).c_str(), e.unit.c_str());
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries;
};

class Bench
{
  public:
    explicit Bench(Options options)
        : opt(std::move(options)),
          specs(workloadCells(opt.workload, opt.seed)),
          scratch(std::string(PERFBENCH_SCRATCH) + "/run-" +
                  std::to_string(getpid())),
          workers(opt.workers > 0
                      ? opt.workers
                      : harness::ParallelRunner::defaultThreadCount())
    {
    }

    int run();

  private:
    double setupOnce(bool first);
    Pass runPass(size_t index, harness::BatchPhaseStats *stats);
    Pass runnerPass(size_t index);
    Pass lanesPass(harness::BatchPhaseStats *stats);
    harness::ExperimentConfig faultConfig(const CellSpec &spec,
                                          const std::string &dir) const;
    void checkPass(const Pass &pass, const Pass *reference,
                   const char *what);
    void checkGolden(const Pass &reference);
    void checkStaticTwins(const Pass &reference);
    void checkResume(const Pass &reference);
    double fig7GapPp(const Pass &reference) const;
    void tracedSplit(MetricSet &metrics);
    void perLayer(MetricSet &metrics, const Pass &reference,
                  const std::vector<Pass> &passes,
                  const harness::BatchPhaseStats &lane_stats,
                  double lane_traced_wall);
    std::string passDir(size_t index) const
    {
        return scratch + "/pass-" + std::to_string(index);
    }

    Options opt;
    std::vector<CellSpec> specs;
    std::string scratch;
    int workers;
    simd::Kernel laneKernel = simd::Kernel::Disabled;
    CheckLog log;
    size_t attempted = 0;
};

double
Bench::setupOnce(bool first)
{
    // Trace synthesis (the first set-up fills the shared trace cache the
    // workloads read; later ones synthesize the same traces uncached),
    // kernel resolution, and construction of every cell's components.
    const auto start = Clock::now();
    if (first) {
        harness::prewarmEvaluationTraces();
    } else {
        for (const PaperTrace trace : react::trace::kAllPaperTraces) {
            const auto synthesized = react::trace::makePaperTrace(trace);
            if (synthesized.duration() <= 0.0)
                throw std::runtime_error("empty trace");
        }
    }
    laneKernel = simd::resolveKernel(simd::Policy::Auto,
                                     simd::avx2Available(),
                                     simd::avx512Available());
    for (const CellSpec &spec : specs) {
        auto buffer = harness::makeBuffer(spec.buffer);
        const auto &power = harness::evaluationTrace(spec.trace);
        auto benchmark = harness::makeBenchmark(
            spec.bench, power.duration() + harness::kGridDrainAllowance,
            harness::cellSeed(opt.seed, spec.gridKey));
        const react::harvest::HarvesterFrontend frontend(power);
        if (!buffer || !benchmark)
            throw std::runtime_error("cell construction failed");
    }
    return secondsSince(start);
}

Pass
Bench::runPass(size_t index, harness::BatchPhaseStats *stats)
{
    Pass pass = opt.workload == Workload::StaticLanes ? lanesPass(stats)
                                                       : runnerPass(index);
    attempted += pass.cells.size();
    return pass;
}

Pass
Bench::runnerPass(size_t index)
{
    const bool checkpointed = opt.workload == Workload::FaultCkpt;
    const std::string dir = passDir(index);
    if (checkpointed) {
        fs::remove_all(dir);
        fs::create_directories(dir);
    }

    Pass pass;
    std::vector<ExperimentResult> results(specs.size());
    std::vector<std::string> errors(specs.size());
    harness::ParallelRunner runner(workers);
    for (size_t i = 0; i < specs.size(); ++i) {
        const CellSpec spec = specs[i];
        const harness::ExperimentConfig config =
            checkpointed ? faultConfig(spec, dir) : harness::ExperimentConfig();
        ExperimentResult *slot = &results[i];
        std::string *error = &errors[i];
        const uint64_t seed = opt.seed;
        runner.submit(spec.key, [=]() {
            try {
                *slot = harness::runGridCell(spec.buffer, spec.bench,
                                             spec.trace, config, seed);
            } catch (const std::exception &e) {
                *error = e.what();
            }
        });
    }
    const double cpu_start = cpuSeconds();
    const auto start = Clock::now();
    runner.run();
    pass.wall = secondsSince(start);
    pass.cpu = cpuSeconds() - cpu_start;
    pass.busy = runner.busySeconds();
    for (const harness::CellTiming &timing : runner.timings()) {
        pass.cellSeconds.push_back(timing.seconds);
        pass.maxCell = std::max(pass.maxCell, timing.seconds);
    }
    for (size_t i = 0; i < specs.size(); ++i) {
        if (!errors[i].empty())
            log.fail(specs[i].key, "threw: " + errors[i]);
        pass.cells.push_back({specs[i].key, std::move(results[i])});
    }

    if (checkpointed) {
        for (const auto &entry : fs::directory_iterator(dir)) {
            ++pass.snapFiles;
            pass.snapBytes += entry.file_size();
        }
        const auto load_start = Clock::now();
        for (const CellSpec &spec : specs) {
            const auto load = react::snapshot::loadSnapshotFile(
                dir + "/" + harness::checkpointFileName(spec.key));
            if (!load.ok || load.usedFallback)
                log.fail(spec.key, "snapshot did not load cleanly: " +
                                       load.diagnostic);
        }
        pass.loadUs = secondsSince(load_start) * 1e6 /
            static_cast<double>(specs.size());
    }
    return pass;
}

harness::ExperimentConfig
Bench::faultConfig(const CellSpec &spec, const std::string &dir) const
{
    // The crash-safe sweep configuration of EXPERIMENTS.md, with one file
    // per cell *including its severity and realization*.
    harness::ExperimentConfig config;
    config.faultPlan = react::sim::FaultPlan::stress(spec.severity);
    config.faultSeed = spec.faultSeed;
    config.checkpointPath = dir + "/" + harness::checkpointFileName(spec.key);
    config.checkpointEverySteps = harness::kDefaultCheckpointInterval;
    config.resume = true;
    return config;
}

Pass
Bench::lanesPass(harness::BatchPhaseStats *stats)
{
    Pass pass;
    std::vector<ExperimentResult> results(specs.size());
    std::vector<harness::GridBatchCell> batch;
    for (size_t i = 0; i < specs.size(); ++i)
        batch.push_back({specs[i].buffer, specs[i].bench, specs[i].trace,
                         &results[i]});
    const double cpu_start = cpuSeconds();
    const auto start = Clock::now();
    harness::runGridCellBatch(batch, harness::ExperimentConfig(), opt.seed,
                              laneKernel, stats);
    pass.wall = secondsSince(start);
    pass.cpu = cpuSeconds() - cpu_start;
    // One thread, no ParallelRunner: the whole stream is one unit.
    pass.busy = pass.wall;
    pass.maxCell = pass.wall;
    for (size_t i = 0; i < specs.size(); ++i)
        pass.cells.push_back({specs[i].key, std::move(results[i])});
    return pass;
}

void
Bench::checkPass(const Pass &pass, const Pass *reference, const char *what)
{
    perfbench::checkConservation(pass.cells, log);
    if (reference)
        perfbench::checkSameOutcomes(reference->cells, pass.cells, what,
                                     log);
}

void
Bench::checkGolden(const Pass &reference)
{
    // The golden pins Table 2 (DE/SC/RT) at the evaluation seed; fault
    // cells compare only at severity 0, where no injector exists.
    std::vector<CellRun> comparable;
    size_t expected = 0;
    for (size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].severity != 0.0)
            continue;
        comparable.push_back({specs[i].gridKey, reference.cells[i].result});
        if (specs[i].bench != BenchmarkKind::PacketForward)
            ++expected;
    }
    const auto golden = perfbench::loadGolden(PERFBENCH_GOLDEN);
    const size_t compared = perfbench::checkGolden(comparable, golden, log);
    std::printf("golden: %zu of %zu Table-2 cells compared against "
                "tests/golden/table2_performance.csv\n",
                compared, expected);
    if (compared != expected)
        log.fail("golden", "compared " + std::to_string(compared) +
                               " cells, expected " +
                               std::to_string(expected));
}

void
Bench::checkStaticTwins(const Pass &reference)
{
    // Every lane-engine cell must equal the classic engine's run of the
    // same cell, bit for bit.
    std::vector<ExperimentResult> twins(specs.size());
    harness::ParallelRunner runner(workers);
    for (size_t i = 0; i < specs.size(); ++i) {
        const CellSpec spec = specs[i];
        ExperimentResult *slot = &twins[i];
        const uint64_t seed = opt.seed;
        runner.submit(spec.key, [=]() {
            *slot = harness::runGridCell(spec.buffer, spec.bench, spec.trace,
                                         harness::ExperimentConfig(), seed);
        });
    }
    runner.run();
    std::vector<CellRun> classic;
    for (size_t i = 0; i < specs.size(); ++i)
        classic.push_back({specs[i].key, std::move(twins[i])});
    attempted += classic.size();
    perfbench::checkConservation(classic, log);
    perfbench::checkSameOutcomes(classic, reference.cells,
                                 "lane engine vs classic twin", log);
}

void
Bench::checkResume(const Pass &reference)
{
    // Resuming a finished cell must return its stored result unchanged.
    std::vector<CellRun> resumed;
    for (const CellSpec &spec : specs) {
        ExperimentResult r =
            harness::runGridCell(spec.buffer, spec.bench, spec.trace,
                                 faultConfig(spec, passDir(0)), opt.seed);
        if (!r.resumed)
            log.fail(spec.key, "did not resume from its finished "
                               "snapshot: " + r.snapshotDiagnostic);
        resumed.push_back({spec.key, std::move(r)});
    }
    attempted += resumed.size();
    perfbench::checkSameOutcomes(reference.cells, resumed,
                                 "resumed from snapshot", log);
}

double
Bench::fig7GapPp(const Pass &reference) const
{
    // fig7_figure_of_merit's computation over this run's cells.
    std::vector<std::vector<double>> per_benchmark;
    for (const BenchmarkKind bench : harness::kAllBenchmarks) {
        harness::MeritMatrix matrix;
        matrix.benchmarkName = harness::benchmarkKindName(bench);
        matrix.counts.assign(harness::kAllBuffers.size(), {});
        for (const BufferKind buffer : harness::kAllBuffers)
            matrix.bufferNames.push_back(harness::bufferKindName(buffer));
        for (const PaperTrace trace : react::trace::kAllPaperTraces)
            matrix.traceNames.push_back(react::trace::paperTraceName(trace));
        for (size_t i = 0; i < specs.size(); ++i) {
            if (specs[i].bench != bench)
                continue;
            const ExperimentResult &r = reference.cells[i].result;
            const double merit = bench == BenchmarkKind::PacketForward
                ? static_cast<double>(r.packetsTx + r.packetsRx)
                : static_cast<double>(r.workUnits);
            const size_t col = static_cast<size_t>(
                std::find(harness::kAllBuffers.begin(),
                          harness::kAllBuffers.end(), specs[i].buffer) -
                harness::kAllBuffers.begin());
            matrix.counts[col].push_back(merit);
        }
        per_benchmark.push_back(harness::normalizedMerit(matrix, 4));
    }
    const auto aggregate = harness::averageMerit(per_benchmark);
    double gap = 0.0;
    std::printf("fig7 headline improvements of REACT, measured (paper):");
    const char *labels[4] = {"770uF", "10mF", "17mF", "Morphy"};
    for (size_t i = 0; i < 4; ++i) {
        const double measured =
            harness::improvementOver(aggregate[i]) * 100.0;
        std::printf(" %s %+.1f%% (%+.1f%%)", labels[i], measured,
                    kPaperFig7[i]);
        gap += std::abs(measured - kPaperFig7[i]);
    }
    std::printf("\n");
    return gap / 4.0;
}

void
Bench::tracedSplit(MetricSet &metrics)
{
    // One representative cell per architecture: Sense & Compute under
    // Solar Campus is the column fault_ckpt sweeps and eval_grid holds.
    struct Arch
    {
        const char *name;
        BufferKind buffer;
    };
    const Arch archs[] = {{"static", BufferKind::Static17mF},
                          {"react", BufferKind::React},
                          {"morphy", BufferKind::Morphy}};
    std::printf("traced split: one step in %llu timed; per cell:\n",
                static_cast<unsigned long long>(perfbench::kSampleStride));

    uint64_t leak_hits = 0;
    uint64_t transfer_hits = 0;
    uint64_t schottky_lookups = 0;
    double untraced_total = 0.0;
    double traced_total = 0.0;
    for (const Arch &arch : archs) {
        const auto bench = BenchmarkKind::SenseCompute;
        const auto trace = PaperTrace::SolarCampus;
        const std::string key =
            harness::gridCellKey(bench, trace, arch.buffer);
        const ExperimentResult expected = harness::runGridCell(
            arch.buffer, bench, trace, harness::ExperimentConfig(),
            opt.seed);

        std::vector<double> untraced_s;
        std::vector<double> traced_s;
        std::vector<perfbench::StepSplit> splits;
        for (int rep = 0; rep < kReplicaReps; ++rep) {
            const auto before = react::sim::hotloop::counters();
            const perfbench::ReplicaRun plain = perfbench::runReplica(
                arch.buffer, bench, trace, opt.seed, false);
            const auto after = react::sim::hotloop::counters();
            if (rep == 0) {
                leak_hits += after.leakCacheHits - before.leakCacheHits;
                transfer_hits +=
                    after.transferCacheHits - before.transferCacheHits;
                schottky_lookups +=
                    after.schottkyTotal() - before.schottkyTotal();
            }
            const perfbench::ReplicaRun traced = perfbench::runReplica(
                arch.buffer, bench, trace, opt.seed, true);
            attempted += 2;
            for (const auto *run : {&plain, &traced}) {
                std::string why;
                if (!perfbench::sameOutcome(expected, run->result, &why))
                    log.fail(key, std::string(run == &plain ? "untraced"
                                                            : "traced") +
                                      " replica vs runGridCell: " + why);
            }
            untraced_s.push_back(plain.loopSeconds);
            traced_s.push_back(traced.loopSeconds);
            splits.push_back(traced.split);
        }
        untraced_total += median(untraced_s);
        traced_total += median(traced_s);
        std::printf("  %-6s %s: %llu steps, untraced %.1f ns/step, %llu "
                    "phase + %llu loop samples, empty span %.1f/%.1f ns\n",
                    arch.name, key.c_str(),
                    static_cast<unsigned long long>(expected.steps),
                    median(untraced_s) * 1e9 /
                        static_cast<double>(expected.steps),
                    static_cast<unsigned long long>(splits[0].phaseSamples),
                    static_cast<unsigned long long>(splits[0].loopSamples),
                    splits[0].emptyFirstNs, splits[0].emptyNs);

        const auto field = [&](double perfbench::StepSplit::*member) {
            std::vector<double> values;
            for (const auto &split : splits)
                values.push_back(split.*member);
            return median(values);
        };
        const std::string prefix = std::string("step.") + arch.name + ".";
        metrics.add(prefix + "frontend_ns",
                    field(&perfbench::StepSplit::frontendNs), "ns");
        metrics.add(prefix + "gate_ns", field(&perfbench::StepSplit::gateNs),
                    "ns");
        metrics.add(prefix + "buffer_ns",
                    field(&perfbench::StepSplit::bufferNs), "ns");
        metrics.add(prefix + "workload_ns",
                    field(&perfbench::StepSplit::workloadNs), "ns");
        metrics.add(prefix + "loop_ns", field(&perfbench::StepSplit::loopNs),
                    "ns");
    }
    metrics.add("trace.overhead_pct",
                (traced_total - untraced_total) / untraced_total * 100.0,
                "%");
    metrics.add("cache.leak_hits", static_cast<double>(leak_hits), "count");
    metrics.add("cache.transfer_hits", static_cast<double>(transfer_hits),
                "count");
    metrics.add("cache.schottky_lookups",
                static_cast<double>(schottky_lookups), "count");
}

void
Bench::perLayer(MetricSet &metrics, const Pass &reference,
                const std::vector<Pass> &passes,
                const harness::BatchPhaseStats &lane_stats,
                double lane_traced_wall)
{
    const auto per_pass = [&](const std::function<double(const Pass &)> &f) {
        std::vector<double> values;
        for (const Pass &pass : passes)
            values.push_back(f(pass));
        return median(values);
    };
    const bool lanes = opt.workload == Workload::StaticLanes;
    const double pass_workers = lanes ? 1.0 : static_cast<double>(workers);
    metrics.add("harness.busy_s",
                per_pass([](const Pass &p) { return p.busy; }), "s");
    metrics.add("harness.parallel_eff", per_pass([&](const Pass &p) {
                    return p.busy / (p.wall * pass_workers);
                }),
                "ratio");
    metrics.add("harness.max_cell_s",
                per_pass([](const Pass &p) { return p.maxCell; }), "s");

    // ns per simulated step of the cells of one class; 0 when the
    // workload has no such cell.
    const auto ns_per_step = [&](const std::function<bool(size_t)> &in) {
        return per_pass([&](const Pass &p) {
            double seconds = 0.0;
            uint64_t steps = 0;
            for (size_t i = 0; i < specs.size(); ++i) {
                if (!in(i))
                    continue;
                steps += p.cells[i].result.steps;
                if (!lanes)
                    seconds += p.cellSeconds[i];
            }
            if (lanes)
                seconds = p.wall;  // the lane stream's amortized cost
            return steps == 0 ? 0.0
                              : seconds * 1e9 / static_cast<double>(steps);
        });
    };
    const auto fault_free = [&](size_t i) {
        return specs[i].severity == 0.0;
    };
    metrics.add("cell.static_ns_per_step", ns_per_step([&](size_t i) {
                    return fault_free(i) &&
                        harness::isStaticBufferKind(specs[i].buffer);
                }),
                "ns");
    metrics.add("cell.react_ns_per_step", ns_per_step([&](size_t i) {
                    return fault_free(i) &&
                        specs[i].buffer == BufferKind::React;
                }),
                "ns");
    metrics.add("cell.morphy_ns_per_step", ns_per_step([&](size_t i) {
                    return fault_free(i) &&
                        specs[i].buffer == BufferKind::Morphy;
                }),
                "ns");
    metrics.add("cell.faulted_ns_per_step",
                ns_per_step([&](size_t i) { return !fault_free(i); }), "ns");

    uint64_t steps = 0;
    uint64_t work = 0;
    uint64_t cycles = 0;
    uint64_t faults = 0;
    uint64_t retired = 0;
    for (const CellRun &cell : reference.cells) {
        steps += cell.result.steps;
        work += cell.result.workUnits;
        cycles += cell.result.powerCycles;
        faults += cell.result.faultEvents;
        retired += static_cast<uint64_t>(cell.result.banksRetired);
    }

    const double lane_phase_ns = static_cast<double>(
        lane_stats.frontendNs + lane_stats.physicsNs +
        lane_stats.workloadNs + lane_stats.bookkeepingNs);
    const auto share = [&](uint64_t ns) {
        return lane_phase_ns > 0.0 ? static_cast<double>(ns) / lane_phase_ns
                                   : 0.0;
    };
    const double median_wall =
        per_pass([](const Pass &p) { return p.wall; });
    metrics.add("lanes.cell_steps_per_s",
                lanes ? static_cast<double>(steps) / median_wall : 0.0,
                "1/s");
    metrics.add("lanes.occupancy",
                lane_stats.steps == 0
                    ? 0.0
                    : static_cast<double>(steps) /
                        (static_cast<double>(lane_stats.steps) *
                         react::sim::BatchStepper::kMaxLanes),
                "ratio");
    metrics.add("lanes.iterations", static_cast<double>(lane_stats.steps),
                "count");
    metrics.add("lanes.frontend_share", share(lane_stats.frontendNs),
                "ratio");
    metrics.add("lanes.physics_share", share(lane_stats.physicsNs), "ratio");
    metrics.add("lanes.workload_share", share(lane_stats.workloadNs),
                "ratio");
    metrics.add("lanes.bookkeeping_share", share(lane_stats.bookkeepingNs),
                "ratio");
    metrics.add("lanes.overhead_pct",
                lanes ? (lane_traced_wall - median_wall) / median_wall * 100.0
                      : 0.0,
                "%");

    metrics.add("snapshot.files", per_pass([](const Pass &p) {
                    return static_cast<double>(p.snapFiles);
                }),
                "count");
    metrics.add("snapshot.bytes", per_pass([](const Pass &p) {
                    return static_cast<double>(p.snapBytes);
                }),
                "B");
    metrics.add("snapshot.load_us",
                per_pass([](const Pass &p) { return p.loadUs; }), "us");

    metrics.add("count.steps", static_cast<double>(steps), "count");
    metrics.add("count.work_units", static_cast<double>(work), "count");
    metrics.add("count.power_cycles", static_cast<double>(cycles), "count");
    metrics.add("count.fault_events", static_cast<double>(faults), "count");
    metrics.add("count.banks_retired", static_cast<double>(retired),
                "count");
}

int
Bench::run()
{
    fs::create_directories(scratch);

    std::vector<double> setups;
    for (int rep = 0; rep < kSetupReps; ++rep)
        setups.push_back(setupOnce(rep == 0));

    std::printf("host {\"cpu\": \"%s\", \"avx2\": %s, \"avx512f\": %s, "
                "\"nproc\": %u, \"lane_kernel\": \"%s\", \"workers\": %d, "
                "\"seed\": %llu, \"workload\": \"%s\", \"trace\": %d}\n",
                jsonEscape(cpuModel()).c_str(),
                simd::cpuSupportsAvx2() ? "true" : "false",
                simd::cpuSupportsAvx512f() ? "true" : "false",
                std::thread::hardware_concurrency(),
                simd::kernelName(laneKernel),
                opt.workload == Workload::StaticLanes ? 1 : workers,
                static_cast<unsigned long long>(opt.seed),
                opt.workloadName.c_str(), opt.trace ? 1 : 0);
    if (opt.workload == Workload::StaticLanes &&
        laneKernel == simd::Kernel::Disabled)
        throw std::runtime_error("no lane kernel resolved");

    // An untimed warm-up pass: the first run of a ParallelRunner's fresh
    // worker threads is up to 40 % slower.  It is also the reference
    // every timed pass must match bit for bit.
    const Pass reference = runPass(0, nullptr);
    checkPass(reference, nullptr, "reference");
    if (opt.workload == Workload::FaultCkpt)
        checkResume(reference);
    fs::remove_all(passDir(0));

    std::vector<Pass> passes;
    const auto measure_start = Clock::now();
    while (true) {
        const double elapsed = secondsSince(measure_start);
        if (passes.size() >= kMinPasses) {
            const double per_pass = elapsed / static_cast<double>(
                passes.size());
            if (elapsed + per_pass > opt.seconds)
                break;
        }
        const size_t index = passes.size() + 1;
        passes.push_back(runPass(index, nullptr));
        checkPass(passes.back(), &reference, "pass vs reference");
        fs::remove_all(passDir(index));
    }
    const double peak_rss = peakRssMb();

    std::vector<double> walls;
    std::vector<double> cpus;
    for (const Pass &pass : passes) {
        walls.push_back(pass.wall);
        cpus.push_back(pass.cpu);
    }
    uint64_t steps = 0;
    for (const CellRun &cell : reference.cells)
        steps += cell.result.steps;

    MetricSet metrics;
    if (opt.trace) {
        harness::BatchPhaseStats lane_stats;
        double lane_traced_wall = 0.0;
        if (opt.workload == Workload::StaticLanes) {
            const Pass traced = runPass(passes.size() + 1, &lane_stats);
            checkPass(traced, &reference, "instrumented lanes vs reference");
            lane_traced_wall = traced.wall;
        }
        perLayer(metrics, reference, passes, lane_stats, lane_traced_wall);
        tracedSplit(metrics);
    } else {
        metrics.add("wall_s", median(walls), "s");
        metrics.add("sim_steps_per_s",
                    static_cast<double>(steps) / median(walls), "1/s");
        metrics.add("cpu_s", median(cpus), "s");
        metrics.add("setup_s", median(setups), "s");
        metrics.add("peak_rss_mb", peak_rss, "MB");
    }

    // Output checks (untimed).
    if (opt.seed == kGoldenSeed)
        checkGolden(reference);
    else
        std::printf("golden: skipped (recorded at seed %llu)\n",
                    static_cast<unsigned long long>(kGoldenSeed));
    if (opt.workload == Workload::StaticLanes)
        checkStaticTwins(reference);
    if (opt.workload == Workload::EvalGrid)
        std::printf("fig7_gap_pp %s pp (mean |measured - paper| of the "
                    "four headline improvements)\n",
                    num(fig7GapPp(reference)).c_str());
    else if (opt.workload == Workload::FaultCkpt)
        std::printf("fig7_gap_pp n/a: fault injection has no paper "
                    "reference, so this model is unvalidated\n");
    fs::remove_all(scratch);

    std::printf("pass walls (s):");
    for (const double wall : walls)
        std::printf(" %.3f", wall);
    std::printf("\n");
    const auto wall_q = quartiles(walls);
    std::printf("passes %zu (after 1 untimed warm-up), wall_s q1 %s median %s q3 "
                "%s\n",
                passes.size(), num(wall_q[0]).c_str(),
                num(median(walls)).c_str(), num(wall_q[2]).c_str());
    std::printf("cells attempted %zu, failed %zu, fail_frac %s\n",
                attempted, log.failed(),
                num(static_cast<double>(log.failed()) /
                    static_cast<double>(attempted))
                    .c_str());
    for (const std::string &reason : log.reasons())
        std::printf("FAILED %s\n", reason.c_str());
    metrics.print(opt.trace ? "per-layer metrics:" : "end-to-end metrics:");
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                log.failed() == 0 ? "true" : "false", attempted,
                log.failed(), metrics.json().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    for (const char *name : kRefusedEnv) {
        if (std::getenv(name) != nullptr) {
            std::fprintf(stderr,
                         "perfbench: refusing to run with %s set: it "
                         "changes what the workloads measure\n",
                         name);
            return 2;
        }
    }
    const Options opt = parseArgs(argc, argv);
    try {
        Bench bench(opt);
        return bench.run();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
