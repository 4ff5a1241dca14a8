#include "replica.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <vector>

#include "harness/grid.hh"
#include "harness/parallel_runner.hh"
#include "harvest/frontend.hh"
#include "mcu/device.hh"
#include "sim/power_gate.hh"
#include "snapshot/snapshot.hh"
#include "util/crc32.hh"

namespace perfbench {

namespace harness = react::harness;
namespace units = react::units;

namespace {

using Clock = std::chrono::steady_clock;

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** What a sampled step times. */
enum class Sample
{
    None,
    /** Four spans: gate, frontend, buffer, workload. */
    Phase,
    /** One span around the whole iteration. */
    Loop,
    /** Three back-to-back clock reads, then an untimed iteration. */
    Empty,
};

/** Raw spans of the sampled steps, before calibration. */
struct Spans
{
    std::vector<std::array<int64_t, 4>> phase;
    std::vector<int64_t> loop;
    /** A sample's first span also pays for the clock read that follows
     *  a stretch of untimed steps; later spans do not.  Empty samples
     *  measure both kinds: {first, later}. */
    std::vector<std::array<int64_t, 2>> empty;
};

/** Share of samples, the slowest, dropped before averaging: a sample
 *  that straddles a preemption or interrupt would otherwise dominate the
 *  mean. */
constexpr double kTrimShare = 0.01;

/** Mean of @p values without the slowest kTrimShare of them. */
double
trimmedMean(std::vector<int64_t> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t keep = values.size() -
        static_cast<size_t>(static_cast<double>(values.size()) * kTrimShare);
    double sum = 0.0;
    for (size_t i = 0; i < keep; ++i)
        sum += static_cast<double>(values[i]);
    return sum / static_cast<double>(keep);
}

/**
 * runExperiment's loop for the grid configuration.  Every statement
 * below mirrors one in harness/experiment.cc; the Traced instantiation
 * only adds clock reads on sampled steps.
 */
template <bool Traced>
void
stepLoop(react::buffer::EnergyBuffer &buffer,
         react::workload::Benchmark &benchmark,
         const react::harvest::HarvesterFrontend &frontend,
         react::mcu::Device &device, react::sim::PowerGate &gate,
         const harness::ExperimentConfig &config,
         harness::ExperimentResult &result, Spans &spans)
{
    const double trace_duration = frontend.traceDuration().raw();
    react::workload::BenchContext ctx;
    ctx.device = &device;
    ctx.buffer = &buffer;
    ctx.workScale = 1.0 - buffer.softwareOverheadFraction();

    double t = 0.0;
    double off_streak = 0.0;
    constexpr Sample kRotation[3] = {Sample::Phase, Sample::Loop,
                                     Sample::Empty};
    uint64_t countdown = kSampleStride;
    size_t turn = 0;

    while (true) {
        Sample sample = Sample::None;
        int64_t s0 = 0;
        int64_t s1 = 0;
        int64_t s2 = 0;
        int64_t s3 = 0;
        if constexpr (Traced) {
            if (--countdown == 0) {
                countdown = kSampleStride;
                sample = kRotation[turn];
                turn = (turn + 1) % 3;
                s0 = nowNs();
                if (sample == Sample::Empty) {
                    const int64_t e1 = nowNs();
                    const int64_t e2 = nowNs();
                    spans.empty.push_back({e1 - s0, e2 - e1});
                }
            }
        }
        const bool phase_sample = sample == Sample::Phase;

        t += config.dt;
        ++result.steps;

        if (gate.update(buffer.railVoltage())) {
            ctx.now = t;
            ctx.dt = config.dt;
            if (gate.isOn()) {
                if (result.latency < 0.0)
                    result.latency = t;
                device.setState(react::mcu::PowerState::Active);
                buffer.notifyBackendPower(true);
                benchmark.onPowerUp(ctx);
            } else {
                benchmark.onPowerDown(ctx);
                device.setState(react::mcu::PowerState::Off);
                buffer.notifyBackendPower(false);
            }
        }
        if constexpr (Traced) {
            if (phase_sample)
                s1 = nowNs();
        }

        const units::Watts input_power = frontend.power(units::Seconds(t));
        if constexpr (Traced) {
            if (phase_sample)
                s2 = nowNs();
        }

        buffer.step(units::Seconds(config.dt), input_power,
                    units::Amps(device.current()));
        if constexpr (Traced) {
            if (phase_sample)
                s3 = nowNs();
        }

        if (gate.isOn()) {
            result.onTime += config.dt;
            off_streak = 0.0;
            ctx.now = t;
            ctx.dt = config.dt;
            benchmark.tick(ctx);
        } else {
            off_streak += config.dt;
        }
        if constexpr (Traced) {
            if (phase_sample) {
                const int64_t s4 = nowNs();
                spans.phase.push_back({s1 - s0, s2 - s1, s3 - s2, s4 - s3});
            }
        }

        const bool done = t >= trace_duration &&
            (off_streak >= config.settleTime ||
             t >= trace_duration + config.drainAllowance);
        if constexpr (Traced) {
            if (sample == Sample::Loop)
                spans.loop.push_back(nowNs() - s0);
        }
        if (done)
            break;
    }
    result.totalTime = t;
}

} // namespace

ReplicaRun
runReplica(harness::BufferKind buffer_kind,
           harness::BenchmarkKind bench_kind,
           react::trace::PaperTrace trace_kind, uint64_t base_seed,
           bool traced)
{
    // Construction exactly as runGridCell (grid.cc).
    const std::string cell_key =
        harness::gridCellKey(bench_kind, trace_kind, buffer_kind);
    auto buffer = harness::makeBuffer(buffer_kind);
    const auto &power = harness::evaluationTrace(trace_kind);
    auto benchmark = harness::makeBenchmark(
        bench_kind, power.duration() + harness::kGridDrainAllowance,
        harness::cellSeed(base_seed, cell_key));
    const react::harvest::HarvesterFrontend frontend(power);
    const harness::ExperimentConfig config;

    // Set-up exactly as runExperiment.
    buffer->reset();
    benchmark->reset();
    react::mcu::Device device(harness::backendSpec());
    react::sim::PowerGate gate(units::Volts(config.enableVoltage),
                               units::Volts(config.brownoutVoltage));
    const double stored_start = buffer->storedEnergy().raw();

    ReplicaRun run;
    harness::ExperimentResult &result = run.result;
    result.bufferName = buffer->name();
    result.benchmarkName = benchmark->name();
    result.traceName = frontend.trace().name();

    Spans spans;
    if (traced) {
        // Room for the longest possible run, so no sample reallocates.
        const size_t samples =
            static_cast<size_t>((frontend.traceDuration().raw() +
                                 config.drainAllowance) /
                                config.dt) /
            kSampleStride;
        spans.phase.reserve(samples / 3 + 1);
        spans.loop.reserve(samples / 3 + 1);
        spans.empty.reserve(samples / 3 + 1);
    }
    const auto start = Clock::now();
    if (traced)
        stepLoop<true>(*buffer, *benchmark, frontend, device, gate, config,
                       result, spans);
    else
        stepLoop<false>(*buffer, *benchmark, frontend, device, gate,
                        config, result, spans);
    run.loopSeconds =
        std::chrono::duration<double>(Clock::now() - start).count();

    result.powerCycles = device.powerCycles();
    result.workUnits = benchmark->workUnits();
    result.packetsRx = benchmark->packetsReceived();
    result.packetsTx = benchmark->packetsSent();
    result.failedOps = benchmark->failedOperations();
    result.missedEvents = benchmark->missedEvents();
    result.ledger = buffer->ledger();
    result.residualEnergy = buffer->storedEnergy().raw();
    result.conservationError =
        result.ledger
            .conservationError(units::Joules(result.residualEnergy -
                                             stored_start))
            .raw();

    react::snapshot::SnapshotWriter dw;
    dw.beginSection("digest");
    gate.save(dw);
    device.save(dw);
    buffer->save(dw);
    benchmark->save(dw);
    dw.endSection();
    const std::vector<uint8_t> image = dw.finish();
    result.stateDigest = react::crc32(image.data(), image.size());

    if (traced) {
        StepSplit &split = run.split;
        split.phaseSamples = spans.phase.size();
        split.loopSamples = spans.loop.size();
        const auto column = [](const auto &samples, size_t index) {
            std::vector<int64_t> values;
            values.reserve(samples.size());
            for (const auto &sample : samples)
                values.push_back(sample[index]);
            return trimmedMean(std::move(values));
        };
        split.emptyFirstNs = column(spans.empty, 0);
        split.emptyNs = column(spans.empty, 1);
        split.gateNs = column(spans.phase, 0) - split.emptyFirstNs;
        split.frontendNs = column(spans.phase, 1) - split.emptyNs;
        split.bufferNs = column(spans.phase, 2) - split.emptyNs;
        split.workloadNs = column(spans.phase, 3) - split.emptyNs;
        split.loopNs = trimmedMean(std::move(spans.loop)) -
            split.emptyFirstNs;
    }
    return run;
}

} // namespace perfbench
