#include "experiment.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "harness/paper_setup.hh"
#include "snapshot/snapshot.hh"
#include "util/crc32.hh"
#include "util/logging.hh"

namespace react {
namespace harness {

double
ExperimentResult::meanOnPeriod() const
{
    return powerCycles > 0 ? onTime / static_cast<double>(powerCycles)
                           : 0.0;
}

double
ExperimentResult::dutyCycle() const
{
    return totalTime > 0.0 ? onTime / totalTime : 0.0;
}

uint64_t
ExperimentResult::workLostVersus(const ExperimentResult &fault_free) const
{
    return fault_free.workUnits > workUnits
        ? fault_free.workUnits - workUnits
        : 0;
}

namespace {

/** Rail recording, as both the result and the mid-run "experiment"
 *  checkpoint section store it. */
void
saveRail(snapshot::SnapshotWriter &w, const std::vector<RailSample> &rail)
{
    w.u32(static_cast<uint32_t>(rail.size()));
    for (const auto &s : rail) {
        w.f64(s.time);
        w.f64(s.voltage);
        w.b(s.backendOn);
        w.u32(static_cast<uint32_t>(s.level));
    }
}

/** The counts come from a file that may be damaged, so nothing is
 *  reserved up front: a lying count runs into the section end
 *  (SnapshotError) instead of a huge allocation. */
void
restoreRail(snapshot::SnapshotReader &r, std::vector<RailSample> *rail)
{
    rail->clear();
    const uint32_t samples = r.u32();
    for (uint32_t i = 0; i < samples; ++i) {
        RailSample s;
        s.time = r.f64();
        s.voltage = r.f64();
        s.backendOn = r.b();
        s.level = static_cast<int>(r.u32());
        rail->push_back(s);
    }
}

/**
 * The finished checkpoint's "result" section payload.  Every field is
 * stored except the operational ones (resumed, snapshotFallback,
 * snapshotDiagnostic), so a result returned out of a finished
 * checkpoint equals a direct run.
 */
void
saveResult(snapshot::SnapshotWriter &w, const ExperimentResult &res)
{
    w.str(res.bufferName);
    w.str(res.benchmarkName);
    w.str(res.traceName);
    w.f64(res.latency);
    w.f64(res.onTime);
    w.f64(res.totalTime);
    w.u64(res.steps);
    w.u64(res.powerCycles);
    w.u64(res.workUnits);
    w.u64(res.packetsRx);
    w.u64(res.packetsTx);
    w.u64(res.failedOps);
    w.u64(res.missedEvents);
    res.ledger.save(w);
    w.f64(res.residualEnergy);
    w.f64(res.conservationError);
    w.u64(res.faultEvents);
    w.u64(res.recoveryEvents);
    w.u32(static_cast<uint32_t>(res.banksRetired));
    w.u32(static_cast<uint32_t>(res.framRecoveries));
    w.u32(static_cast<uint32_t>(res.faultLog.size()));
    for (const auto &ev : res.faultLog) {
        w.f64(ev.time.raw());
        w.u8(static_cast<uint8_t>(ev.kind));
        w.str(ev.component);
        w.f64(ev.magnitude);
    }
    saveRail(w, res.rail);
    w.b(res.halted);
    w.u32(res.stateDigest);
}

void
restoreResult(snapshot::SnapshotReader &r, ExperimentResult *res)
{
    res->bufferName = r.str();
    res->benchmarkName = r.str();
    res->traceName = r.str();
    res->latency = r.f64();
    res->onTime = r.f64();
    res->totalTime = r.f64();
    res->steps = r.u64();
    res->powerCycles = r.u64();
    res->workUnits = r.u64();
    res->packetsRx = r.u64();
    res->packetsTx = r.u64();
    res->failedOps = r.u64();
    res->missedEvents = r.u64();
    res->ledger.restore(r);
    res->residualEnergy = r.f64();
    res->conservationError = r.f64();
    res->faultEvents = r.u64();
    res->recoveryEvents = r.u64();
    res->banksRetired = static_cast<int>(r.u32());
    res->framRecoveries = static_cast<int>(r.u32());
    res->faultLog.clear();
    const uint32_t events = r.u32();
    for (uint32_t i = 0; i < events; ++i) {
        sim::FaultEvent ev;
        ev.time = units::Seconds(r.f64());
        const uint8_t kind = r.u8();
        if (kind > static_cast<uint8_t>(sim::FaultEventKind::FramRecovery))
            throw snapshot::SnapshotError("fault event kind out of range");
        ev.kind = static_cast<sim::FaultEventKind>(kind);
        ev.component = r.str();
        ev.magnitude = r.f64();
        res->faultLog.push_back(std::move(ev));
    }
    restoreRail(r, &res->rail);
    res->halted = r.b();
    res->stateDigest = r.u32();
}

} // namespace

CellRun::CellRun(buffer::EnergyBuffer &buffer_,
                 workload::Benchmark *benchmark_,
                 const harvest::HarvesterFrontend &frontend_,
                 const ExperimentConfig &config_)
    : buffer(buffer_), benchmark(benchmark_), frontend(frontend_),
      config(config_), device(backendSpec()),
      gate(units::Volts(config_.enableVoltage),
           units::Volts(config_.brownoutVoltage))
{
    coldStart();
}

CellRun::~CellRun()
{
    if (injector)
        buffer.attachFaultInjector(nullptr);
}

void
CellRun::coldStart()
{
    buffer.reset();
    if (benchmark)
        benchmark->reset();
    device.reset();
    gate.reset();

    // Fault injection is strictly opt-in: with the all-zero default plan
    // no injector exists and every code path is bit-identical to the
    // fault-free build.
    if (config.faultPlan.enabled()) {
        injector = std::make_unique<sim::FaultInjector>(config.faultPlan,
                                                        config.faultSeed);
        buffer.attachFaultInjector(injector.get());
        gate.attachFaultInjector(injector.get());
    }
    storedStart = buffer.storedEnergy().raw();
    nextRecord = 0.0;

    result = ExperimentResult();
    result.bufferName = buffer.name();
    result.benchmarkName = benchmark ? benchmark->name() : "(none)";
    result.traceName = frontend.trace().name();

    ctx.device = &device;
    ctx.buffer = &buffer;
    ctx.dt = config.dt;
    ctx.workScale = 1.0 - buffer.softwareOverheadFraction();
}

void
CellRun::gateEdge(double t)
{
    ctx.now = t;
    if (gate.isOn()) {
        if (result.latency < 0.0)
            result.latency = t;
        device.setState(mcu::PowerState::Active);
        buffer.notifyBackendPower(true);
        if (benchmark)
            benchmark->onPowerUp(ctx);
    } else {
        if (benchmark)
            benchmark->onPowerDown(ctx);
        device.setState(mcu::PowerState::Off);
        buffer.notifyBackendPower(false);
    }
}

void
CellRun::sampleRail(double t, double rail_voltage)
{
    if (t >= nextRecord) {
        nextRecord += config.recordInterval;
        result.rail.push_back(
            {t, rail_voltage, gate.isOn(), buffer.capacitanceLevel()});
    }
}

void
CellRun::finish(double t)
{
    result.totalTime = t;
    result.powerCycles = device.powerCycles();
    if (benchmark) {
        result.workUnits = benchmark->workUnits();
        result.packetsRx = benchmark->packetsReceived();
        result.packetsTx = benchmark->packetsSent();
        result.failedOps = benchmark->failedOperations();
        result.missedEvents = benchmark->missedEvents();
    }
    result.ledger = buffer.ledger();
    result.residualEnergy = buffer.storedEnergy().raw();

    // Per-run conservation audit: everything harvested must be accounted
    // for by delivery, booked losses, or the change in stored energy.
    // (Also valid for a halted partial run: the ledger balances at every
    // step, not just at the end.)
    result.conservationError =
        result.ledger
            .conservationError(units::Joules(result.residualEnergy -
                                             storedStart))
            .raw();
    const double tolerance =
        1e-9 * std::max(1.0, result.ledger.harvested.raw());
    if (std::abs(result.conservationError) > tolerance) {
        if (config.strictConservation) {
            react_panic("energy ledger violated conservation: error %.3e J "
                        "(harvested %.3e J, tolerance %.3e J)",
                        result.conservationError,
                        result.ledger.harvested.raw(), tolerance);
        }
        react_warn("energy ledger conservation error %.3e J exceeds "
                   "tolerance %.3e J (%s / %s / %s)",
                   result.conservationError, tolerance,
                   result.bufferName.c_str(),
                   result.benchmarkName.c_str(),
                   result.traceName.c_str());
    }

    if (injector) {
        result.faultEvents = injector->faultCount();
        result.recoveryEvents = injector->recoveryCount();
        result.banksRetired = static_cast<int>(
            injector->eventCount(sim::FaultEventKind::BankRetired));
        result.framRecoveries = static_cast<int>(
            injector->eventCount(sim::FaultEventKind::FramRecovery));
        result.faultLog = injector->events();
    }

    // Fingerprint the complete final state.  Two runs finished from
    // different checkpoints (or none) are bit-identical iff this digest
    // and the explicit counters match; the event queue cursors inside
    // the benchmark make delivery ids part of the fingerprint.
    snapshot::SnapshotWriter dw;
    dw.beginSection("digest");
    gate.save(dw);
    device.save(dw);
    buffer.save(dw);
    if (benchmark)
        benchmark->save(dw);
    if (injector)
        injector->save(dw);
    dw.endSection();
    const std::vector<uint8_t> image = dw.finish();
    result.stateDigest = crc32(image.data(), image.size());
}

ExperimentResult
runExperiment(buffer::EnergyBuffer &buffer, workload::Benchmark *benchmark,
              const harvest::HarvesterFrontend &frontend,
              const ExperimentConfig &config)
{
    CellRun cell(buffer, benchmark, frontend, config);
    ExperimentResult &result = cell.result;
    mcu::Device &device = cell.device;
    sim::PowerGate &gate = cell.gate;

    const double trace_duration = frontend.traceDuration().raw();

    double t = 0.0;
    double off_streak = 0.0;

    // Snapshot layout.  The meta section pins the experiment identity --
    // including the fault plan, which two cells of one fault sweep may
    // be all that tells apart -- so a stale checkpoint from a different
    // cell is rejected (and degrades to a cold start) instead of
    // silently resuming the wrong run.
    const auto write_checkpoint = [&](bool finished) {
        snapshot::SnapshotWriter w;
        w.beginSection("meta");
        w.str(result.bufferName);
        w.str(result.benchmarkName);
        w.str(result.traceName);
        w.f64(config.dt);
        w.u64(config.faultSeed);
        w.u64(config.faultPlan.digest());
        w.b(finished);
        w.endSection();
        if (finished) {
            w.beginSection("result");
            saveResult(w, result);
            w.endSection();
        } else {
            w.beginSection("experiment");
            w.f64(t);
            w.f64(off_streak);
            w.f64(cell.nextRecord);
            w.f64(cell.storedStart);
            w.u64(result.steps);
            w.f64(result.latency);
            w.f64(result.onTime);
            saveRail(w, result.rail);
            w.endSection();
            w.beginSection("gate");
            gate.save(w);
            w.endSection();
            w.beginSection("device");
            device.save(w);
            w.endSection();
            w.beginSection("buffer");
            buffer.save(w);
            w.endSection();
            if (benchmark) {
                w.beginSection("benchmark");
                benchmark->save(w);
                w.endSection();
            }
            if (cell.injector) {
                w.beginSection("injector");
                cell.injector->save(w);
                w.endSection();
            }
        }
        std::string err;
        if (!snapshot::saveSnapshotFile(config.checkpointPath, w.finish(),
                                        &err))
            react_warn("checkpoint write failed: %s", err.c_str());
    };

    if (!config.checkpointPath.empty() && config.resume) {
        snapshot::SnapshotLoad load =
            snapshot::loadSnapshotFile(config.checkpointPath);
        result.snapshotFallback = load.usedFallback;
        result.snapshotDiagnostic = load.diagnostic;
        if (load.ok) {
            try {
                snapshot::SnapshotReader r(std::move(load.image));
                r.beginSection("meta");
                const std::string buf_name = r.str();
                const std::string bench_name = r.str();
                const std::string trace_name = r.str();
                const double dt = r.f64();
                const uint64_t seed = r.u64();
                const uint64_t plan_digest = r.u64();
                const bool finished = r.b();
                r.endSection();
                if (buf_name != result.bufferName ||
                    bench_name != result.benchmarkName ||
                    trace_name != result.traceName || dt != config.dt ||
                    seed != config.faultSeed ||
                    plan_digest != config.faultPlan.digest())
                    throw snapshot::SnapshotError(
                        "checkpoint belongs to a different experiment (" +
                        buf_name + " / " + bench_name + " / " +
                        trace_name + ")");
                if (finished) {
                    r.beginSection("result");
                    restoreResult(r, &result);
                    r.endSection();
                    result.resumed = true;
                    return std::move(result);
                }
                r.beginSection("experiment");
                t = r.f64();
                off_streak = r.f64();
                cell.nextRecord = r.f64();
                cell.storedStart = r.f64();
                result.steps = r.u64();
                result.latency = r.f64();
                result.onTime = r.f64();
                restoreRail(r, &result.rail);
                r.endSection();
                r.beginSection("gate");
                gate.restore(r);
                r.endSection();
                r.beginSection("device");
                device.restore(r);
                r.endSection();
                r.beginSection("buffer");
                buffer.restore(r);
                r.endSection();
                if (benchmark) {
                    r.beginSection("benchmark");
                    benchmark->restore(r);
                    r.endSection();
                }
                if (cell.injector) {
                    r.beginSection("injector");
                    cell.injector->restore(r);
                    r.endSection();
                }
                result.resumed = true;
            } catch (const snapshot::SnapshotError &e) {
                react_warn("checkpoint rejected (%s); cold-starting",
                           e.what());
                cell.coldStart();
                t = 0.0;
                off_streak = 0.0;
                result.snapshotFallback = load.usedFallback;
                result.snapshotDiagnostic = load.diagnostic +
                    "; rejected: " + e.what();
            }
        }
    }

    while (true) {
        t += config.dt;
        ++result.steps;

        // Power gate observes the rail left by the previous step.
        if (gate.update(buffer.railVoltage()))
            cell.gateEdge(t);

        units::Watts input_power = frontend.power(units::Seconds(t));
        if (cell.injector) {
            cell.injector->advance(units::Seconds(config.dt));
            input_power = cell.injector->filterHarvest(input_power);
        }
        buffer.step(units::Seconds(config.dt), input_power,
                    units::Amps(device.current()));

        if (gate.isOn()) {
            result.onTime += config.dt;
            off_streak = 0.0;
            if (benchmark) {
                cell.ctx.now = t;
                benchmark->tick(cell.ctx);
            } else {
                device.setState(mcu::PowerState::Active);
            }
        } else {
            off_streak += config.dt;
        }

        if (config.recordRail)
            cell.sampleRail(t, buffer.railVoltage().raw());

        if (config.stopAfterLatency && result.latency >= 0.0)
            break;

        if (t >= trace_duration) {
            if (off_streak >= config.settleTime)
                break;
            if (t >= trace_duration + config.drainAllowance)
                break;
        }

        // The simulated crash stops before the checkpoint below: a real
        // power failure does not get to flush its final state either.
        if (config.haltAfterSteps > 0 &&
            result.steps >= config.haltAfterSteps) {
            result.halted = true;
            break;
        }

        if (!config.checkpointPath.empty() &&
            config.checkpointEverySteps > 0 &&
            result.steps % config.checkpointEverySteps == 0)
            write_checkpoint(false);
    }

    cell.finish(t);

    // A completed cell leaves a "finished" snapshot behind so resuming
    // it again is instant; a simulated crash leaves whatever periodic
    // checkpoint was last flushed, exactly like a real power failure.
    if (!config.checkpointPath.empty() && !result.halted)
        write_checkpoint(true);

    return std::move(result);
}

} // namespace harness
} // namespace react
