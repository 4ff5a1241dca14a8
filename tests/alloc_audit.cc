/**
 * @file
 * Heap-allocation audit of the engine's step paths, run as the
 * `alloc_audit` ctest entry.
 *
 * Global operator new/delete are replaced with counting shims; each
 * buffer architecture and the batch lane engine are stepped through a
 * window of steps, and any allocation on that path fails the process.
 * One line per audited path is printed, tagged [ok] or [FAIL].
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "buffers/morphy_buffer.hh"
#include "buffers/static_buffer.hh"
#include "core/react_buffer.hh"
#include "harness/batch_runner.hh"
#include "harness/paper_setup.hh"
#include "harvest/frontend.hh"
#include "sim/batch_stepper.hh"
#include "sim/simd.hh"
#include "trace/power_trace.hh"
#include "workload/de_benchmark.hh"

// ---------------------------------------------------------------------------
// Counting allocator shims.  Relaxed ordering suffices: the audit reads the
// counter on the same thread that allocates.
// ---------------------------------------------------------------------------

namespace {

std::atomic<uint64_t> g_allocCount{0};

/** Written after every audited step so the loops cannot be elided. */
volatile double g_sink = 0.0;

uint64_t
allocCount()
{
    return g_allocCount.load(std::memory_order_relaxed);
}

} // namespace

// GCC pairs the replacement delete below against the *default* operator
// new and warns about free(); the pairing is correct here because the
// replacement new above allocates with malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(size_t size)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

namespace {

using namespace react;

// ---------------------------------------------------------------------------
// Steady-state zero-allocation audit.
//
// Warm each architecture past its transient (bank bring-up, ladder climb),
// then count heap allocations over a window of steps.  The engine contract
// -- established by preallocating the CapacitorNetwork topology scratch --
// is *zero* on this path; any count is a regression and fails the binary.
// ---------------------------------------------------------------------------

template <typename Buffer>
uint64_t
auditSteps(Buffer &buf, int steps)
{
    const uint64_t before = allocCount();
    for (int i = 0; i < steps; ++i) {
        buf.step(units::Seconds(1e-3), units::Watts(3e-3),
                 units::Amps(1e-3));
        g_sink = buf.railVoltage().raw();
    }
    return allocCount() - before;
}

int
runAllocationAudit()
{
    constexpr int kWarmupSteps = 20000;
    constexpr int kAuditSteps = 100000;
    int failures = 0;

    auto report = [&](const char *name, uint64_t allocs) {
        std::printf("alloc-audit: %-18s %8llu allocations / %d steps %s\n",
                    name, static_cast<unsigned long long>(allocs),
                    kAuditSteps, allocs == 0 ? "[ok]" : "[FAIL]");
        if (allocs != 0)
            ++failures;
    };

    {
        buffer::StaticBuffer buf(
            harness::staticBufferSpec(units::Farads(10e-3)));
        auditSteps(buf, kWarmupSteps);
        report("StaticBuffer", auditSteps(buf, kAuditSteps));
    }
    {
        core::ReactBuffer buf;
        // Charge with the backend off, then run powered so the bank
        // scheduler exercises its normal rotate/adapt cadence.
        auditSteps(buf, kWarmupSteps);
        buf.notifyBackendPower(true);
        auditSteps(buf, kWarmupSteps);
        report("ReactBuffer", auditSteps(buf, kAuditSteps));
    }
    {
        buffer::MorphyBuffer buf;
        // The warmup climbs the configuration ladder; the audit window
        // still crosses reconfigurations (threshold hunting), which the
        // shared-ladder storage keeps allocation-free.
        auditSteps(buf, kWarmupSteps);
        report("MorphyBuffer", auditSteps(buf, kAuditSteps));
    }

    // Reconfiguration-phase audit: no warmup at all.  The window starts
    // at the very first step and spans the bring-up transient -- REACT's
    // bank actuations and FRAM persists with the backend already on,
    // Morphy's cold ladder climb with its adoptConfig() recompilations.
    // The flattened network state, the transfer caches, and the FRAM
    // image are all sized at construction, so even the first step after
    // every reconfiguration must be allocation-free.
    {
        core::ReactBuffer buf;
        buf.notifyBackendPower(true);
        report("ReactBuffer cold", auditSteps(buf, kAuditSteps));
    }
    {
        buffer::MorphyBuffer buf;
        report("MorphyBuffer cold", auditSteps(buf, kAuditSteps));
    }

    // Batch lane engine: admission (the transpose), the very first step
    // after it, and the steady stepping loop must all be heap-free --
    // the whole engine lives in fixed-capacity member arrays.  Audit
    // every kernel this host can run.
    {
        std::vector<sim::simd::Kernel> kernels = {
            sim::simd::Kernel::Scalar};
        if (sim::simd::avx2Available())
            kernels.push_back(sim::simd::Kernel::Avx2);
        for (const auto kernel : kernels) {
            const uint64_t before = allocCount();
            sim::BatchStepper stepper(kernel, units::Seconds(1e-3));
            for (int lane = 0; lane < sim::BatchStepper::kMaxLanes;
                 ++lane) {
                sim::BatchLaneInit init;
                init.voltage = 0.5 + 0.25 * lane;
                init.capacitance = 10e-3;
                init.clamp = 3.6;
                init.leakDecay = 0.9999999;
                stepper.addLane(init);
                stepper.setHarvestPower(lane, units::Watts(3e-3));
                stepper.setLoadCurrent(lane, units::Amps(1e-3));
            }
            // No warmup on purpose: the window opens before the first
            // step, covering admission and the post-transpose step.
            for (int i = 0; i < kAuditSteps; ++i) {
                stepper.step();
                g_sink = stepper.voltage(0);
            }
            stepper.setLaneCapacitance(0, units::Farads(9.9e-3), 0.9999999);
            stepper.freezeLane(1);
            stepper.step();
            const char *name = kernel == sim::simd::Kernel::Avx2
                ? "BatchStepper avx2" : "BatchStepper scalar";
            report(name, allocCount() - before);
        }
    }

    // Batched frontend path: a whole runExperimentBatch, admission
    // included.  Admission work -- Lane construction, compiling the
    // trace through the frontend into power spans, seeding the lanes --
    // may allocate; the steady stepping loop (span sweep, gate lane
    // masks, workload ticks, bookkeeping) must not.  The same samples
    // at two sampling rates give identical admission shapes (same
    // sample and span counts) but a 100x different step count, so the
    // two allocation totals must be exactly equal: any difference is a
    // per-step allocation on the batched path.
    {
        auto run_allocs = [](double sample_dt) -> uint64_t {
            std::vector<double> samples(40);
            for (size_t i = 0; i < samples.size(); ++i)
                samples[i] = (i % 4) == 3 ? 0.0 : 3e-3;
            harness::ExperimentConfig config;
            config.drainAllowance = 1.0;
            const uint64_t before = allocCount();
            buffer::StaticBuffer buf_a(
                harness::staticBufferSpec(units::Farads(10e-3)));
            buffer::StaticBuffer buf_b(
                harness::staticBufferSpec(units::Farads(470e-6)));
            workload::DataEncryptionBenchmark bench_a, bench_b;
            harvest::HarvesterFrontend frontend(
                trace::PowerTrace(sample_dt, samples, "audit"));
            harness::ExperimentResult res_a, res_b;
            const harness::BatchCell cells[2] = {
                {&buf_a, &bench_a, &frontend, &res_a},
                {&buf_b, &bench_b, &frontend, &res_b},
            };
            harness::runExperimentBatch(cells, 2, config,
                                        sim::simd::selectedKernel() ==
                                                sim::simd::Kernel::Disabled
                                            ? sim::simd::Kernel::Scalar
                                            : sim::simd::selectedKernel());
            return allocCount() - before;
        };
        const uint64_t short_run = run_allocs(0.05);
        const uint64_t long_run = run_allocs(5.0);
        const uint64_t delta = long_run > short_run
            ? long_run - short_run : short_run - long_run;
        std::printf("alloc-audit: %-18s %8llu admission allocations, "
                    "+%llu over a 100x longer run %s\n",
                    "BatchRunner",
                    static_cast<unsigned long long>(short_run),
                    static_cast<unsigned long long>(delta),
                    delta == 0 ? "[ok]" : "[FAIL]");
        if (delta != 0)
            ++failures;
    }

    if (failures != 0) {
        std::fprintf(stderr,
                     "alloc-audit: %d architecture(s) allocate on the "
                     "steady-state step path\n",
                     failures);
    }
    return failures;
}

} // namespace

int
main()
{
    return runAllocationAudit() == 0 ? 0 : 1;
}
