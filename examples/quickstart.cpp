/**
 * @file
 * Quickstart: build a REACT buffer, replay a harvested-power trace into
 * it, run a workload, and read the results.
 *
 * This is the 60-second tour of the public API:
 *   1. synthesize (or load) a power trace,
 *   2. pick an energy buffer (REACT or a baseline),
 *   3. pick a benchmark workload,
 *   4. run the experiment and inspect latency / work / energy ledger.
 */

#include <cstdio>

#include "harness/experiment.hh"
#include "harness/paper_setup.hh"
#include "trace/paper_traces.hh"

int
main()
{
    using namespace react;

    // 1. A power trace: the paper's "RF Mobile" office scenario
    //    (synthesized to Table 3's published statistics).
    trace::PowerTrace power = trace::makePaperTrace(
        trace::PaperTrace::RfMobile);
    const auto stats = power.stats();
    std::printf("trace '%s': %.0f s, mean %.3f mW, CV %.0f%%\n",
                power.name().c_str(), stats.duration,
                stats.meanPower * 1e3, stats.cv * 100.0);

    // 2. An energy buffer: REACT with the paper's Table-1 bank layout
    //    (770 uF last-level buffer, five banks, 18 mF fully expanded).
    auto buffer = harness::makeBuffer(harness::BufferKind::React);

    // 3. A workload: periodic sense-and-compute (5 s deadlines).
    auto benchmark = harness::makeBenchmark(
        harness::BenchmarkKind::SenseCompute,
        power.duration() + 900.0);

    // 4. Run and report.
    harvest::HarvesterFrontend frontend(power);
    const auto result = harness::runExperiment(*buffer, benchmark.get(), frontend);

    std::printf("\nbuffer: %s   benchmark: %s\n",
                result.bufferName.c_str(), result.benchmarkName.c_str());
    std::printf("latency to first enable: %.2f s\n", result.latency);
    std::printf("on-time: %.1f s of %.1f s (%.0f%% duty)\n",
                result.onTime, result.totalTime,
                result.dutyCycle() * 100.0);
    std::printf("samples captured: %llu (missed %llu)\n",
                static_cast<unsigned long long>(result.workUnits),
                static_cast<unsigned long long>(result.missedEvents));
    std::printf("energy: harvested %.1f mJ -> delivered %.1f mJ "
                "(clipped %.1f, leaked %.1f, switching %.2f)\n",
                result.ledger.harvested.raw() * 1e3,
                result.ledger.delivered.raw() * 1e3,
                result.ledger.clipped.raw() * 1e3,
                result.ledger.leaked.raw() * 1e3,
                result.ledger.switchLoss.raw() * 1e3);
    return 0;
}
