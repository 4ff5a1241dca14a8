/**
 * @file
 * Fault sweep: graceful degradation of REACT versus the static baselines
 * under increasing hardware-fault severity (robustness extension; the
 * paper's hardware is assumed fault-free).
 *
 * Every buffer faces the same seeded FaultPlan::stress(severity)
 * schedule -- stuck/slow switches, comparator drift and misreads,
 * capacitance fade, ESR rise, diode failures, harvester dropouts, and
 * FRAM write tears -- while running SenseCompute under the Solar Campus
 * trace.  Severity 0 constructs no injector at all and reproduces the
 * fault-free numbers bit-identically.
 *
 * Output: one CSV row per (severity, buffer) cell, then an acceptance
 * summary showing that REACT degrades gracefully: even after the
 * watchdog retires banks it completes more work than the 17 mF static
 * baseline, because the surviving banks and the small last-level buffer
 * keep both responsiveness and most of the capacity.  `--csv <path>`
 * also writes every cell's full result (%.17g) for the golden suite.
 */

#include <cmath>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace react;
    bench::printPreamble(
        "Fault sweep: work completed vs hardware-fault severity",
        "robustness extension (faults beyond the paper's S 5 testbed)");
    auto csv = bench::csvFromArgs(argc, argv);

    const double severities[] = {0.0, 0.5, 1.0, 2.0, 4.0};
    const harness::BufferKind kinds[] = {harness::BufferKind::React,
                                         harness::BufferKind::Static770uF,
                                         harness::BufferKind::Static17mF};

    std::printf("severity,buffer,work_units,work_lost,fault_events,"
                "banks_retired,fram_recoveries,efficiency,"
                "conservation_error\n");

    // All 15 (severity x buffer) cells fan across the runner.  The
    // workload seed comes from the *fault-free* cell identity, so the
    // severity-0 row reproduces the standard SC / Solar Campus cell
    // bit-identically (the fault schedule is seeded separately inside
    // FaultPlan::stress).
    bench::prewarmEvaluationTraces();
    harness::ParallelRunner runner;
    harness::ExperimentResult results[5][3];
    for (size_t s = 0; s < 5; ++s) {
        for (size_t k = 0; k < 3; ++k) {
            const double severity = severities[s];
            const auto kind = kinds[k];
            harness::ExperimentResult *slot = &results[s][k];
            char label[96];
            std::snprintf(label, sizeof(label), "fault@%.1f:%s", severity,
                          harness::bufferKindName(kind).c_str());
            runner.submit(label, [=]() {
                harness::ExperimentConfig cfg;
                cfg.faultPlan = sim::FaultPlan::stress(severity);
                *slot = bench::runCell(
                    kind, harness::BenchmarkKind::SenseCompute,
                    trace::PaperTrace::SolarCampus, cfg);
            });
        }
    }
    runner.run();

    // The golden artifact pins every faulted cell bit-for-bit: the whole
    // energy ledger, latency, work, and the fault/recovery counters.
    csv.line("severity,buffer,latency,on_time,power_cycles,work_units,"
             "harvested,delivered,clipped,leaked,switch_loss,diode_loss,"
             "overhead,fault_loss,residual_energy,conservation_error,"
             "fault_events,recovery_events,banks_retired,fram_recoveries");
    for (size_t s = 0; s < 5; ++s) {
        for (size_t k = 0; k < 3; ++k) {
            const auto &r = results[s][k];
            const auto &base = results[0][k];
            const double efficiency = r.ledger.harvested > units::Joules(0.0)
                ? r.ledger.delivered / r.ledger.harvested
                : 0.0;
            std::printf("%.1f,%s,%llu,%llu,%llu,%d,%d,%.4f,%.3e\n",
                        severities[s], r.bufferName.c_str(),
                        static_cast<unsigned long long>(r.workUnits),
                        static_cast<unsigned long long>(
                            r.workLostVersus(base)),
                        static_cast<unsigned long long>(r.faultEvents),
                        r.banksRetired, r.framRecoveries, efficiency,
                        r.conservationError);
            const auto &l = r.ledger;
            csv.line(bench::csvNum(severities[s]) + "," + r.bufferName +
                     "," + bench::csvNum(r.latency) + "," +
                     bench::csvNum(r.onTime) + "," +
                     std::to_string(r.powerCycles) + "," +
                     std::to_string(r.workUnits) + "," +
                     bench::csvNum(l.harvested.raw()) + "," +
                     bench::csvNum(l.delivered.raw()) + "," +
                     bench::csvNum(l.clipped.raw()) + "," +
                     bench::csvNum(l.leaked.raw()) + "," +
                     bench::csvNum(l.switchLoss.raw()) + "," +
                     bench::csvNum(l.diodeLoss.raw()) + "," +
                     bench::csvNum(l.overhead.raw()) + "," +
                     bench::csvNum(l.faultLoss.raw()) + "," +
                     bench::csvNum(r.residualEnergy) + "," +
                     bench::csvNum(r.conservationError) + "," +
                     std::to_string(r.faultEvents) + "," +
                     std::to_string(r.recoveryEvents) + "," +
                     std::to_string(r.banksRetired) + "," +
                     std::to_string(r.framRecoveries));
        }
    }
    csv.write();

    const auto &react_h = results[4][0];
    const auto &static_h = results[4][2];
    std::printf("\nacceptance: at severity %.1f REACT retired %d bank(s) "
                "and completed %llu work units; Static 17mF completed "
                "%llu.\n",
                severities[4], react_h.banksRetired,
                static_cast<unsigned long long>(react_h.workUnits),
                static_cast<unsigned long long>(static_h.workUnits));
    std::printf("graceful degradation %s: REACT with retired banks %s "
                "the static large-capacitor baseline.\n",
                react_h.workUnits > static_h.workUnits ? "HOLDS" : "FAILS",
                react_h.workUnits > static_h.workUnits ? "still out-works"
                                                       : "falls behind");
    return 0;
}
