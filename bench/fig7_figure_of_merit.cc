/**
 * @file
 * Fig. 7 reproduction: per-benchmark figures of merit normalized to
 * REACT, averaged across the five power traces, plus the headline
 * aggregate improvements of S 5.5.
 *
 * Paper headlines: REACT beats the equally-reactive 770 uF buffer by
 * 39.1 %, the equal-capacity 17 mF buffer by 19.3 %, the next-best
 * 10 mF buffer by 18.8 %, and Morphy by 26.2 %.
 *
 * `--csv <path>` also writes every cell's full result (%.17g, one row
 * per benchmark x trace x buffer) for the golden suite: the only
 * artifact that pins the Morphy ledger and the Packet Forward cells
 * bit for bit.
 */

#include "bench_common.hh"

#include "harness/figure_of_merit.hh"

int
main(int argc, char **argv)
{
    using namespace react;
    bench::printPreamble(
        "Fig. 7: aggregate figure of merit (normalized to REACT)",
        "Fig. 7 + S 5.5 headline improvements");
    auto csv = bench::csvFromArgs(argc, argv);

    const harness::BenchmarkKind benchmarks[4] = {
        harness::BenchmarkKind::DataEncryption,
        harness::BenchmarkKind::SenseCompute,
        harness::BenchmarkKind::RadioTransmit,
        harness::BenchmarkKind::PacketForward,
    };

    // The full 100-cell evaluation (4 benchmarks x 5 traces x 5 buffers)
    // in one runner batch; cells shared with Tables 2/5 reproduce those
    // tables' numbers exactly (identity-derived seeds).
    bench::prewarmEvaluationTraces();
    harness::ParallelRunner runner;
    std::array<bench::GridResults, 4> results;
    for (size_t b = 0; b < 4; ++b)
        bench::submitGrid(runner, benchmarks[b], results[b]);
    runner.run();

    std::vector<std::vector<double>> per_benchmark;
    TextTable table;
    table.setHeader({"Benchmark", "770uF", "10mF", "17mF", "Morphy",
                     "REACT"});

    for (size_t bench_idx = 0; bench_idx < 4; ++bench_idx) {
        const auto bench_kind = benchmarks[bench_idx];
        harness::MeritMatrix matrix;
        matrix.benchmarkName = harness::benchmarkKindName(bench_kind);
        for (const auto buffer_kind : harness::kAllBuffers)
            matrix.bufferNames.push_back(
                harness::bufferKindName(buffer_kind));
        matrix.counts.assign(5, std::vector<double>());
        size_t trace_row = 0;
        for (const auto trace_kind : trace::kAllPaperTraces) {
            matrix.traceNames.push_back(
                trace::paperTraceName(trace_kind));
            size_t col = 0;
            for (const auto buffer_kind : harness::kAllBuffers) {
                (void)buffer_kind;
                const auto &r = results[bench_idx][trace_row][col];
                // PF's figure of merit is forwarded packets.
                const double merit =
                    bench_kind == harness::BenchmarkKind::PacketForward
                        ? static_cast<double>(r.packetsTx + r.packetsRx)
                        : static_cast<double>(r.workUnits);
                matrix.counts[col].push_back(merit);
                ++col;
            }
            ++trace_row;
        }
        const auto scores = harness::normalizedMerit(matrix, 4);
        per_benchmark.push_back(scores);
        std::vector<std::string> row = {matrix.benchmarkName};
        for (double s : scores)
            row.push_back(TextTable::num(s, 3));
        table.addRow(row);
    }

    csv.line("benchmark,trace,buffer,steps,latency,on_time,power_cycles,"
             "work_units,packets_rx,packets_tx,harvested,delivered,clipped,"
             "leaked,switch_loss,diode_loss,overhead,fault_loss,"
             "residual_energy,state_digest");
    for (size_t bench_idx = 0; bench_idx < 4; ++bench_idx) {
        for (const auto &trace_row : results[bench_idx]) {
            for (const auto &r : trace_row) {
                const auto &l = r.ledger;
                csv.line(r.benchmarkName + "," + r.traceName + "," +
                         r.bufferName + "," + std::to_string(r.steps) +
                         "," + bench::csvNum(r.latency) + "," +
                         bench::csvNum(r.onTime) + "," +
                         std::to_string(r.powerCycles) + "," +
                         std::to_string(r.workUnits) + "," +
                         std::to_string(r.packetsRx) + "," +
                         std::to_string(r.packetsTx) + "," +
                         bench::csvNum(l.harvested.raw()) + "," +
                         bench::csvNum(l.delivered.raw()) + "," +
                         bench::csvNum(l.clipped.raw()) + "," +
                         bench::csvNum(l.leaked.raw()) + "," +
                         bench::csvNum(l.switchLoss.raw()) + "," +
                         bench::csvNum(l.diodeLoss.raw()) + "," +
                         bench::csvNum(l.overhead.raw()) + "," +
                         bench::csvNum(l.faultLoss.raw()) + "," +
                         bench::csvNum(r.residualEnergy) + "," +
                         std::to_string(r.stateDigest));
            }
        }
    }
    csv.write();

    const auto aggregate = harness::averageMerit(per_benchmark);
    table.addSeparator();
    std::vector<std::string> agg_row = {"Aggregate"};
    for (double s : aggregate)
        agg_row.push_back(TextTable::num(s, 3));
    table.addRow(agg_row);
    table.print();

    std::printf("\nheadline improvements of REACT (paper values in "
                "parentheses):\n");
    const char *labels[4] = {"770uF", "10mF", "17mF", "Morphy"};
    const double paper_vals[4] = {0.391, 0.188, 0.193, 0.262};
    for (int i = 0; i < 4; ++i) {
        std::printf("  vs %-7s %+6.1f%%   (paper %+.1f%%)\n", labels[i],
                    harness::improvementOver(
                        aggregate[static_cast<size_t>(i)]) * 100.0,
                    paper_vals[i] * 100.0);
    }
    return 0;
}
