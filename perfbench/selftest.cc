/**
 * @file
 * Negative self-test of the benchmark's output checks: they must pass
 * real results and count a failed cell for each planted defect -- a
 * golden copy with one cell altered, a flipped state digest, and a
 * broken conservation audit.  Exits 0 when every check behaves.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "checks.hh"
#include "harness/grid.hh"

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok)
        ++failures;
}

} // namespace

int
main()
{
    namespace harness = react::harness;
    using perfbench::CellRun;
    using perfbench::CheckLog;

    // The five buffers of DE under RF Cart, run as the grid runs them.
    std::vector<CellRun> cells;
    for (const auto buffer : harness::kAllBuffers) {
        const auto bench = harness::BenchmarkKind::DataEncryption;
        const auto trace = react::trace::PaperTrace::RfCart;
        cells.push_back({harness::gridCellKey(bench, trace, buffer),
                         harness::runGridCell(buffer, bench, trace)});
    }

    const auto golden = perfbench::loadGolden(PERFBENCH_GOLDEN);
    {
        CheckLog log;
        const size_t compared = perfbench::checkGolden(cells, golden, log);
        perfbench::checkConservation(cells, log);
        perfbench::checkSameOutcomes(cells, cells, "self", log);
        expect(compared == cells.size() && log.failed() == 0,
               "pristine golden, audit and digests pass every cell");
    }

    {
        // A copy of the golden file with one cell's work units altered.
        std::ifstream in(PERFBENCH_GOLDEN);
        const std::string altered_path = "golden_altered.csv";
        std::ofstream out(altered_path);
        std::string line;
        bool altered = false;
        while (std::getline(in, line)) {
            if (!altered && line.rfind("DE,RF Cart,REACT,", 0) == 0) {
                const size_t comma = line.rfind(',');
                line = line.substr(0, comma + 1) +
                    std::to_string(std::stoull(line.substr(comma + 1)) + 1);
                altered = true;
            }
            out << line << '\n';
        }
        out.close();
        CheckLog log;
        perfbench::checkGolden(cells, perfbench::loadGolden(altered_path),
                               log);
        expect(altered && log.failed() == 1,
               "altered golden copy fails exactly one cell");
        std::remove(altered_path.c_str());
    }

    {
        std::vector<CellRun> flipped = cells;
        flipped[2].result.stateDigest ^= 1u;
        CheckLog log;
        perfbench::checkSameOutcomes(cells, flipped, "flipped digest", log);
        expect(log.failed() == 1, "flipped digest fails exactly one cell");
    }

    {
        std::vector<CellRun> broken = cells;
        broken[4].result.conservationError =
            2e-9 * std::max(1.0, broken[4].result.ledger.harvested.raw());
        CheckLog log;
        perfbench::checkConservation(broken, log);
        expect(log.failed() == 1,
               "conservation miss fails exactly one cell");
    }

    std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
    return failures == 0 ? 0 : 1;
}
