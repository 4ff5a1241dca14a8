/**
 * @file
 * Output checks of the repository benchmark.  Every check counts failed
 * cells into a CheckLog; the benchmark's fail_frac is failed cells over
 * attempted cells, and any failure makes the run incorrect.
 */

#ifndef REACT_PERFBENCH_CHECKS_HH
#define REACT_PERFBENCH_CHECKS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace perfbench {

using react::harness::ExperimentResult;

/** One executed cell: its stable identity and its outcome. */
struct CellRun
{
    std::string key;
    ExperimentResult result;
};

/** Failed cells, with one reason line each. */
class CheckLog
{
  public:
    /** Record that the cell @p key failed a check. */
    void fail(const std::string &key, const std::string &why);

    size_t failed() const { return reasons_.size(); }
    const std::vector<std::string> &reasons() const { return reasons_; }

  private:
    std::vector<std::string> reasons_;
};

/**
 * Load the Table-2 golden (benchmark,trace,buffer,work_units) into a map
 * keyed like harness::gridCellKey ("DE:RF Cart:770uF").  Throws
 * std::runtime_error on a missing file or a malformed row.
 */
std::map<std::string, uint64_t> loadGolden(const std::string &path);

/**
 * Compare every cell whose key the golden names against its golden work
 * units; a mismatch fails the cell.  Returns the number of cells
 * compared, so a caller can insist the golden was actually consulted.
 */
size_t checkGolden(const std::vector<CellRun> &cells,
                   const std::map<std::string, uint64_t> &golden,
                   CheckLog &log);

/** Energy-conservation audit: |error| <= 1e-9 J per J harvested (with a
 *  1 J floor, as in runExperiment). */
void checkConservation(const std::vector<CellRun> &cells, CheckLog &log);

/**
 * Bit-level identity of two results of the same cell: steps, work,
 * packets, power cycles, latency, fault counters, the energy ledger and
 * the final-state digest.  On a mismatch returns false and names the
 * first differing field in @p why.
 */
bool sameOutcome(const ExperimentResult &a, const ExperimentResult &b,
                 std::string *why);

/**
 * Fail every cell of @p runs whose outcome differs from the cell at the
 * same index of @p reference (@p what names the comparison in the
 * reason).  Both lists must hold the same cells in the same order.
 */
void checkSameOutcomes(const std::vector<CellRun> &reference,
                       const std::vector<CellRun> &runs,
                       const std::string &what, CheckLog &log);

} // namespace perfbench

#endif // REACT_PERFBENCH_CHECKS_HH
