#include "checks.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "snapshot/snapshot.hh"

namespace perfbench {

void
CheckLog::fail(const std::string &key, const std::string &why)
{
    reasons_.push_back(key + ": " + why);
}

std::map<std::string, uint64_t>
loadGolden(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open golden " + path);
    std::map<std::string, uint64_t> golden;
    std::string line;
    size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line_no == 1)
            continue;  // header
        if (line.empty())
            continue;
        // benchmark,trace,buffer,work_units -- no field holds a comma.
        std::vector<std::string> fields;
        size_t start = 0;
        for (size_t comma; (comma = line.find(',', start)) !=
                 std::string::npos;
             start = comma + 1)
            fields.push_back(line.substr(start, comma - start));
        fields.push_back(line.substr(start));
        const std::string &count = fields.back();
        if (fields.size() != 4 || count.empty() ||
            count.find_first_not_of("0123456789") != std::string::npos)
            throw std::runtime_error(path + ":" + std::to_string(line_no) +
                                     ": malformed golden row '" + line +
                                     "'");
        golden[fields[0] + ":" + fields[1] + ":" + fields[2]] =
            std::stoull(count);
    }
    if (golden.empty())
        throw std::runtime_error("golden " + path + " holds no rows");
    return golden;
}

size_t
checkGolden(const std::vector<CellRun> &cells,
            const std::map<std::string, uint64_t> &golden, CheckLog &log)
{
    size_t compared = 0;
    for (const CellRun &cell : cells) {
        const auto it = golden.find(cell.key);
        if (it == golden.end())
            continue;
        ++compared;
        if (cell.result.workUnits != it->second)
            log.fail(cell.key, "work units " +
                                   std::to_string(cell.result.workUnits) +
                                   " != golden " +
                                   std::to_string(it->second));
    }
    return compared;
}

void
checkConservation(const std::vector<CellRun> &cells, CheckLog &log)
{
    for (const CellRun &cell : cells) {
        const ExperimentResult &r = cell.result;
        const double tolerance =
            1e-9 * std::max(1.0, r.ledger.harvested.raw());
        if (!(std::abs(r.conservationError) <= tolerance))
            log.fail(cell.key, "conservation error " +
                                   std::to_string(r.conservationError) +
                                   " J exceeds " +
                                   std::to_string(tolerance) + " J");
    }
}

namespace {

std::vector<uint8_t>
ledgerBytes(const react::sim::EnergyLedger &ledger)
{
    react::snapshot::SnapshotWriter w;
    w.beginSection("ledger");
    ledger.save(w);
    w.endSection();
    return w.finish();
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

} // namespace

bool
sameOutcome(const ExperimentResult &a, const ExperimentResult &b,
            std::string *why)
{
    const auto differs = [why](const char *field) {
        *why = std::string(field) + " differs";
        return false;
    };
    if (a.steps != b.steps)
        return differs("steps");
    if (a.workUnits != b.workUnits)
        return differs("work units");
    if (a.packetsRx != b.packetsRx || a.packetsTx != b.packetsTx)
        return differs("packets");
    if (a.powerCycles != b.powerCycles)
        return differs("power cycles");
    if (!sameBits(a.latency, b.latency))
        return differs("latency");
    if (a.faultEvents != b.faultEvents || a.banksRetired != b.banksRetired)
        return differs("fault counters");
    if (ledgerBytes(a.ledger) != ledgerBytes(b.ledger))
        return differs("ledger");
    if (a.stateDigest != b.stateDigest)
        return differs("state digest");
    return true;
}

void
checkSameOutcomes(const std::vector<CellRun> &reference,
                  const std::vector<CellRun> &runs, const std::string &what,
                  CheckLog &log)
{
    if (reference.size() != runs.size())
        throw std::logic_error("checkSameOutcomes: cell lists differ in "
                               "length");
    for (size_t i = 0; i < runs.size(); ++i) {
        std::string why;
        if (runs[i].key != reference[i].key)
            log.fail(runs[i].key, what + ": cell order differs");
        else if (!sameOutcome(reference[i].result, runs[i].result, &why))
            log.fail(runs[i].key, what + ": " + why);
    }
}

} // namespace perfbench
