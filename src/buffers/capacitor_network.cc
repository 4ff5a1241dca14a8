#include "capacitor_network.hh"

#include <algorithm>
#include <cmath>

#include "snapshot/snapshot.hh"
#include "util/logging.hh"

namespace react {
namespace buffer {

Farads
NetworkConfig::equivalentCapacitance(Farads unit_capacitance) const
{
    Farads total{0.0};
    for (const auto &branch : branches) {
        if (!branch.empty())
            total += unit_capacitance / static_cast<double>(branch.size());
    }
    return total;
}

CapacitorNetwork::CapacitorNetwork(int unit_count,
                                   const sim::CapacitorSpec &unit_spec)
{
    react_assert(unit_count > 0, "network needs at least one unit");
    units.reserve(static_cast<size_t>(unit_count));
    for (int i = 0; i < unit_count; ++i)
        units.emplace_back(unit_spec);
    connectedFlags.assign(units.size(), 0);
    // Worst case every unit is connected (uniqueness is asserted), so
    // reserving to the pool size makes every later recompilation
    // allocation-free.
    reserveStepState();
    branchOffsets.push_back(0);
    // Nothing is connected until the first arrangement is adopted.
    for (int i = 0; i < unit_count; ++i)
        disconnectedUnits.push_back(static_cast<int32_t>(i));
}

void
CapacitorNetwork::reserveStepState()
{
    flatUnits.reserve(units.size());
    branchOffsets.reserve(units.size() + 1);
    branchSizes.reserve(units.size());
    branchCaps.reserve(units.size());
    disconnectedUnits.reserve(units.size());
    classBranch.reserve(units.size());
    flatClass.reserve(units.size());
    classDv.reserve(units.size());
}

CapacitorNetwork::CapacitorNetwork(const CapacitorNetwork &other)
    : units(other.units), ownedConfig(other.ownedConfig),
      connectedFlags(other.connectedFlags), flatUnits(other.flatUnits),
      branchOffsets(other.branchOffsets), branchSizes(other.branchSizes),
      disconnectedUnits(other.disconnectedUnits),
      classBranch(other.classBranch), flatClass(other.flatClass),
      classDv(other.classDv), branchCaps(other.branchCaps),
      cachedEqCap(other.cachedEqCap),
      cachedEqCapKey(other.cachedEqCapKey)
{
    // A source that owned its config must not leave the copy aliasing the
    // source's storage; a source borrowing a shared ladder entry may.
    currentCfg = other.currentCfg == &other.ownedConfig ? &ownedConfig
                                                        : other.currentCfg;
    // Vector copies size capacity to fit; restore the full-pool reserve
    // so the copy keeps the allocation-free recompilation guarantee.
    reserveStepState();
}

CapacitorNetwork &
CapacitorNetwork::operator=(const CapacitorNetwork &other)
{
    if (this == &other)
        return *this;
    units = other.units;
    ownedConfig = other.ownedConfig;
    connectedFlags = other.connectedFlags;
    flatUnits = other.flatUnits;
    branchOffsets = other.branchOffsets;
    branchSizes = other.branchSizes;
    disconnectedUnits = other.disconnectedUnits;
    classBranch = other.classBranch;
    flatClass = other.flatClass;
    classDv = other.classDv;
    branchCaps = other.branchCaps;
    cachedEqCap = other.cachedEqCap;
    cachedEqCapKey = other.cachedEqCapKey;
    currentCfg = other.currentCfg == &other.ownedConfig ? &ownedConfig
                                                        : other.currentCfg;
    reserveStepState();
    return *this;
}

Volts
CapacitorNetwork::unitVoltage(int index) const
{
    return units.at(static_cast<size_t>(index)).voltage();
}

void
CapacitorNetwork::setUnitVoltage(int index, Volts voltage)
{
    units.at(static_cast<size_t>(index)).setVoltage(voltage);
}

Joules
CapacitorNetwork::equalizeConnected()
{
    if (branchSizes.empty())
        return Joules(0.0);

    // Parallel equalization: the common terminal voltage conserves total
    // branch charge, V_f = sum(Q_br) / sum(C_br).  sum(C_br) is the
    // memoized equivalent capacitance, the same terms summed in the same
    // order.
    const Farads c_total = equivalentCapacitance();  // refreshes branchCaps
    const Farads unit_cap = units[0].capacitance();
    Coulombs q_total{0.0};
    for (std::size_t b = 0; b < branchSizes.size(); ++b)
        q_total += branchCaps[b] * flatBranchVoltage(b);
    const Volts v_final = std::max(q_total / c_total, Volts(0.0));

    const Joules e_before = connectedEnergy();
    for (std::size_t b = 0; b < branchSizes.size(); ++b) {
        const Coulombs dq = branchCaps[b] * (v_final - flatBranchVoltage(b));
        // Series chains carry the same charge through every member, all
        // of the shared unit capacitance: one division per branch.
        const Volts dv_unit = dq / unit_cap;
        const int32_t end = branchOffsets[b + 1];
        for (int32_t k = branchOffsets[b]; k < end; ++k)
            units[static_cast<size_t>(flatUnits[static_cast<size_t>(k)])]
                .addVoltage(dv_unit);
    }
    const Joules e_after = connectedEnergy();
    return std::max(e_before - e_after, Joules(0.0));
}

void
CapacitorNetwork::adoptConfig(const NetworkConfig &next)
{
    // Validate (indices in range, no duplicates) while rebuilding the
    // connected-unit flags in place; the flags double as the "seen" set so
    // reconfiguration needs no temporary container.  The same pass
    // compiles the flattened step state; clear() keeps the construction
    // -time capacity, so no allocation happens here either.
    std::fill(connectedFlags.begin(), connectedFlags.end(),
              static_cast<uint8_t>(0));
    flatUnits.clear();
    branchOffsets.clear();
    branchSizes.clear();
    classBranch.clear();
    flatClass.clear();
    branchOffsets.push_back(0);
    for (const auto &branch : next.branches) {
        react_assert(!branch.empty(), "network config has an empty branch");
        for (int idx : branch) {
            react_assert(idx >= 0 && idx < unitCount(),
                         "network config index %d out of range", idx);
            uint8_t &flag = connectedFlags[static_cast<size_t>(idx)];
            react_assert(flag == 0,
                         "unit %d appears twice in network config", idx);
            flag = 1;
            flatUnits.push_back(static_cast<int32_t>(idx));
        }
        const double size = static_cast<double>(branch.size());
        int32_t cls = 0;
        while (static_cast<size_t>(cls) < classBranch.size() &&
               branchSizes[static_cast<size_t>(
                   classBranch[static_cast<size_t>(cls)])] != size)
            ++cls;
        if (static_cast<size_t>(cls) == classBranch.size())
            classBranch.push_back(static_cast<int32_t>(branchSizes.size()));
        flatClass.insert(flatClass.end(), branch.size(), cls);
        branchOffsets.push_back(static_cast<int32_t>(flatUnits.size()));
        branchSizes.push_back(size);
    }
    branchCaps.resize(branchSizes.size());
    classDv.resize(classBranch.size());
    disconnectedUnits.clear();
    for (int i = 0; i < unitCount(); ++i) {
        if (!connectedFlags[static_cast<size_t>(i)])
            disconnectedUnits.push_back(static_cast<int32_t>(i));
    }
    cachedEqCapKey = Farads(-1.0);
}

Joules
CapacitorNetwork::reconfigure(const NetworkConfig &next)
{
    adoptConfig(next);
    ownedConfig = next;
    currentCfg = &ownedConfig;
    return equalizeConnected();
}

Joules
CapacitorNetwork::reconfigureShared(const NetworkConfig *next)
{
    react_assert(next != nullptr, "shared network config must not be null");
    adoptConfig(*next);
    currentCfg = next;
    return equalizeConnected();
}

void
CapacitorNetwork::restoreArrangementShared(const NetworkConfig *next)
{
    react_assert(next != nullptr, "shared network config must not be null");
    adoptConfig(*next);
    currentCfg = next;
}

void
CapacitorNetwork::save(snapshot::SnapshotWriter &w) const
{
    w.u32(static_cast<uint32_t>(units.size()));
    for (const auto &unit : units)
        unit.save(w);
}

void
CapacitorNetwork::restore(snapshot::SnapshotReader &r)
{
    const uint32_t count = r.u32();
    if (count != units.size())
        throw snapshot::SnapshotError(
            "capacitor-network snapshot unit count mismatch");
    // Restore into a copy and commit only a consistent pool, so a
    // rejected snapshot leaves the network as it was.
    std::vector<sim::Capacitor> restored = units;
    for (auto &unit : restored)
        unit.restore(r);
    for (const auto &unit : restored) {
        if (unit.capacitance() != restored[0].capacitance())
            throw snapshot::SnapshotError(
                "capacitor-network snapshot units differ in capacitance");
    }
    units = std::move(restored);
}

} // namespace buffer
} // namespace react
