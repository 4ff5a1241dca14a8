#include "fault_injector.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "snapshot/snapshot.hh"
#include "util/logging.hh"

namespace react {
namespace sim {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/** Cap on the retained event log; counters stay exact past it. */
constexpr size_t kMaxLoggedEvents = 20000;

/** FNV-1a over @p size bytes. */
uint64_t
fnv1a64(const void *data, size_t size)
{
    const auto *bytes = static_cast<const uint8_t *>(data);
    uint64_t hash = 14695981039346656037ull;
    for (size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

/** FNV-1a over the component name: the child-stream tag. */
uint64_t
fnv1a64(const std::string &name)
{
    return fnv1a64(name.data(), name.size());
}

} // namespace

bool
FaultPlan::enabled() const
{
    return switchStuckProbability > 0.0 || switchSlowProbability > 0.0 ||
        comparatorDriftVoltsPerSqrtHour > 0.0 ||
        comparatorMisreadsPerHour > 0.0 || capacitanceFadePerHour > 0.0 ||
        esrRisePerHour > 0.0 || diodeFailuresPerHour > 0.0 ||
        harvesterDropoutsPerHour > 0.0 || framCorruptionPerPowerLoss > 0.0;
}

uint64_t
FaultPlan::digest() const
{
    const double fields[] = {
        switchStuckProbability, switchSlowProbability,
        comparatorDriftVoltsPerSqrtHour, comparatorMisreadsPerHour,
        comparatorMisreadMagnitude, capacitanceFadePerHour,
        esrRisePerHour, diodeFailuresPerHour, diodeShortFraction,
        harvesterDropoutsPerHour, harvesterDropoutMeanSeconds.raw(),
        framCorruptionPerPowerLoss};
    return fnv1a64(fields, sizeof(fields));
}

FaultPlan
FaultPlan::stress(double severity)
{
    react_assert(severity >= 0.0, "fault severity must be >= 0");
    FaultPlan plan;
    plan.switchStuckProbability = std::min(0.01 * severity, 1.0);
    plan.switchSlowProbability = std::min(0.02 * severity, 1.0);
    plan.comparatorDriftVoltsPerSqrtHour = 0.05 * severity;
    plan.comparatorMisreadsPerHour = 30.0 * severity;
    plan.comparatorMisreadMagnitude = 1.0;
    plan.capacitanceFadePerHour = 0.02 * severity;
    plan.esrRisePerHour = 0.5 * severity;
    plan.diodeFailuresPerHour = 0.05 * severity;
    plan.diodeShortFraction = 0.5;
    plan.harvesterDropoutsPerHour = 20.0 * severity;
    plan.harvesterDropoutMeanSeconds = Seconds(4.0);
    plan.framCorruptionPerPowerLoss = std::min(0.05 * severity, 1.0);
    return plan;
}

const char *
faultEventKindName(FaultEventKind kind)
{
    switch (kind) {
      case FaultEventKind::SwitchStuck:
        return "switch-stuck";
      case FaultEventKind::SwitchSlow:
        return "switch-slow";
      case FaultEventKind::ComparatorMisread:
        return "comparator-misread";
      case FaultEventKind::DiodeOpen:
        return "diode-open";
      case FaultEventKind::DiodeShort:
        return "diode-short";
      case FaultEventKind::HarvesterDropoutBegin:
        return "dropout-begin";
      case FaultEventKind::HarvesterDropoutEnd:
        return "dropout-end";
      case FaultEventKind::FramCorruption:
        return "fram-corruption";
      case FaultEventKind::BankRetired:
        return "bank-retired";
      case FaultEventKind::FramRecovery:
        return "fram-recovery";
    }
    return "?";
}

bool
isRecoveryEvent(FaultEventKind kind)
{
    return kind == FaultEventKind::BankRetired ||
        kind == FaultEventKind::FramRecovery;
}

FaultInjector::FaultInjector(const FaultPlan &plan, uint64_t seed)
    : faultPlan(plan), master(seed), harvester(intern("harvester"))
{
}

FaultHandle
FaultInjector::intern(const std::string &name)
{
    const auto it = slotIndex.find(name);
    if (it != slotIndex.end())
        return FaultHandle{it->second};
    const auto index = static_cast<uint32_t>(slots.size());
    Slot slot;
    slot.name = name;
    slot.tag = fnv1a64(name);
    slots.push_back(std::move(slot));
    slotIndex.emplace(name, index);
    return FaultHandle{index};
}

const std::string &
FaultInjector::name(FaultHandle component) const
{
    return slots[component.index].name;
}

void
FaultInjector::create(Slot &slot)
{
    Component comp;
    comp.rng = master.child(slot.tag);
    comp.driftUpdatedAt = t;
    comp.nextMisreadAt = faultPlan.comparatorMisreadsPerHour > 0.0
        ? t + comp.rng.exponential(3600.0 /
                                   faultPlan.comparatorMisreadsPerHour)
        : kInfinity;
    // Aging rates vary part-to-part; jitter keeps components from fading
    // in lockstep while remaining a pure function of (seed, name).
    comp.agingJitter = comp.rng.uniform(0.7, 1.3);
    if (faultPlan.diodeFailuresPerHour > 0.0) {
        comp.diodeFailsAt =
            t + comp.rng.exponential(3600.0 / faultPlan.diodeFailuresPerHour);
        comp.diodeMode = comp.rng.chance(faultPlan.diodeShortFraction)
            ? DiodeFault::Short
            : DiodeFault::Open;
    } else {
        comp.diodeFailsAt = kInfinity;
    }
    slot.state = comp;
    slot.live = true;
}

void
FaultInjector::advance(Seconds dt)
{
    react_assert(dt >= Seconds(0),
                 "cannot advance the fault clock backwards");
    t += dt.raw();

    if (faultPlan.harvesterDropoutsPerHour <= 0.0)
        return;
    Rng &rng = component(harvester).rng;
    if (!dropoutScheduleInit) {
        dropoutScheduleInit = true;
        nextDropoutEdge =
            t + rng.exponential(3600.0 / faultPlan.harvesterDropoutsPerHour);
    }
    while (t >= nextDropoutEdge) {
        if (!dropoutActive) {
            dropoutActive = true;
            recordEvent(FaultEventKind::HarvesterDropoutBegin, harvester);
            nextDropoutEdge +=
                rng.exponential(faultPlan.harvesterDropoutMeanSeconds.raw());
        } else {
            dropoutActive = false;
            recordEvent(FaultEventKind::HarvesterDropoutEnd, harvester);
            nextDropoutEdge += rng.exponential(
                3600.0 / faultPlan.harvesterDropoutsPerHour);
        }
    }
}

bool
FaultInjector::switchActuates(FaultHandle handle)
{
    if (faultPlan.switchStuckProbability <= 0.0)
        return true;
    Component &comp = component(handle);
    if (comp.stuck)
        return false;
    if (comp.rng.chance(faultPlan.switchStuckProbability)) {
        comp.stuck = true;
        recordEvent(FaultEventKind::SwitchStuck, handle);
        return false;
    }
    return true;
}

bool
FaultInjector::isSwitchStuck(FaultHandle handle) const
{
    const Slot &slot = slots[handle.index];
    return slot.live && slot.state.stuck;
}

bool
FaultInjector::switchDelayed(FaultHandle handle)
{
    if (faultPlan.switchSlowProbability <= 0.0)
        return false;
    Component &comp = component(handle);
    if (comp.rng.chance(faultPlan.switchSlowProbability)) {
        recordEvent(FaultEventKind::SwitchSlow, handle);
        return true;
    }
    return false;
}

Volts
FaultInjector::comparatorRead(FaultHandle handle, Volts actual)
{
    if (faultPlan.comparatorDriftVoltsPerSqrtHour <= 0.0 &&
        faultPlan.comparatorMisreadsPerHour <= 0.0) {
        return actual;
    }
    Component &comp = component(handle);
    double observed = actual.raw();

    if (faultPlan.comparatorDriftVoltsPerSqrtHour > 0.0) {
        // Random-walk offset: increments are independent over disjoint
        // intervals, so accumulating lazily at read time is equivalent
        // to stepping the walk continuously.
        const double elapsed = t - comp.driftUpdatedAt;
        if (elapsed > 0.0) {
            comp.driftOffset += comp.rng.normal(
                0.0, faultPlan.comparatorDriftVoltsPerSqrtHour *
                    std::sqrt(elapsed / 3600.0));
            comp.driftUpdatedAt = t;
        }
        observed += comp.driftOffset;
    }

    if (faultPlan.comparatorMisreadsPerHour > 0.0) {
        bool fired = false;
        while (t >= comp.nextMisreadAt) {
            fired = true;
            comp.nextMisreadAt += comp.rng.exponential(
                3600.0 / faultPlan.comparatorMisreadsPerHour);
        }
        if (fired) {
            const double error =
                comp.rng.uniform(-faultPlan.comparatorMisreadMagnitude,
                                 faultPlan.comparatorMisreadMagnitude);
            recordEvent(FaultEventKind::ComparatorMisread, handle, error);
            observed += error;
        }
    }
    return Volts(std::max(observed, 0.0));
}

double
FaultInjector::capacitanceFactor(FaultHandle handle)
{
    if (faultPlan.capacitanceFadePerHour <= 0.0)
        return 1.0;
    Component &comp = component(handle);
    const double rate = faultPlan.capacitanceFadePerHour * comp.agingJitter;
    return std::exp(-rate * t / 3600.0);
}

double
FaultInjector::esrMultiplier(FaultHandle handle)
{
    if (faultPlan.esrRisePerHour <= 0.0)
        return 1.0;
    Component &comp = component(handle);
    return 1.0 + faultPlan.esrRisePerHour * comp.agingJitter * t / 3600.0;
}

DiodeFault
FaultInjector::diodeFault(FaultHandle handle)
{
    if (faultPlan.diodeFailuresPerHour <= 0.0)
        return DiodeFault::None;
    Component &comp = component(handle);
    if (t < comp.diodeFailsAt)
        return DiodeFault::None;
    if (!comp.diodeReported) {
        comp.diodeReported = true;
        recordEvent(comp.diodeMode == DiodeFault::Short
                        ? FaultEventKind::DiodeShort
                        : FaultEventKind::DiodeOpen,
                    handle);
    }
    return comp.diodeMode;
}

Watts
FaultInjector::filterHarvest(Watts input_power) const
{
    return dropoutActive ? Watts(0.0) : input_power;
}

bool
FaultInjector::maybeCorruptOnPowerLoss(FaultHandle handle,
                                       std::vector<uint8_t> *bytes)
{
    if (faultPlan.framCorruptionPerPowerLoss <= 0.0)
        return false;
    Component &comp = component(handle);
    if (!comp.rng.chance(faultPlan.framCorruptionPerPowerLoss))
        return false;
    double where = -1.0;
    if (bytes != nullptr && !bytes->empty()) {
        const int index = comp.rng.uniformInt(
            0, static_cast<int>(bytes->size()) - 1);
        const int bit = comp.rng.uniformInt(0, 7);
        (*bytes)[static_cast<size_t>(index)] ^=
            static_cast<uint8_t>(1u << bit);
        where = static_cast<double>(index);
    }
    recordEvent(FaultEventKind::FramCorruption, handle, where);
    return true;
}

void
FaultInjector::recordEvent(FaultEventKind kind, FaultHandle handle,
                           double magnitude)
{
    ++kindCounts[static_cast<size_t>(kind)];
    if (eventLog.size() < kMaxLoggedEvents)
        eventLog.push_back({Seconds(t), kind, name(handle), magnitude});
}

uint64_t
FaultInjector::eventCount(FaultEventKind kind) const
{
    return kindCounts[static_cast<size_t>(kind)];
}

uint64_t
FaultInjector::faultCount() const
{
    uint64_t n = 0;
    for (size_t k = 0; k < 10; ++k) {
        if (!isRecoveryEvent(static_cast<FaultEventKind>(k)))
            n += kindCounts[k];
    }
    return n;
}

uint64_t
FaultInjector::recoveryCount() const
{
    return eventCount(FaultEventKind::BankRetired) +
        eventCount(FaultEventKind::FramRecovery);
}

void
FaultInjector::save(snapshot::SnapshotWriter &w) const
{
    w.f64(t);
    snapshot::saveRng(w, master);
    w.b(dropoutActive);
    w.f64(nextDropoutEdge);
    w.b(dropoutScheduleInit);

    // Live components in name order (slotIndex is a std::map): the
    // layout does not depend on the order names were interned in.
    uint32_t live = 0;
    for (const Slot &slot : slots)
        live += slot.live ? 1u : 0u;
    w.u32(live);
    for (const auto &entry : slotIndex) {
        const Slot &slot = slots[entry.second];
        if (!slot.live)
            continue;
        w.str(slot.name);
        const Component &comp = slot.state;
        snapshot::saveRng(w, comp.rng);
        w.b(comp.stuck);
        w.f64(comp.driftOffset);
        w.f64(comp.driftUpdatedAt);
        w.f64(comp.nextMisreadAt);
        w.f64(comp.agingJitter);
        w.f64(comp.diodeFailsAt);
        w.u8(static_cast<uint8_t>(comp.diodeMode));
        w.b(comp.diodeReported);
    }

    w.u32(static_cast<uint32_t>(eventLog.size()));
    for (const FaultEvent &event : eventLog) {
        w.f64(event.time.raw());
        w.u8(static_cast<uint8_t>(event.kind));
        w.str(event.component);
        w.f64(event.magnitude);
    }
    for (uint64_t count : kindCounts)
        w.u64(count);
}

void
FaultInjector::restore(snapshot::SnapshotReader &r)
{
    t = r.f64();
    snapshot::restoreRng(r, &master);
    dropoutActive = r.b();
    nextDropoutEdge = r.f64();
    dropoutScheduleInit = r.b();

    // Interned names (and so every outstanding handle) survive; only the
    // set of live components and their state come from the snapshot.
    for (Slot &slot : slots)
        slot.live = false;
    const uint32_t component_count = r.u32();
    for (uint32_t i = 0; i < component_count; ++i) {
        Slot &slot = slots[intern(r.str()).index];
        Component &comp = slot.state;
        snapshot::restoreRng(r, &comp.rng);
        comp.stuck = r.b();
        comp.driftOffset = r.f64();
        comp.driftUpdatedAt = r.f64();
        comp.nextMisreadAt = r.f64();
        comp.agingJitter = r.f64();
        comp.diodeFailsAt = r.f64();
        comp.diodeMode = static_cast<DiodeFault>(r.u8());
        comp.diodeReported = r.b();
        slot.live = true;
    }

    eventLog.clear();
    const uint32_t event_count = r.u32();
    eventLog.reserve(event_count);
    for (uint32_t i = 0; i < event_count; ++i) {
        FaultEvent event;
        event.time = Seconds(r.f64());
        event.kind = static_cast<FaultEventKind>(r.u8());
        event.component = r.str();
        event.magnitude = r.f64();
        eventLog.push_back(std::move(event));
    }
    for (uint64_t &count : kindCounts)
        count = r.u64();
}

} // namespace sim
} // namespace react
