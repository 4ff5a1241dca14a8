#include "power_gate.hh"

#include "sim/fault_injector.hh"
#include "snapshot/snapshot.hh"
#include "util/logging.hh"

namespace react {
namespace sim {

PowerGate::PowerGate(Volts enable_voltage, Volts brownout_voltage)
    : vEnable(enable_voltage), vBrownout(brownout_voltage)
{
    react_assert(enable_voltage > brownout_voltage,
                 "enable voltage must exceed brown-out voltage");
    react_assert(brownout_voltage > Volts(0),
                 "brown-out voltage must be > 0");
}

bool
PowerGate::update(Volts rail_voltage)
{
    if (faults != nullptr)
        rail_voltage = faults->comparatorRead(supervisorId, rail_voltage);
    if (!on && rail_voltage >= vEnable) {
        on = true;
        return true;
    }
    if (on && rail_voltage <= vBrownout) {
        on = false;
        return true;
    }
    return false;
}

void
PowerGate::attachFaultInjector(FaultInjector *injector)
{
    faults = injector;
    if (faults != nullptr)
        supervisorId = faults->intern("powergate.supervisor");
}

void
PowerGate::setEnableVoltage(Volts enable_voltage)
{
    react_assert(enable_voltage > vBrownout,
                 "enable voltage must exceed brown-out voltage");
    vEnable = enable_voltage;
}

void
PowerGate::reset()
{
    on = false;
}

void
PowerGate::save(snapshot::SnapshotWriter &w) const
{
    w.f64(vEnable.raw());
    w.b(on);
}

void
PowerGate::restore(snapshot::SnapshotReader &r)
{
    vEnable = Volts(r.f64());
    on = r.b();
}

} // namespace sim
} // namespace react
