/**
 * @file
 * Tests for the REACT buffer: cold-start behaviour, controller-driven
 * expansion and reclamation, bank isolation, energy-ledger conservation,
 * and the software-directed longevity surface.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/react_buffer.hh"
#include "snapshot/snapshot.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace react {
namespace core {
namespace {

using units::Amps;
using units::Farads;
using units::Hertz;
using units::Joules;
using units::Seconds;
using units::Volts;
using units::Watts;

/** Drive the buffer with constant input power / load for a duration. */
void
run(ReactBuffer &buf, double seconds, double power, double load_current,
    double dt = 1e-3)
{
    const int steps = static_cast<int>(seconds / dt);
    for (int i = 0; i < steps; ++i)
        buf.step(Seconds(dt), Watts(power), Amps(load_current));
}

/** One buffer's serialized state. */
std::vector<uint8_t>
savedBytes(const ReactBuffer &buf)
{
    snapshot::SnapshotWriter w;
    w.beginSection("buffer");
    buf.save(w);
    w.endSection();
    return w.finish();
}

/** Drive with a seeded random input/load, emulating the power gate. */
void
runGated(ReactBuffer &buf, Rng &rng, int seconds)
{
    for (int s = 0; s < seconds; ++s) {
        const double p = rng.uniform(0.0, 10e-3);
        const bool on = buf.railVoltage() >= Volts(1.8);
        const double load = on ? rng.uniform(0.0, 3e-3) : 0.0;
        for (int i = 0; i < 1000; ++i) {
            buf.step(Seconds(1e-3), Watts(p), Amps(load));
            if (buf.railVoltage() >= Volts(3.3))
                buf.notifyBackendPower(true);
            else if (buf.railVoltage() <= Volts(1.8))
                buf.notifyBackendPower(false);
        }
    }
}

/** Ledger conservation: harvested == delivered + losses + stored delta. */
void
expectConservation(const ReactBuffer &buf)
{
    const auto &l = buf.ledger();
    const double balance =
        (l.harvested - l.delivered - l.totalLoss() - buf.storedEnergy())
            .raw();
    EXPECT_NEAR(balance, 0.0,
                1e-6 + 1e-3 * std::max(l.harvested.raw(),
                                       buf.storedEnergy().raw()));
}

TEST(ReactBuffer, ColdStartChargesOnlyLastLevel)
{
    ReactBuffer buf;
    run(buf, 5.0, 2e-3, 0.0);
    // The rail rises while every bank stays empty and disconnected.
    EXPECT_GT(buf.railVoltage().raw(), 3.0);
    for (int i = 0; i < buf.bankCount(); ++i) {
        EXPECT_EQ(buf.bank(i).state(), BankState::Disconnected);
        EXPECT_DOUBLE_EQ(buf.bank(i).unitVoltage().raw(), 0.0);
    }
    EXPECT_NEAR(buf.equivalentCapacitance().raw(), 770e-6, 1e-9);
    expectConservation(buf);
}

TEST(ReactBuffer, ChargesFasterThanEquivalentStaticCapacity)
{
    // The headline latency property: time to 3.3 V matches a 770 uF
    // buffer, not the 18 mF aggregate.
    ReactBuffer buf;
    double t = 0.0;
    const double dt = 1e-3, p = 1e-3;
    while (buf.railVoltage() < Volts(3.3) && t < 100.0) {
        buf.step(Seconds(dt), Watts(p), Amps(0.0));
        t += dt;
    }
    // Ideal 770 uF at 1 mW: E = 4.19 mJ -> ~4.2 s.
    EXPECT_LT(t, 8.0);
    EXPECT_GT(t, 2.0);
}

TEST(ReactBuffer, NoExpansionWhileBackendOff)
{
    ReactBuffer buf;
    // Without the MCU alive the controller cannot run: the rail clips at
    // the clamp and the level stays 0.
    run(buf, 20.0, 5e-3, 0.0);
    EXPECT_EQ(buf.capacitanceLevel(), 0);
    EXPECT_NEAR(buf.railVoltage().raw(), buf.config().railClamp.raw(),
                1e-6);
    EXPECT_GT(buf.ledger().clipped.raw(), 0.0);
}

TEST(ReactBuffer, ExpandsUnderSurplusWhenPowered)
{
    ReactBuffer buf;
    run(buf, 5.0, 2e-3, 0.0);  // charge to enable
    buf.notifyBackendPower(true);
    // Strong surplus with a light load: the controller should walk the
    // level up and capture energy in the banks.
    run(buf, 60.0, 5e-3, 0.1e-3);
    EXPECT_GT(buf.capacitanceLevel(), 2);
    EXPECT_GT(buf.storedEnergy().raw(),
              units::capEnergy(Farads(770e-6), Volts(3.6)).raw());
    // Rail must stay inside the operating band the whole time (sampled
    // at the end here; the characterization bench checks continuously).
    EXPECT_GE(buf.railVoltage().raw(), 1.8);
    EXPECT_LE(buf.railVoltage().raw(), buf.config().railClamp.raw() + 1e-9);
    expectConservation(buf);
}

TEST(ReactBuffer, CapturesMoreEnergyThanStaticSmallBuffer)
{
    // Surplus sized within REACT's 18 mF capacity (~115 mJ at 3.6 V): a
    // 770 uF static buffer would clip nearly all of it; REACT banks it.
    ReactBuffer buf;
    run(buf, 5.0, 2e-3, 0.0);
    buf.notifyBackendPower(true);
    run(buf, 40.0, 2.5e-3, 0.1e-3);
    const auto &l = buf.ledger();
    EXPECT_LT(l.clipped / l.harvested, 0.30);
    EXPECT_GT(buf.storedEnergy().raw(), 0.4 * l.harvested.raw());
}

TEST(ReactBuffer, ReclaimsChargeUnderDeficit)
{
    ReactBuffer buf;
    run(buf, 5.0, 2e-3, 0.0);
    buf.notifyBackendPower(true);
    run(buf, 60.0, 5e-3, 0.1e-3);  // fill banks
    const int level_full = buf.capacitanceLevel();
    ASSERT_GT(level_full, 2);

    // Now a heavy load with no input: the controller must walk levels
    // back down (parallel -> series boosts) to keep the rail alive.
    run(buf, 30.0, 0.0, 1.5e-3);
    EXPECT_LT(buf.capacitanceLevel(), level_full);
    expectConservation(buf);
}

TEST(ReactBuffer, ReclamationExtendsOperationVersusNoBanks)
{
    // With banks charged, operation under deficit should outlast the
    // last-level buffer alone by a large factor.
    ReactBuffer buf;
    run(buf, 5.0, 2e-3, 0.0);
    buf.notifyBackendPower(true);
    run(buf, 90.0, 5e-3, 0.1e-3);

    double survive = 0.0;
    const double dt = 1e-3;
    while (buf.railVoltage() > Volts(1.8) && survive < 300.0) {
        buf.step(Seconds(dt), Watts(0.0), Amps(1.5e-3));
        survive += dt;
    }
    // 770 uF alone from 3.6 to 1.8 V at ~1.5 mA lasts well under 2 s.
    EXPECT_GT(survive, 5.0);
}

TEST(ReactBuffer, BanksDisconnectOnBrownout)
{
    ReactBuffer buf;
    run(buf, 5.0, 2e-3, 0.0);
    buf.notifyBackendPower(true);
    run(buf, 60.0, 5e-3, 0.1e-3);
    ASSERT_GT(buf.capacitanceLevel(), 1);
    const Volts bank0_v = buf.bank(0).unitVoltage();

    buf.notifyBackendPower(false);
    for (int i = 0; i < buf.bankCount(); ++i)
        EXPECT_EQ(buf.bank(i).state(), BankState::Disconnected);
    // Charge retained through the off period (modulo leakage).
    EXPECT_NEAR(buf.bank(0).unitVoltage().raw(), bank0_v.raw(), 1e-3);

    // Power back up: FRAM state reconnects the banks.
    buf.notifyBackendPower(true);
    int connected = 0;
    for (int i = 0; i < buf.bankCount(); ++i)
        connected += buf.bank(i).connected() ? 1 : 0;
    EXPECT_GT(connected, 0);
}

TEST(ReactBuffer, UsableEnergyMonotoneInLevel)
{
    ReactBuffer buf;
    Joules prev = buf.usableEnergyAtLevel(0);
    EXPECT_GT(prev.raw(), 0.0);
    for (int level = 1; level <= buf.maxCapacitanceLevel(); ++level) {
        const Joules e = buf.usableEnergyAtLevel(level);
        EXPECT_GE(e.raw(), prev.raw());
        prev = e;
    }
    // Max level spans the full 18 mF window between thresholds.
    EXPECT_NEAR(buf.usableEnergyAtLevel(buf.maxCapacitanceLevel()).raw(),
                units::capEnergyWindow(Farads(18.03e-3), Volts(3.5),
                                       Volts(1.9))
                    .raw(),
                1e-4);
}

TEST(ReactBuffer, LongevityRequestSemantics)
{
    ReactBuffer buf;
    EXPECT_TRUE(buf.levelSatisfied());  // nothing requested
    buf.requestMinLevel(4);
    EXPECT_FALSE(buf.levelSatisfied());

    run(buf, 5.0, 2e-3, 0.0);
    buf.notifyBackendPower(true);
    run(buf, 120.0, 6e-3, 0.1e-3);
    EXPECT_GE(buf.capacitanceLevel(), 4);
    EXPECT_TRUE(buf.levelSatisfied());

    // Requests clamp to the maximum level.
    buf.requestMinLevel(999);
    EXPECT_LE(buf.maxCapacitanceLevel(), 10);
}

TEST(ReactBuffer, SoftwareOverheadScalesWithPollRate)
{
    ReactConfig cfg = ReactConfig::paperConfig();
    ReactBuffer at10(cfg);
    EXPECT_NEAR(at10.softwareOverheadFraction(), 0.018, 1e-12);
    cfg.pollRateHz = Hertz(5.0);
    ReactBuffer at5(cfg);
    EXPECT_NEAR(at5.softwareOverheadFraction(), 0.009, 1e-12);
}

TEST(ReactBuffer, OverheadDrawAccrues)
{
    ReactBuffer buf;
    run(buf, 5.0, 2e-3, 0.0);
    buf.notifyBackendPower(true);
    run(buf, 30.0, 2e-3, 0.5e-3);
    EXPECT_GT(buf.ledger().overhead.raw(), 0.0);
    // Overhead is microwatt-scale: far below delivered energy.
    EXPECT_LT(buf.ledger().overhead.raw(),
              0.05 * buf.ledger().delivered.raw());
}

TEST(ReactBuffer, ResetRestoresColdStart)
{
    ReactBuffer buf;
    run(buf, 5.0, 2e-3, 0.0);
    buf.notifyBackendPower(true);
    run(buf, 30.0, 5e-3, 0.1e-3);
    buf.reset();
    EXPECT_DOUBLE_EQ(buf.railVoltage().raw(), 0.0);
    EXPECT_DOUBLE_EQ(buf.storedEnergy().raw(), 0.0);
    EXPECT_EQ(buf.capacitanceLevel(), 0);
    EXPECT_DOUBLE_EQ(buf.ledger().harvested.raw(), 0.0);
}

TEST(ReactBuffer, LedgerConservationUnderMixedDrive)
{
    ReactBuffer buf;
    Rng rng(99);
    buf.notifyBackendPower(false);
    double t = 0.0;
    bool on = false;
    while (t < 120.0) {
        const double p = rng.uniform(0.0, 8e-3);
        const double load = on ? rng.uniform(0.0, 3e-3) : 0.0;
        for (int i = 0; i < 1000; ++i)
            buf.step(Seconds(1e-3), Watts(p), Amps(load));
        t += 1.0;
        // Emulate gate transitions.
        if (!on && buf.railVoltage() >= Volts(3.3)) {
            on = true;
            buf.notifyBackendPower(true);
        } else if (on && buf.railVoltage() <= Volts(1.8)) {
            on = false;
            buf.notifyBackendPower(false);
        }
    }
    expectConservation(buf);
}

TEST(ReactBuffer, RestoredMidRunStepsBitIdenticallyToTwin)
{
    // The per-step passes visit only the banks in the connected mask, a
    // cache restore() must rebuild from the restored bank states.  A
    // buffer restored mid-run, with banks connected, must step exactly
    // like the uninterrupted original.
    ReactBuffer original;
    Rng warmup(7);
    int seconds = 0;
    while (original.capacitanceLevel() < 2 && seconds < 600) {
        runGated(original, warmup, 1);
        ++seconds;
    }
    ASSERT_GE(original.capacitanceLevel(), 2);

    ReactBuffer restored;
    {
        snapshot::SnapshotReader r(savedBytes(original));
        r.beginSection("buffer");
        restored.restore(r);
        r.endSection();
    }
    ASSERT_EQ(savedBytes(restored), savedBytes(original));

    const uint64_t transitions_at_save = original.transitions();
    Rng drive_a(11);
    Rng drive_b(11);
    runGated(original, drive_a, 120);
    runGated(restored, drive_b, 120);
    const auto &a = original.ledger();
    const auto &b = restored.ledger();
    EXPECT_EQ(a.harvested.raw(), b.harvested.raw());
    EXPECT_EQ(a.delivered.raw(), b.delivered.raw());
    EXPECT_EQ(a.clipped.raw(), b.clipped.raw());
    EXPECT_EQ(a.leaked.raw(), b.leaked.raw());
    EXPECT_EQ(a.switchLoss.raw(), b.switchLoss.raw());
    EXPECT_EQ(a.diodeLoss.raw(), b.diodeLoss.raw());
    EXPECT_EQ(a.overhead.raw(), b.overhead.raw());
    EXPECT_EQ(savedBytes(restored), savedBytes(original));
    // The drive moved the ladder after the restore, so the mask was
    // refreshed by the poll as well.
    EXPECT_GT(original.transitions(), transitions_at_save);
}

} // namespace
} // namespace core
} // namespace react
