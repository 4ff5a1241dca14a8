/**
 * @file
 * Tests for the deterministic hardware fault injector and the hardened
 * management software it exercises: per-component stream derivation,
 * schedule determinism, torn-FRAM crash consistency, the REACT watchdog's
 * bank retirement, safe-default recovery from corrupt config records,
 * and the component-handle contract (intern() is inert, handles survive
 * restore(), the faulted step path never allocates).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/react_buffer.hh"
#include "intermittent/nonvolatile.hh"
#include "sim/fault_injector.hh"
#include "sim/power_gate.hh"
#include "snapshot/snapshot.hh"
#include "util/rng.hh"
#include "util/units.hh"

// ---------------------------------------------------------------------
// Counting allocator shims for the zero-allocation step audit below.
// ---------------------------------------------------------------------

namespace {

std::atomic<uint64_t> g_allocCount{0};

uint64_t
allocCount()
{
    return g_allocCount.load(std::memory_order_relaxed);
}

} // namespace

// GCC pairs the replacement delete below against the *default* operator
// new and warns about free(); the pairing is correct here because the
// replacement new allocates with malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(size_t size)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

namespace react {
namespace {

using core::ReactBuffer;
using sim::FaultEventKind;
using sim::FaultHandle;
using sim::FaultInjector;
using sim::FaultPlan;
using units::Amps;
using units::Seconds;
using units::Volts;
using units::Watts;

// ---------------------------------------------------------------------
// Seeding: child streams are pure functions of (master seed, tag).
// ---------------------------------------------------------------------

TEST(FaultSeeding, ChildStreamsAreReproducible)
{
    Rng a(42);
    Rng b(42);
    Rng child_a = a.child(7);
    // Consuming draws from the master or other children must not shift
    // an already-derived (or later-derived) child stream.
    a.uniform(0.0, 1.0);
    Rng unrelated = a.child(99);
    unrelated.uniform(0.0, 1.0);
    Rng child_b = b.child(7);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(child_a.next(), child_b.next());
}

TEST(FaultSeeding, ComponentStreamsAreOrderIndependent)
{
    // Component streams are keyed by name, so the order in which
    // components first touch the injector must not change any stream.
    FaultPlan plan;
    plan.comparatorMisreadsPerHour = 1000.0;
    plan.comparatorDriftVoltsPerSqrtHour = 0.1;

    FaultInjector first(plan, 123);
    FaultInjector second(plan, 123);

    // Intern and warm them up in opposite component order: the handles
    // differ, the streams must not.
    const FaultHandle alpha1 = first.intern("alpha");
    const FaultHandle beta1 = first.intern("beta");
    const FaultHandle beta2 = second.intern("beta");
    const FaultHandle alpha2 = second.intern("alpha");
    first.comparatorRead(alpha1, Volts(2.0));
    first.comparatorRead(beta1, Volts(2.0));
    second.comparatorRead(beta2, Volts(2.0));
    second.comparatorRead(alpha2, Volts(2.0));

    for (int i = 0; i < 2000; ++i) {
        first.advance(Seconds(1e-3));
        second.advance(Seconds(1e-3));
        EXPECT_DOUBLE_EQ(first.comparatorRead(alpha1, Volts(2.5)).raw(),
                         second.comparatorRead(alpha2, Volts(2.5)).raw());
        EXPECT_DOUBLE_EQ(first.comparatorRead(beta1, Volts(2.5)).raw(),
                         second.comparatorRead(beta2, Volts(2.5)).raw());
    }
}

// ---------------------------------------------------------------------
// Determinism: the same plan and seed replay the same fault schedule.
// ---------------------------------------------------------------------

TEST(FaultInjector, SamePlanAndSeedReplayIdentically)
{
    const FaultPlan plan = FaultPlan::stress(2.0);
    FaultInjector a(plan, 0xabcdef);
    FaultInjector b(plan, 0xabcdef);
    const FaultHandle comp_a = a.intern("comp");
    const FaultHandle comp_b = b.intern("comp");

    double sum_a = 0.0;
    double sum_b = 0.0;
    for (int i = 0; i < 200000; ++i) {
        a.advance(Seconds(1e-3));
        b.advance(Seconds(1e-3));
        sum_a += a.filterHarvest(Watts(1e-3)).raw();
        sum_b += b.filterHarvest(Watts(1e-3)).raw();
        sum_a += a.comparatorRead(comp_a, Volts(2.0)).raw();
        sum_b += b.comparatorRead(comp_b, Volts(2.0)).raw();
    }
    EXPECT_DOUBLE_EQ(sum_a, sum_b);
    EXPECT_EQ(a.faultCount(), b.faultCount());
    EXPECT_EQ(a.events().size(), b.events().size());
    for (size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
        EXPECT_DOUBLE_EQ(a.events()[i].time.raw(), b.events()[i].time.raw());
    }
}

TEST(FaultInjector, DifferentSeedsDiverge)
{
    FaultPlan plan;
    plan.harvesterDropoutsPerHour = 500.0;
    FaultInjector a(plan, 1);
    FaultInjector b(plan, 2);
    double first_a = -1.0;
    double first_b = -1.0;
    for (int i = 0; i < 3600000 && (first_a < 0.0 || first_b < 0.0);
         ++i) {
        a.advance(Seconds(1e-3));
        b.advance(Seconds(1e-3));
        if (first_a < 0.0 && a.inHarvesterDropout())
            first_a = a.now().raw();
        if (first_b < 0.0 && b.inHarvesterDropout())
            first_b = b.now().raw();
    }
    ASSERT_GE(first_a, 0.0);
    ASSERT_GE(first_b, 0.0);
    EXPECT_NE(first_a, first_b);
}

TEST(FaultInjector, DropoutsZeroHarvestAndAreBalanced)
{
    FaultPlan plan;
    plan.harvesterDropoutsPerHour = 200.0;
    plan.harvesterDropoutMeanSeconds = Seconds(2.0);
    FaultInjector inj(plan, 7);
    for (int i = 0; i < 3600000; ++i) {
        inj.advance(Seconds(1e-3));
        if (inj.inHarvesterDropout())
            EXPECT_EQ(inj.filterHarvest(Watts(5e-3)).raw(), 0.0);
        else
            EXPECT_EQ(inj.filterHarvest(Watts(5e-3)).raw(), 5e-3);
    }
    const uint64_t begins =
        inj.eventCount(FaultEventKind::HarvesterDropoutBegin);
    const uint64_t ends =
        inj.eventCount(FaultEventKind::HarvesterDropoutEnd);
    EXPECT_GT(begins, 0u);
    // Every dropout that began either ended or is still in progress.
    EXPECT_GE(begins, ends);
    EXPECT_LE(begins - ends, 1u);
}

TEST(FaultInjector, ZeroPlanIsTransparent)
{
    // An attached all-zero injector must behave as if absent: reads pass
    // through, switches never jam, harvest is untouched.
    FaultInjector inj(FaultPlan::none(), 99);
    const FaultHandle comparator = inj.intern("c");
    const FaultHandle sw = inj.intern("s");
    const FaultHandle cap = inj.intern("cap");
    for (int i = 0; i < 1000; ++i) {
        inj.advance(Seconds(1e-3));
        EXPECT_EQ(inj.comparatorRead(comparator, Volts(1.23)).raw(), 1.23);
        EXPECT_TRUE(inj.switchActuates(sw));
        EXPECT_EQ(inj.filterHarvest(Watts(2e-3)).raw(), 2e-3);
        EXPECT_EQ(inj.capacitanceFactor(cap), 1.0);
        EXPECT_EQ(inj.esrMultiplier(sw), 1.0);
    }
    EXPECT_EQ(inj.faultCount(), 0u);
}

// ---------------------------------------------------------------------
// Torn FRAM writes must never break crash consistency: the committed
// double-buffer slot stays readable, only the in-flight slot is hit.
// ---------------------------------------------------------------------

TEST(FaultInjector, TornWriteLeavesCommittedDataReadable)
{
    FaultPlan plan;
    plan.framCorruptionPerPowerLoss = 1.0;
    FaultInjector inj(plan, 5);

    intermittent::NonVolatileStore nv;
    nv.attachFaultInjector(&inj);

    const std::vector<uint8_t> committed = {1, 2, 3, 4};
    nv.stage("key", committed);
    nv.commit();

    for (int attempt = 0; attempt < 8; ++attempt) {
        nv.stage("key", std::vector<uint8_t>(64, 0xee));
        nv.failInFlightWrites();  // tear guaranteed by the plan
        std::vector<uint8_t> out;
        ASSERT_TRUE(nv.read("key", &out));
        EXPECT_EQ(out, committed);
    }
    EXPECT_GT(inj.eventCount(FaultEventKind::FramCorruption), 0u);
}

// ---------------------------------------------------------------------
// Watchdog: a jammed bank switch is detected from terminal-voltage
// telemetry and the bank is retired; the buffer keeps operating on the
// remaining banks (ultimately last-level-only).
// ---------------------------------------------------------------------

TEST(Watchdog, RetiresStuckBanksAndKeepsOperating)
{
    FaultPlan plan;
    plan.switchStuckProbability = 1.0;  // every commanded transition jams
    FaultInjector inj(plan, 11);

    ReactBuffer buf;
    buf.attachFaultInjector(&inj);

    // Generous harvest drives the controller up the ladder; every bank
    // connection attempt jams and must be retired within a few polls.
    // The management software runs on the backend MCU, so emulate the
    // power gate (on at 3.3 V, brown-out at 1.8 V).
    bool on = false;
    for (int i = 0; i < 400000; ++i) {
        inj.advance(Seconds(1e-3));
        buf.step(Seconds(1e-3), Watts(20e-3), Amps(on ? 1e-3 : 0.0));
        if (!on && buf.railVoltage() >= Volts(3.3)) {
            on = true;
            buf.notifyBackendPower(true);
        } else if (on && buf.railVoltage() <= Volts(1.8)) {
            on = false;
            buf.notifyBackendPower(false);
        }
    }

    EXPECT_EQ(buf.retiredBankCount(), buf.bankCount());
    EXPECT_EQ(buf.maxCapacitanceLevel(), 0);
    EXPECT_EQ(static_cast<int>(
                  inj.eventCount(FaultEventKind::BankRetired)),
              buf.bankCount());

    // Last-level-only operation: the rail still regulates inside the
    // paper's comparator band and the backend can draw from it.
    EXPECT_GE(buf.railVoltage().raw(), buf.config().vLow.raw());
    EXPECT_LE(buf.railVoltage().raw(), buf.config().railClamp.raw() + 1e-9);
    const units::Joules before = buf.storedEnergy();
    buf.step(Seconds(1e-3), Watts(0.0), Amps(1e-3));
    EXPECT_LT(buf.storedEnergy().raw(), before.raw());
}

TEST(Watchdog, HealthyBuffersNeverRetireUnderMisreads)
{
    // Transient comparator misreads alone must not accumulate into a
    // retirement: the counters reset whenever telemetry matches the
    // commanded state again.
    FaultPlan plan;
    plan.comparatorMisreadsPerHour = 3000.0;
    plan.comparatorMisreadMagnitude = 1.5;
    FaultInjector inj(plan, 13);

    ReactBuffer buf;
    buf.attachFaultInjector(&inj);
    bool on = false;
    for (int i = 0; i < 600000; ++i) {
        inj.advance(Seconds(1e-3));
        buf.step(Seconds(1e-3), Watts(15e-3),
                 Amps(on && i % 2 == 0 ? 1e-3 : 0.0));
        if (!on && buf.railVoltage() >= Volts(3.3)) {
            on = true;
            buf.notifyBackendPower(true);
        } else if (on && buf.railVoltage() <= Volts(1.8)) {
            on = false;
            buf.notifyBackendPower(false);
        }
    }
    EXPECT_GT(buf.capacitanceLevel(), 0);  // the controller did run
    EXPECT_EQ(buf.retiredBankCount(), 0);
}

TEST(Watchdog, JammedSwitchStaysInTheConnectedSetThroughBrownOut)
{
    // A brown-out releases every bank switch except a jammed one, whose
    // bank stays wired into the network.  The per-step passes visit only
    // the banks in the buffer's connected mask, so the mask must keep
    // the jammed bank: the buffer must step exactly like a twin restored
    // from its state (restore() rebuilds the mask from the bank states).
    FaultPlan plan;
    plan.switchStuckProbability = 0.3;
    FaultInjector inj(plan, 23);
    ReactBuffer buf;
    buf.attachFaultInjector(&inj);
    std::vector<FaultHandle> switches;
    for (int i = 0; i < buf.bankCount(); ++i)
        switches.push_back(
            inj.intern("react.bank" + std::to_string(i) + ".switch"));
    auto jammed_connected = [&]() {
        for (int i = 0; i < buf.bankCount(); ++i) {
            if (buf.bank(i).connected() &&
                inj.isSwitchStuck(switches[static_cast<size_t>(i)]))
                return i;
        }
        return -1;
    };

    bool on = false;
    int jammed = -1;
    for (int i = 0; i < 600000 && jammed < 0; ++i) {
        inj.advance(Seconds(1e-3));
        buf.step(Seconds(1e-3), Watts(20e-3), Amps(on ? 1e-3 : 0.0));
        if (!on && buf.railVoltage() >= Volts(3.3)) {
            on = true;
            buf.notifyBackendPower(true);
        } else if (on && buf.railVoltage() <= Volts(1.8)) {
            on = false;
            buf.notifyBackendPower(false);
        }
        if (on)
            jammed = jammed_connected();
    }
    ASSERT_GE(jammed, 0);

    buf.notifyBackendPower(false);
    ASSERT_TRUE(buf.bank(jammed).connected());

    FaultInjector twin_inj(plan, 23);
    ReactBuffer twin;
    twin.attachFaultInjector(&twin_inj);
    {
        snapshot::SnapshotWriter w;
        w.beginSection("inj");
        inj.save(w);
        w.endSection();
        w.beginSection("buffer");
        buf.save(w);
        w.endSection();
        snapshot::SnapshotReader r(w.finish());
        r.beginSection("inj");
        twin_inj.restore(r);
        r.endSection();
        r.beginSection("buffer");
        twin.restore(r);
        r.endSection();
    }

    const Volts jammed_v = buf.bank(jammed).unitVoltage();
    for (int i = 0; i < 5000; ++i) {
        inj.advance(Seconds(1e-3));
        twin_inj.advance(Seconds(1e-3));
        buf.step(Seconds(1e-3), Watts(0.0), Amps(2e-3));
        twin.step(Seconds(1e-3), Watts(0.0), Amps(2e-3));
    }
    // The load pulled the rail below the jammed bank, which fed it (a
    // drop far beyond the millivolts leakage takes from a floating
    // bank), and the twins never diverged.
    EXPECT_GT((jammed_v - buf.bank(jammed).unitVoltage()).raw(), 0.05);
    auto state = [](const ReactBuffer &b) {
        snapshot::SnapshotWriter w;
        w.beginSection("buffer");
        b.save(w);
        w.endSection();
        return w.finish();
    };
    EXPECT_EQ(state(buf), state(twin));
}

// ---------------------------------------------------------------------
// FRAM config record: a corrupt record is detected by CRC and replaced
// with the safe default instead of being trusted.
// ---------------------------------------------------------------------

TEST(FramRecovery, CorruptRecordFallsBackToSafeDefault)
{
    FaultPlan plan;
    plan.framCorruptionPerPowerLoss = 1.0;
    FaultInjector inj(plan, 17);

    ReactBuffer buf;
    buf.attachFaultInjector(&inj);

    // Charge until the backend window opens, then let the controller
    // climb the ladder (it polls only while the backend is powered).
    bool on = false;
    for (int i = 0; i < 300000; ++i) {
        inj.advance(Seconds(1e-3));
        buf.step(Seconds(1e-3), Watts(20e-3), Amps(0.0));
        if (!on && buf.railVoltage() >= Volts(3.3)) {
            on = true;
            buf.notifyBackendPower(true);
        }
    }
    ASSERT_TRUE(on);
    ASSERT_GT(buf.capacitanceLevel(), 0);

    // Power loss tears the persisted record; the next boot must detect
    // the corruption and restart from the safe default level 0.
    buf.notifyBackendPower(false);
    buf.notifyBackendPower(true);
    EXPECT_EQ(buf.capacitanceLevel(), 0);
    EXPECT_EQ(buf.framRecoveries(), 1);
    EXPECT_GE(static_cast<int>(
                  inj.eventCount(FaultEventKind::FramRecovery)),
              1);

    // The buffer keeps working after recovery: it can climb again
    // (the backend is on, so the controller resumes polling).
    for (int i = 0; i < 200000; ++i) {
        inj.advance(Seconds(1e-3));
        buf.step(Seconds(1e-3), Watts(20e-3), Amps(0.0));
    }
    EXPECT_GT(buf.capacitanceLevel(), 0);
}

// ---------------------------------------------------------------------
// Snapshot round-trip: a restored injector replays the uninterrupted
// fault schedule bit-for-bit (the property experiment checkpoints rely
// on -- a resumed run must see the exact same faults it would have).
// ---------------------------------------------------------------------

TEST(FaultSnapshot, RestoredInjectorReplaysTheExactSchedule)
{
    FaultPlan plan;
    plan.comparatorMisreadsPerHour = 2000.0;
    plan.comparatorDriftVoltsPerSqrtHour = 0.05;
    plan.switchStuckProbability = 0.01;
    plan.switchSlowProbability = 0.05;
    plan.harvesterDropoutsPerHour = 400.0;
    plan.framCorruptionPerPowerLoss = 0.5;

    FaultInjector live(plan, 97);
    const FaultHandle live_cmp = live.intern("cmp");
    const FaultHandle live_sw = live.intern("sw");
    const FaultHandle live_fram = live.intern("fram");
    // Warm up: let every component lazily create its stream, including
    // one that has already jammed by the time we snapshot.
    Rng stim(5);
    for (int i = 0; i < 5000; ++i) {
        live.advance(Seconds(1e-3));
        (void)live.comparatorRead(live_cmp, Volts(stim.uniform(1.0, 3.0)));
        if (i % 50 == 0)
            (void)live.switchActuates(live_sw);
    }

    snapshot::SnapshotWriter w;
    w.beginSection("inj");
    live.save(w);
    w.endSection();
    const std::vector<uint8_t> image = w.finish();

    // Restore into an injector built with a different seed: every word
    // of stream state must come from the snapshot, not the constructor.
    FaultInjector restored(plan, 1);
    snapshot::SnapshotReader r(image);
    r.beginSection("inj");
    restored.restore(r);
    r.endSection();
    const FaultHandle cmp = restored.intern("cmp");
    const FaultHandle sw = restored.intern("sw");
    const FaultHandle fram = restored.intern("fram");

    EXPECT_DOUBLE_EQ(restored.now().raw(), live.now().raw());
    EXPECT_EQ(restored.faultCount(), live.faultCount());
    for (int i = 0; i < 20000; ++i) {
        live.advance(Seconds(1e-3));
        restored.advance(Seconds(1e-3));
        const Volts v(stim.uniform(1.0, 3.0));
        EXPECT_DOUBLE_EQ(restored.comparatorRead(cmp, v).raw(),
                         live.comparatorRead(live_cmp, v).raw());
        EXPECT_EQ(restored.filterHarvest(Watts(1e-3)).raw(),
                  live.filterHarvest(Watts(1e-3)).raw());
        if (i % 100 == 0) {
            EXPECT_EQ(restored.switchActuates(sw),
                      live.switchActuates(live_sw));
            std::vector<uint8_t> a{1, 2, 3, 4}, b{1, 2, 3, 4};
            EXPECT_EQ(restored.maybeCorruptOnPowerLoss(fram, &a),
                      live.maybeCorruptOnPowerLoss(live_fram, &b));
            EXPECT_EQ(a, b);
        }
    }
    EXPECT_EQ(restored.faultCount(), live.faultCount());
    EXPECT_EQ(restored.recoveryCount(), live.recoveryCount());
}

// ---------------------------------------------------------------------
// Component handles: intern() is inert, a handle's first use behaves
// exactly like a by-name lookup at that moment, handles survive
// restore() and re-attachment, and the faulted step path is free of
// heap allocations.
// ---------------------------------------------------------------------

/** The injector's serialized state, for byte-exact comparisons. */
std::vector<uint8_t>
savedBytes(const FaultInjector &inj)
{
    snapshot::SnapshotWriter w;
    w.beginSection("inj");
    inj.save(w);
    w.endSection();
    return w.finish();
}

TEST(FaultHandles, InternCreatesNothing)
{
    FaultInjector inj(FaultPlan::stress(2.0), 31);
    const FaultHandle used = inj.intern("used");
    for (int i = 0; i < 500; ++i) {
        inj.advance(Seconds(1e-3));
        (void)inj.comparatorRead(used, Volts(2.0));
    }
    const std::vector<uint8_t> before = savedBytes(inj);

    const FaultHandle fresh = inj.intern("fresh");
    EXPECT_NE(fresh.index, used.index);
    EXPECT_EQ(inj.intern("used").index, used.index);
    EXPECT_EQ(inj.intern("fresh").index, fresh.index);
    // A pure query on an unused handle creates nothing either.
    EXPECT_FALSE(inj.isSwitchStuck(fresh));
    EXPECT_EQ(savedBytes(inj), before);
}

TEST(FaultHandles, FirstUseAfterAdvanceMatchesLateIntern)
{
    // `early` interns at t = 0 (as owners do at attach time); `late`
    // interns at the moment of first use (as a by-name lookup would).
    // Creation happens at first use either way, so the drift origin and
    // the first misread/diode draws land at the same time.
    const FaultPlan plan = FaultPlan::stress(4.0);
    FaultInjector early(plan, 77);
    FaultInjector late(plan, 77);
    const FaultHandle early_cmp = early.intern("react.comparator");
    const FaultHandle early_diode = early.intern("react.bank0.diode.in");
    for (int i = 0; i < 1234; ++i) {
        early.advance(Seconds(1e-3));
        late.advance(Seconds(1e-3));
    }
    const FaultHandle late_cmp = late.intern("react.comparator");
    const FaultHandle late_diode = late.intern("react.bank0.diode.in");
    for (int i = 0; i < 50000; ++i) {
        EXPECT_EQ(early.comparatorRead(early_cmp, Volts(2.5)).raw(),
                  late.comparatorRead(late_cmp, Volts(2.5)).raw());
        EXPECT_EQ(early.diodeFault(early_diode),
                  late.diodeFault(late_diode));
        early.advance(Seconds(1e-2));
        late.advance(Seconds(1e-2));
    }
    EXPECT_GT(early.faultCount(), 0u);
    EXPECT_EQ(savedBytes(early), savedBytes(late));
}

TEST(FaultHandles, HandlesResolveToRestoredComponents)
{
    FaultPlan plan;
    plan.switchStuckProbability = 0.2;
    plan.comparatorDriftVoltsPerSqrtHour = 0.5;
    plan.comparatorMisreadsPerHour = 2000.0;

    FaultInjector live(plan, 5);
    const FaultHandle live_sw = live.intern("sw");
    const FaultHandle live_cmp = live.intern("cmp");
    for (int i = 0; i < 2000; ++i) {
        live.advance(Seconds(1e-3));
        (void)live.switchActuates(live_sw);
        (void)live.comparatorRead(live_cmp, Volts(2.0));
    }
    ASSERT_TRUE(live.isSwitchStuck(live_sw));
    const std::vector<uint8_t> image = savedBytes(live);

    // The target interned other names first (so its indices differ from
    // live's) and already has live components of its own, one of which
    // ("other") the snapshot does not contain.
    FaultInjector target(plan, 6);
    const FaultHandle other = target.intern("other");
    const FaultHandle cmp = target.intern("cmp");
    const FaultHandle sw = target.intern("sw");
    target.advance(Seconds(0.5));
    (void)target.comparatorRead(other, Volts(1.0));
    (void)target.comparatorRead(cmp, Volts(1.0));
    EXPECT_FALSE(target.isSwitchStuck(sw));

    snapshot::SnapshotReader r(image);
    r.beginSection("inj");
    target.restore(r);
    r.endSection();

    // Pre-restore handles now name the restored components; "other"
    // is gone until its next first use.
    EXPECT_TRUE(target.isSwitchStuck(sw));
    EXPECT_EQ(savedBytes(target), image);
    for (int i = 0; i < 5000; ++i) {
        live.advance(Seconds(1e-3));
        target.advance(Seconds(1e-3));
        EXPECT_EQ(target.comparatorRead(cmp, Volts(2.0)).raw(),
                  live.comparatorRead(live_cmp, Volts(2.0)).raw());
        EXPECT_EQ(target.switchActuates(sw), live.switchActuates(live_sw));
    }
}

TEST(FaultHandles, ReattachingAFreshInjectorRebindsHandles)
{
    // The harness's cold-start path replaces a rejected run's injector
    // and re-attaches it.  The buffer must then draw from the new
    // injector's components even when its names intern to other
    // indices there.
    const FaultPlan plan = FaultPlan::stress(4.0);
    // The discarded run ages nothing: reset() restores charge and
    // control state, not derated capacitance.
    FaultPlan discarded_plan;
    discarded_plan.comparatorMisreadsPerHour = 3000.0;
    ReactBuffer reused;
    FaultInjector discarded(discarded_plan, 3);
    reused.attachFaultInjector(&discarded);
    for (int i = 0; i < 1000; ++i) {
        discarded.advance(Seconds(1e-3));
        reused.step(Seconds(1e-3), Watts(10e-3), Amps(0.0));
    }
    reused.reset();
    FaultInjector shifted(plan, 9);
    (void)shifted.intern("unrelated.first");
    reused.attachFaultInjector(&shifted);

    ReactBuffer fresh;
    FaultInjector reference(plan, 9);
    fresh.attachFaultInjector(&reference);

    bool on = false;
    for (int i = 0; i < 200000; ++i) {
        shifted.advance(Seconds(1e-3));
        reference.advance(Seconds(1e-3));
        const Amps load(on ? 1e-3 : 0.0);
        reused.step(Seconds(1e-3), shifted.filterHarvest(Watts(10e-3)),
                    load);
        fresh.step(Seconds(1e-3), reference.filterHarvest(Watts(10e-3)),
                   load);
        ASSERT_EQ(reused.railVoltage().raw(), fresh.railVoltage().raw())
            << "step " << i;
        if ((!on && fresh.railVoltage() >= Volts(3.3)) ||
            (on && fresh.railVoltage() <= Volts(1.8))) {
            on = !on;
            reused.notifyBackendPower(on);
            fresh.notifyBackendPower(on);
        }
    }
    EXPECT_EQ(shifted.faultCount(), reference.faultCount());
    EXPECT_GT(reference.faultCount(), 0u);
}

TEST(FaultHandles, FaultedReactAndGateStepsDoNotAllocate)
{
    // Every hook on the REACT and power-gate step path is live under the
    // stress plan.  A step allocates only when it records a fault event
    // (the event log stores the component's name); every other step --
    // including the first use of each component -- must not touch the
    // heap.
    const FaultPlan plan = FaultPlan::stress(4.0);
    FaultInjector inj(plan, 21);
    ReactBuffer buf;
    sim::PowerGate gate(Volts(3.3), Volts(1.8));
    buf.attachFaultInjector(&inj);
    gate.attachFaultInjector(&inj);

    const auto eventTotal = [&inj]() {
        return inj.faultCount() + inj.recoveryCount();
    };
    uint64_t quiet_steps = 0;
    uint64_t leaking_steps = 0;
    for (int i = 0; i < 400000; ++i) {
        const uint64_t events_before = eventTotal();
        const uint64_t allocs_before = allocCount();
        inj.advance(Seconds(1e-3));
        buf.step(Seconds(1e-3), inj.filterHarvest(Watts(12e-3)),
                 Amps(gate.isOn() ? 2e-3 : 0.0));
        if (gate.update(buf.railVoltage()))
            buf.notifyBackendPower(gate.isOn());
        const uint64_t allocs = allocCount() - allocs_before;
        if (eventTotal() != events_before)
            continue;
        ++quiet_steps;
        leaking_steps += allocs != 0 ? 1 : 0;
    }
    EXPECT_GT(inj.faultCount(), 0u);
    EXPECT_GT(quiet_steps, 390000u);
    EXPECT_EQ(leaking_steps, 0u);
}

} // namespace
} // namespace react
