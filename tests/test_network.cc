/**
 * @file
 * Tests for the fully-interconnected capacitor network (the Morphy
 * substrate), centered on the paper's Fig. 5 / S 3.3.1 dissipation
 * analysis: 25 % loss for the 4-capacitor transition and 56.25 % for the
 * 8-capacitor one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "buffers/capacitor_network.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace react {
namespace buffer {
namespace {

using units::Amps;
using units::Coulombs;
using units::Farads;
using units::Joules;
using units::Seconds;
using units::Volts;

sim::CapacitorSpec
unitSpec(Farads c = Farads(1e-3))
{
    sim::CapacitorSpec s;
    s.capacitance = c;
    s.ratedVoltage = Volts(100.0);  // keep ratings out of the algebra here
    return s;
}

NetworkConfig
chainConfig(int n)
{
    NetworkConfig cfg;
    cfg.branches.emplace_back();
    for (int i = 0; i < n; ++i)
        cfg.branches.back().push_back(i);
    return cfg;
}

NetworkConfig
parallelConfig(int n)
{
    NetworkConfig cfg;
    for (int i = 0; i < n; ++i)
        cfg.branches.push_back({i});
    return cfg;
}

TEST(NetworkConfig, EquivalentCapacitance)
{
    EXPECT_NEAR(chainConfig(4).equivalentCapacitance(Farads(1e-3)).raw(),
                0.25e-3, 1e-12);
    EXPECT_NEAR(parallelConfig(4).equivalentCapacitance(Farads(1e-3)).raw(),
                4e-3, 1e-12);
    NetworkConfig mixed;
    mixed.branches = {{0, 1, 2}, {3}};  // C/3 + C = 4C/3
    EXPECT_NEAR(mixed.equivalentCapacitance(Farads(1e-3)).raw(),
                4.0e-3 / 3.0, 1e-12);
}

TEST(Network, ChargeAtOutputSplitsByBranch)
{
    CapacitorNetwork net(4, unitSpec());
    net.reconfigure(parallelConfig(4));
    net.addChargeAtOutput(Coulombs(4e-3));  // 4 mC into 4 mF -> 1 V
    EXPECT_NEAR(net.outputVoltage().raw(), 1.0, 1e-12);
    for (int i = 0; i < 4; ++i)
        EXPECT_NEAR(net.unitVoltage(i).raw(), 1.0, 1e-12);
}

TEST(Network, SeriesChainSharesCurrent)
{
    CapacitorNetwork net(3, unitSpec());
    net.reconfigure(chainConfig(3));
    net.addChargeAtOutput(Coulombs(1e-3));  // 1 mC through the chain
    // Every member gains 1 mC -> 1 V each; terminal = 3 V.
    for (int i = 0; i < 3; ++i)
        EXPECT_NEAR(net.unitVoltage(i).raw(), 1.0, 1e-12);
    EXPECT_NEAR(net.outputVoltage().raw(), 3.0, 1e-12);
}

TEST(Network, PaperFourCapacitorTransitionLoses25Percent)
{
    // Fig. 5: 4 caps in series charged to V, then one cap moves to
    // parallel with the remaining 3-series chain.  E_new / E_old = 0.75.
    const Volts v{4.0};
    CapacitorNetwork net(4, unitSpec());
    net.reconfigure(chainConfig(4));
    for (int i = 0; i < 4; ++i)
        net.setUnitVoltage(i, v / 4.0);

    const Joules e_old = net.storedEnergy();
    NetworkConfig next;
    next.branches = {{0, 1, 2}, {3}};
    const Joules loss = net.reconfigure(next);

    EXPECT_NEAR(net.outputVoltage().raw(), 3.0 * v.raw() / 8.0, 1e-9);
    EXPECT_NEAR(loss / e_old, 0.25, 1e-9);
    EXPECT_NEAR(net.storedEnergy() / e_old, 0.75, 1e-9);
}

TEST(Network, PaperEightCapacitorTransitionLoses5625Percent)
{
    // S 3.3.1: 8-parallel at V -> 7-series + 1-parallel wastes 56.25 %.
    const Volts v{2.0};
    CapacitorNetwork net(8, unitSpec());
    net.reconfigure(parallelConfig(8));
    for (int i = 0; i < 8; ++i)
        net.setUnitVoltage(i, v);

    const Joules e_old = net.storedEnergy();
    NetworkConfig next;
    next.branches = {{0, 1, 2, 3, 4, 5, 6}, {7}};
    const Joules loss = net.reconfigure(next);

    EXPECT_NEAR(loss / e_old, 0.5625, 1e-9);
    // Final output voltage: 7V/4 (charge conservation).
    EXPECT_NEAR(net.outputVoltage().raw(), 7.0 * v.raw() / 4.0, 1e-9);
}

TEST(Network, EqualVoltageReconfigurationIsLossless)
{
    CapacitorNetwork net(4, unitSpec());
    net.reconfigure(parallelConfig(4));
    for (int i = 0; i < 4; ++i)
        net.setUnitVoltage(i, Volts(2.0));
    // 4-parallel -> 2-parallel: surviving branches agree at 2 V.
    const Joules loss = net.reconfigure(parallelConfig(2));
    EXPECT_NEAR(loss.raw(), 0.0, 1e-15);
    EXPECT_NEAR(net.outputVoltage().raw(), 2.0, 1e-12);
    // Disconnected units keep their charge.
    EXPECT_NEAR(net.unitVoltage(3).raw(), 2.0, 1e-12);
}

TEST(Network, ChargeConservedAcrossReconfiguration)
{
    CapacitorNetwork net(5, unitSpec());
    net.reconfigure(parallelConfig(5));
    for (int i = 0; i < 5; ++i)
        net.setUnitVoltage(i, Volts(0.5 * (i + 1)));
    Coulombs q_before{0.0};
    for (int i = 0; i < 5; ++i)
        q_before += Farads(1e-3) * net.unitVoltage(i);

    NetworkConfig next;
    next.branches = {{0, 1}, {2}, {3}, {4}};
    net.reconfigure(next);

    // In the new arrangement the series pair counts charge once, so
    // compare total branch charge at the output node instead: the
    // equalization conserves sum(C_br * V_br).
    const Coulombs q_after = next.equivalentCapacitance(Farads(1e-3)) *
        net.outputVoltage();
    // Branch charges before equalization: pair (C/2 at v0+v1) + singles.
    const double q_pair = 0.5e-3 * (0.5 + 1.0);
    const double q_rest = 1e-3 * (1.5 + 2.0 + 2.5);
    EXPECT_NEAR(q_after.raw(), q_pair + q_rest, 1e-12);
}

TEST(Network, DisconnectedEverythingHasZeroOutput)
{
    CapacitorNetwork net(3, unitSpec());
    EXPECT_DOUBLE_EQ(net.outputVoltage().raw(), 0.0);
    EXPECT_DOUBLE_EQ(net.equivalentCapacitance().raw(), 0.0);
    net.addChargeAtOutput(Coulombs(1.0));  // no-op
    EXPECT_DOUBLE_EQ(net.storedEnergy().raw(), 0.0);
}

TEST(Network, LeakDrainsAllUnits)
{
    sim::CapacitorSpec leaky = unitSpec();
    leaky.ratedVoltage = Volts(6.3);
    leaky.leakageCurrentAtRated = Amps(6.3e-6);  // R = 1 MOhm
    CapacitorNetwork net(2, leaky);
    net.setUnitVoltage(0, Volts(3.0));
    net.setUnitVoltage(1, Volts(2.0));
    const Joules e_before = net.storedEnergy();
    const CapacitorNetwork::LeakResult res = net.leak(Seconds(10.0));
    const Joules lost = res.lost;
    EXPECT_GT(lost.raw(), 0.0);
    EXPECT_NEAR(net.storedEnergy().raw(), (e_before - lost).raw(), 1e-15);
    // The carried post-leak sum is storedEnergy() bit for bit.
    EXPECT_EQ(res.stored.raw(), net.storedEnergy().raw());
    EXPECT_LT(net.unitVoltage(0).raw(), 3.0);
    EXPECT_LT(net.unitVoltage(1).raw(), 2.0);
}

TEST(Network, ClipOutputBurnsExcess)
{
    CapacitorNetwork net(2, unitSpec());
    net.reconfigure(parallelConfig(2));
    net.setUnitVoltage(0, Volts(5.0));
    net.setUnitVoltage(1, Volts(5.0));
    const Joules clipped = net.clipOutput(Volts(3.6));
    EXPECT_GT(clipped.raw(), 0.0);
    EXPECT_NEAR(net.outputVoltage().raw(), 3.6, 1e-9);
}

/**
 * Reference network: the nested-arrangement walk with one addCharge()
 * (one division) per unit, as the network computed before it memoized
 * branch capacitances and divided once per branch-size class.  The
 * optimized network must match it bit for bit.
 */
struct ReferenceNetwork
{
    std::vector<sim::Capacitor> units;
    NetworkConfig cfg;

    ReferenceNetwork(int n, const sim::CapacitorSpec &spec)
        : units(static_cast<size_t>(n), sim::Capacitor(spec))
    {
    }

    sim::Capacitor &unit(int i) { return units[static_cast<size_t>(i)]; }

    Volts branchVoltage(const std::vector<int> &branch) const
    {
        Volts v{0.0};
        for (int i : branch)
            v += units[static_cast<size_t>(i)].voltage();
        return v;
    }

    Farads unitCap() const { return units[0].capacitance(); }

    Joules connectedEnergy() const
    {
        Joules e{0.0};
        for (const auto &branch : cfg.branches)
            for (int i : branch)
                e += units[static_cast<size_t>(i)].energy();
        return e;
    }

    Joules storedEnergy() const
    {
        Joules e{0.0};
        for (const auto &u : units)
            e += u.energy();
        return e;
    }

    void addChargeAtOutput(Coulombs dq)
    {
        if (cfg.branches.empty())
            return;
        const Volts dv = dq / cfg.equivalentCapacitance(unitCap());
        for (const auto &branch : cfg.branches) {
            const Coulombs dq_br =
                unitCap() / static_cast<double>(branch.size()) * dv;
            for (int i : branch)
                unit(i).addCharge(dq_br);
        }
    }

    Joules reconfigure(const NetworkConfig &next)
    {
        cfg = next;
        if (cfg.branches.empty())
            return Joules(0.0);
        Coulombs q_total{0.0};
        Farads c_total{0.0};
        for (const auto &branch : cfg.branches) {
            const Farads c_br =
                unitCap() / static_cast<double>(branch.size());
            q_total += c_br * branchVoltage(branch);
            c_total += c_br;
        }
        const Volts v_final = std::max(q_total / c_total, Volts(0.0));
        const Joules e_before = connectedEnergy();
        for (const auto &branch : cfg.branches) {
            const Farads c_br =
                unitCap() / static_cast<double>(branch.size());
            const Coulombs dq = c_br * (v_final - branchVoltage(branch));
            for (int i : branch)
                unit(i).addCharge(dq);
        }
        return std::max(e_before - connectedEnergy(), Joules(0.0));
    }

    bool connected(int idx) const
    {
        for (const auto &branch : cfg.branches)
            if (std::find(branch.begin(), branch.end(), idx) != branch.end())
                return true;
        return false;
    }

    Joules clipOutput(Volts ceiling)
    {
        Joules clipped{0.0};
        if (!cfg.branches.empty()) {
            const Volts v_out = branchVoltage(cfg.branches[0]);
            if (v_out > ceiling) {
                const Joules e_before = connectedEnergy();
                addChargeAtOutput(cfg.equivalentCapacitance(unitCap()) *
                                  (ceiling - v_out));
                clipped += e_before - connectedEnergy();
            }
        }
        for (int i = 0; i < static_cast<int>(units.size()); ++i)
            if (!connected(i))
                clipped += unit(i).clip();
        return clipped;
    }
};

void
expectSameUnits(const CapacitorNetwork &net, const ReferenceNetwork &ref)
{
    for (int i = 0; i < net.unitCount(); ++i)
        EXPECT_EQ(net.unitVoltage(i).raw(),
                  ref.units[static_cast<size_t>(i)].voltage().raw())
            << "unit " << i;
    EXPECT_EQ(net.storedEnergy().raw(), ref.storedEnergy().raw());
}

/** Random charge moves, leaks and clips on both; every result must
 *  match bit for bit. */
void
exerciseAgainstReference(CapacitorNetwork &net, ReferenceNetwork &ref,
                         Rng &rng)
{
    for (int round = 0; round < 50; ++round) {
        const Coulombs dq(rng.uniform(-4e-3, 6e-3));
        net.addChargeAtOutput(dq);
        ref.addChargeAtOutput(dq);
        expectSameUnits(net, ref);

        const CapacitorNetwork::LeakResult leak = net.leak(Seconds(1e-3));
        Joules ref_lost{0.0};
        for (auto &u : ref.units)
            ref_lost += u.leak(Seconds(1e-3));
        EXPECT_EQ(leak.lost.raw(), ref_lost.raw());
        EXPECT_EQ(leak.stored.raw(), ref.storedEnergy().raw());

        const Volts ceiling(rng.uniform(1.0, 4.0));
        EXPECT_EQ(net.clipOutput(ceiling).raw(),
                  ref.clipOutput(ceiling).raw());
        expectSameUnits(net, ref);
        EXPECT_EQ(net.equivalentCapacitance().raw(),
                  ref.cfg.equivalentCapacitance(ref.unitCap()).raw());
    }
}

TEST(Network, MatchesPerUnitDivisionReferenceOnMixedBranches)
{
    // Mixed and repeated branch sizes, branches out of index order, and
    // disconnected units (rated at 4 V, so the clip pass bites).
    sim::CapacitorSpec spec;
    spec.capacitance = Farads(2e-3);
    spec.ratedVoltage = Volts(4.0);
    spec.leakageCurrentAtRated = Amps(6.3e-6);
    const std::vector<NetworkConfig> arrangements = {
        NetworkConfig{{{0, 1, 2}, {3, 4}, {5}}},
        NetworkConfig{{{6}, {0, 1}, {2}, {3, 4, 5}}},
        NetworkConfig{{{4, 2}, {6, 0, 5}, {1}}},
        NetworkConfig{{{0, 1}, {2, 3}, {4, 5}, {6}}},
        NetworkConfig{{{0}, {1}, {2}, {3}, {4}, {5}, {6}}},
        NetworkConfig{{{0, 1, 2, 3, 4, 5, 6}}},
        NetworkConfig{},
    };

    CapacitorNetwork net(7, spec);
    ReferenceNetwork ref(7, spec);
    Rng rng(2024);
    for (int i = 0; i < 7; ++i) {
        const Volts v(rng.uniform(0.0, 3.5));
        net.setUnitVoltage(i, v);
        ref.unit(i).setVoltage(v);
    }
    for (const auto &next : arrangements) {
        EXPECT_EQ(net.reconfigure(next).raw(), ref.reconfigure(next).raw());
        expectSameUnits(net, ref);
        exerciseAgainstReference(net, ref, rng);
    }

    // A copy and an assignment carry the compiled step state with them.
    net.reconfigure(arrangements[1]);
    ref.reconfigure(arrangements[1]);
    CapacitorNetwork copied(net);
    ReferenceNetwork copied_ref = ref;
    exerciseAgainstReference(copied, copied_ref, rng);
    CapacitorNetwork assigned(7, spec);
    assigned = net;
    ReferenceNetwork assigned_ref = ref;
    exerciseAgainstReference(assigned, assigned_ref, rng);
    EXPECT_EQ(copied.reconfigure(arrangements[2]).raw(),
              copied_ref.reconfigure(arrangements[2]).raw());
    exerciseAgainstReference(copied, copied_ref, rng);
}

} // namespace
} // namespace buffer
} // namespace react
