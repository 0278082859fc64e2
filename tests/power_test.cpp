/**
 * @file
 * Tests for the power-delivery model: transient solver, domains, PMIC
 * sequencing, probes and test pads.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "power/board.hh"
#include "power/power_domain.hh"
#include "power/transient.hh"
#include "sim/logging.hh"

namespace voltboot
{
namespace
{

VoltageProbe
benchSupply(double volts = 0.8, double amps = 3.0, double ohms = 0.05)
{
    return VoltageProbe{Volt(volts), Amp(amps), Ohm(ohms)};
}

TEST(TransientSolver, NoSurgeNoDroop)
{
    const ProbeTransient t = TransientSolver::solve(
        benchSupply(), Amp(0.0), Amp::milliamps(8),
        Farad::microfarads(100), Seconds::microseconds(5));
    EXPECT_NEAR(t.v_min.volts(), 0.8, 1e-9);
    EXPECT_FALSE(t.current_limited);
}

TEST(TransientSolver, OhmicDroopWithinLimit)
{
    // 0.5 A through 0.05 ohm = 25 mV worst case, minus RC smoothing.
    const ProbeTransient t = TransientSolver::solve(
        benchSupply(), Amp(0.5), Amp::milliamps(8),
        Farad::microfarads(100), Seconds::microseconds(50));
    EXPECT_FALSE(t.current_limited);
    EXPECT_LT(t.v_min.volts(), 0.8);
    EXPECT_GT(t.v_min.volts(), 0.8 - 0.025 - 1e-9);
}

TEST(TransientSolver, DecapSmoothsShortSurges)
{
    // With tau = R*C = 5 us and a 1 us surge, the droop only develops
    // ~18% of its ohmic worst case.
    const ProbeTransient fast = TransientSolver::solve(
        benchSupply(), Amp(2.0), Amp::milliamps(8),
        Farad::microfarads(100), Seconds::microseconds(1));
    const ProbeTransient slow = TransientSolver::solve(
        benchSupply(), Amp(2.0), Amp::milliamps(8),
        Farad::microfarads(100), Seconds::microseconds(50));
    EXPECT_GT(fast.v_min, slow.v_min);
}

TEST(TransientSolver, BiggerDecapMeansLessDroop)
{
    const ProbeTransient small = TransientSolver::solve(
        benchSupply(), Amp(2.0), Amp::milliamps(8),
        Farad::microfarads(10), Seconds::microseconds(5));
    const ProbeTransient big = TransientSolver::solve(
        benchSupply(), Amp(2.0), Amp::milliamps(8),
        Farad::microfarads(470), Seconds::microseconds(5));
    EXPECT_GE(big.v_min, small.v_min);
}

TEST(TransientSolver, CurrentLimitedSupplyCollapses)
{
    // A 100 mA wall-wart cannot source a 600 mA surge: the rail caves.
    const ProbeTransient t = TransientSolver::solve(
        benchSupply(0.8, 0.1, 0.5), Amp(0.6), Amp::milliamps(8),
        Farad::microfarads(10), Seconds::microseconds(100));
    EXPECT_TRUE(t.current_limited);
    EXPECT_LT(t.v_min.volts(), 0.25); // below typical DRV: data loss
}

TEST(TransientSolver, StrongBenchSupplyHoldsTheRail)
{
    // The paper's ">3 A current driving capability" requirement.
    const ProbeTransient t = TransientSolver::solve(
        benchSupply(0.8, 3.0, 0.05), Amp(0.6), Amp::milliamps(8),
        Farad::microfarads(220), Seconds::microseconds(5));
    EXPECT_FALSE(t.current_limited);
    EXPECT_GT(t.v_min.volts(), 0.55); // above every DRV: zero loss
}

TEST(TransientSolver, SettledVoltageReflectsRetentionCurrent)
{
    const ProbeTransient t = TransientSolver::solve(
        benchSupply(0.8, 3.0, 0.05), Amp(0.5), Amp::milliamps(8),
        Farad::microfarads(100), Seconds::microseconds(5));
    EXPECT_NEAR(t.v_settled.volts(), 0.8 - 0.008 * 0.05, 1e-9);
}

TEST(TransientSolver, RejectsNonsense)
{
    EXPECT_THROW(TransientSolver::solve(benchSupply(), Amp(1.0), Amp(0.1),
                                        Farad(0.0), Seconds(1e-6)),
                 FatalError);
}

// --- PowerDomain ---

TEST(PowerDomain, PowerCycleWithoutProbeLosesArrayState)
{
    PowerDomain dom("VDD_CORE", Volt(0.8), RegulatorKind::Buck);
    SramArray ram("ram", 2048, 9, 1);
    dom.attachLoad(&ram);

    dom.powerUp(Seconds(0.0), Temperature::celsius(25));
    ram.fill(0x5A);
    dom.powerDown(Seconds(1.0));
    EXPECT_EQ(ram.powerState(), PowerState::Off);
    dom.powerUp(Seconds(1.5), Temperature::celsius(25));

    size_t matches = 0;
    for (size_t i = 0; i < ram.sizeBytes(); ++i)
        matches += ram.readByte(i) == 0x5A;
    EXPECT_LT(static_cast<double>(matches) / ram.sizeBytes(), 0.05);
}

TEST(PowerDomain, ProbedPowerCycleRetainsEverything)
{
    PowerDomain dom("VDD_CORE", Volt(0.8), RegulatorKind::Buck);
    SramArray ram("ram", 2048, 9, 2);
    dom.attachLoad(&ram);

    dom.powerUp(Seconds(0.0), Temperature::celsius(25));
    ram.fill(0x5A);
    dom.attachProbe(VoltageProbe{Volt(0.8), Amp(3.0), Ohm(0.05)});
    dom.powerDown(Seconds(1.0));
    EXPECT_EQ(ram.powerState(), PowerState::Retained);
    // Hours later, the data is still there.
    dom.powerUp(Seconds(3600.0), Temperature::celsius(25));
    for (size_t i = 0; i < ram.sizeBytes(); ++i)
        ASSERT_EQ(ram.readByte(i), 0x5A);
}

TEST(PowerDomain, WeakProbeDroopsAndLosesBits)
{
    DomainLoadProfile profile;
    profile.surge_current = Amp(0.6);
    profile.decap = Farad::microfarads(10);
    profile.surge_duration = Seconds::microseconds(100);
    PowerDomain dom("VDD_CORE", Volt(0.8), RegulatorKind::Buck, profile);
    SramArray ram("ram", 8192, 9, 3);
    dom.attachLoad(&ram);

    dom.powerUp(Seconds(0.0), Temperature::celsius(25));
    ram.fill(0x5A);
    // 100 mA-limited probe: collapses under the 600 mA surge.
    dom.attachProbe(VoltageProbe{Volt(0.8), Amp(0.1), Ohm(0.5)});
    dom.powerDown(Seconds(1.0));
    ASSERT_TRUE(dom.lastTransient().has_value());
    EXPECT_TRUE(dom.lastTransient()->current_limited);
    dom.powerUp(Seconds(2.0), Temperature::celsius(25));

    size_t matches = 0;
    for (size_t i = 0; i < ram.sizeBytes(); ++i)
        matches += ram.readByte(i) == 0x5A;
    EXPECT_LT(static_cast<double>(matches) / ram.sizeBytes(), 0.5);
}

TEST(PowerDomain, RejectsBadConfig)
{
    EXPECT_THROW(PowerDomain("x", Volt(0.0), RegulatorKind::Ldo),
                 FatalError);
    PowerDomain dom("x", Volt(1.0), RegulatorKind::Ldo);
    EXPECT_THROW(dom.attachLoad(nullptr), PanicError);
    EXPECT_THROW(dom.attachProbe(VoltageProbe{Volt(0.0), Amp(1), Ohm(1)}),
                 FatalError);
}

TEST(PowerDomain, VoltageScalingRetentionCliff)
{
    PowerDomain dom("VDD_CORE", Volt(0.8), RegulatorKind::Buck);
    SramArray ram("ram", 8192, 12, 1);
    dom.attachLoad(&ram);
    dom.powerUp(Seconds(0.0), Temperature::celsius(25));
    ram.fill(0xA5);

    // Scaling to 0.45 V (well above the DRV tail) is lossless.
    dom.scaleVoltage(Volt::millivolts(450));
    dom.scaleVoltage(Volt(0.8));
    for (size_t i = 0; i < ram.sizeBytes(); ++i)
        ASSERT_EQ(ram.readByte(i), 0xA5);

    // Scaling to the DRV mean flips roughly half the cells' survival.
    dom.scaleVoltage(Volt::millivolts(250));
    dom.scaleVoltage(Volt(0.8));
    size_t matches = 0;
    for (size_t i = 0; i < ram.sizeBytes(); ++i)
        matches += ram.readByte(i) == 0xA5;
    const double frac = static_cast<double>(matches) / ram.sizeBytes();
    EXPECT_LT(frac, 0.5);
    EXPECT_GT(frac, 0.005);
    EXPECT_DOUBLE_EQ(dom.currentVoltage().volts(), 0.8);
}

TEST(PowerDomain, ScalingUpNeverRestores)
{
    PowerDomain dom("VDD_CORE", Volt(0.8), RegulatorKind::Buck);
    SramArray ram("ram", 2048, 13, 1);
    dom.attachLoad(&ram);
    dom.powerUp(Seconds(0.0), Temperature::celsius(25));
    ram.fill(0xFF);
    dom.scaleVoltage(Volt::millivolts(100)); // deep undervolt
    const std::vector<uint8_t> broken = ram.snapshot();
    dom.scaleVoltage(Volt(0.8));
    EXPECT_EQ(ram.snapshot(), broken);
}

TEST(PowerDomain, ScalingRejectsBadStates)
{
    PowerDomain dom("VDD_CORE", Volt(0.8), RegulatorKind::Buck);
    EXPECT_THROW(dom.scaleVoltage(Volt(0.5)), FatalError); // unpowered
    SramArray ram("ram", 64, 14, 1);
    dom.attachLoad(&ram);
    dom.powerUp(Seconds(0.0), Temperature::celsius(25));
    EXPECT_THROW(dom.scaleVoltage(Volt(0.0)), FatalError);
}

// --- Pmic / Board ---

TEST(Pmic, SequencesAllDomains)
{
    Pmic pmic("PMIC");
    pmic.addDomain("A", Volt(0.8), RegulatorKind::Buck);
    pmic.addDomain("B", Volt(1.2), RegulatorKind::Ldo);
    SramArray ra("ra", 64, 1, 1), rb("rb", 64, 1, 2);
    pmic.domain("A")->attachLoad(&ra);
    pmic.domain("B")->attachLoad(&rb);

    pmic.connectMainSupply(Seconds(0.0), Temperature::celsius(25));
    EXPECT_EQ(ra.powerState(), PowerState::Powered);
    EXPECT_EQ(rb.powerState(), PowerState::Powered);
    pmic.disconnectMainSupply(Seconds(1.0));
    EXPECT_EQ(ra.powerState(), PowerState::Off);
    EXPECT_EQ(rb.powerState(), PowerState::Off);
}

TEST(Pmic, DuplicateDomainRejected)
{
    Pmic pmic("PMIC");
    pmic.addDomain("A", Volt(0.8), RegulatorKind::Buck);
    EXPECT_THROW(pmic.addDomain("A", Volt(0.9), RegulatorKind::Ldo),
                 FatalError);
}

TEST(Board, PadAttachesToTheRightDomain)
{
    Board board("Pi4", "MxL7704");
    board.pmic().addDomain("VDD_CORE", Volt(0.8), RegulatorKind::Buck);
    board.pmic().addDomain("VDD_IO", Volt(3.3), RegulatorKind::Ldo);
    board.addTestPad("TP15", "VDD_CORE");

    PowerDomain *d = board.attachProbeAtPad(
        "TP15", VoltageProbe{Volt(0.8), Amp(3.0), Ohm(0.05)});
    EXPECT_EQ(d->name(), "VDD_CORE");
    EXPECT_TRUE(d->isProbed());
}

TEST(Board, MismatchedProbeVoltageRejected)
{
    Board board("Pi4", "MxL7704");
    board.pmic().addDomain("VDD_CORE", Volt(0.8), RegulatorKind::Buck);
    board.addTestPad("TP15", "VDD_CORE");
    // Attaching a 1.2 V probe to a 0.8 V rail would overdrive the SoC.
    EXPECT_THROW(board.attachProbeAtPad(
                     "TP15", VoltageProbe{Volt(1.2), Amp(3.0), Ohm(0.05)}),
                 FatalError);
}

TEST(Board, UnknownPadRejected)
{
    Board board("Pi4", "PMIC");
    board.pmic().addDomain("VDD_CORE", Volt(0.8), RegulatorKind::Buck);
    EXPECT_THROW(board.attachProbeAtPad(
                     "TP99", VoltageProbe{Volt(0.8), Amp(3.0), Ohm(0.05)}),
                 FatalError);
    EXPECT_THROW(board.addTestPad("TPX", "NOPE"), FatalError);
}

// --- Probe strength sweep: the ablation's backbone ---

class ProbeCurrentSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(ProbeCurrentSweep, MoreCurrentNeverHurts)
{
    const double amps = GetParam();
    const auto solve = [](double limit) {
        return TransientSolver::solve(
            VoltageProbe{Volt(0.8), Amp(limit), Ohm(0.1)}, Amp(0.6),
            Amp::milliamps(8), Farad::microfarads(100),
            Seconds::microseconds(20));
    };
    EXPECT_GE(solve(amps * 2).v_min, solve(amps).v_min);
}

INSTANTIATE_TEST_SUITE_P(Currents, ProbeCurrentSweep,
                         ::testing::Values(0.05, 0.1, 0.2, 0.4, 0.8, 1.6,
                                           3.2));

} // namespace
} // namespace voltboot
