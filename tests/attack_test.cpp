/**
 * @file
 * End-to-end tests of the Volt Boot attack pipeline and its cold-boot
 * control, against all three simulated platforms: probe attach, power
 * cycle, reboot into attacker code, RAMINDEX/JTAG extraction, analysis.
 */

#include <gtest/gtest.h>

#include "core/analysis.hh"
#include "core/attack.hh"
#include "os/baremetal.hh"
#include "os/workloads.hh"
#include "sim/logging.hh"
#include "soc/soc.hh"

namespace voltboot
{
namespace
{

TEST(VoltBoot, EndToEndDCacheRecoveryIsPerfect)
{
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();

    // Victim: bare-metal pattern store into the d-cache.
    BareMetalRunner runner(soc);
    const uint64_t base = soc.config().dram_base + 0x40000;
    const auto r =
        runner.runOn(0, workloads::patternStore(base, 8192, 0xAA));
    ASSERT_TRUE(r.halted_cleanly);

    // Attack.
    VoltBootAttack attack(soc);
    const AttackOutcome outcome = attack.execute();
    ASSERT_TRUE(outcome.probe_attached);
    ASSERT_TRUE(outcome.rebooted_into_attacker_code);
    ASSERT_TRUE(outcome.transient.has_value());
    EXPECT_FALSE(outcome.transient->current_limited);

    // Extraction: the 0xAA pattern must appear verbatim in the dump.
    const MemoryImage dump = attack.dumpL1(0, L1Ram::DData);
    EXPECT_EQ(dump.sizeBytes(), soc.config().l1d.size_bytes);
    const std::vector<uint8_t> needle(1024, 0xAA);
    EXPECT_TRUE(dump.contains(needle));

    // Count pattern bytes: 8 KB were written; all must be present.
    size_t aa = 0;
    for (uint8_t b : dump.bytes())
        aa += b == 0xAA;
    EXPECT_GE(aa, 8192u);
}

TEST(VoltBoot, ICacheHoldsVictimMachineCode)
{
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();
    BareMetalRunner runner(soc);
    ASSERT_TRUE(runner.runOn(1, workloads::nopFiller(2048)).halted_cleanly);
    const std::vector<uint8_t> code = runner.lastProgram().bytes();

    VoltBootAttack attack(soc);
    ASSERT_TRUE(attack.execute().rebooted_into_attacker_code);
    const MemoryImage icache = attack.dumpL1(1, L1Ram::IData);

    // Figure 7: the victim's instructions stayed in the i-cache across
    // the power cycle. Grep for a whole cache line of the NOP body.
    const std::vector<uint8_t> needle(code.begin() + 8,
                                      code.begin() + 8 + 64);
    EXPECT_TRUE(icache.contains(needle));
}

TEST(VoltBoot, Bcm2837ICacheNeedsBeforeAfterComparison)
{
    // Footnote 4: the A53 i-cache stores instructions + ECC in an
    // undocumented bit order. Grepping the dump for machine code fails,
    // but before/after dumps (both through the same order) prove 100%
    // retention.
    Soc soc(SocConfig::bcm2837());
    soc.powerOn();
    BareMetalRunner runner(soc);
    ASSERT_TRUE(runner.runOn(0, workloads::nopFiller(2048)).halted_cleanly);
    const std::vector<uint8_t> code = runner.lastProgram().bytes();
    const MemoryImage before = soc.memory().l1i(0).dumpAll();

    VoltBootAttack attack(soc);
    ASSERT_TRUE(attack.execute().rebooted_into_attacker_code);
    const MemoryImage after = attack.dumpL1(0, L1Ram::IData);

    const std::vector<uint8_t> needle(code.begin() + 8,
                                      code.begin() + 8 + 64);
    EXPECT_FALSE(after.contains(needle)) << "grep should fail on the "
                                            "ECC-interleaved dump";
    EXPECT_EQ(MemoryImage::hammingDistance(before, after), 0u);
}

TEST(VoltBoot, VectorRegistersRetainAcrossPowerCycle)
{
    Soc soc(SocConfig::bcm2837());
    soc.powerOn();
    BareMetalRunner runner(soc);
    ASSERT_TRUE(
        runner.runOn(0, workloads::vectorFill(0xFF, 0xAA)).halted_cleanly);

    VoltBootAttack attack(soc);
    ASSERT_TRUE(attack.execute().rebooted_into_attacker_code);
    const MemoryImage regs = attack.dumpVectorRegisters(0);
    ASSERT_EQ(regs.sizeBytes(), 512u);

    // Section 7.2: even registers read 0xFF.., odd read 0xAA...
    for (size_t v = 0; v < 32; ++v) {
        const uint8_t want = (v % 2 == 0) ? 0xFF : 0xAA;
        for (size_t b = 0; b < 16; ++b)
            ASSERT_EQ(regs.byteAt(v * 16 + b), want)
                << "v" << v << " byte " << b;
    }
}

TEST(VoltBoot, IramExtractionOverJtag)
{
    Soc soc(SocConfig::imx535());
    soc.powerOn();
    // Victim data: a synthetic bitmap image in the iRAM via JTAG.
    std::vector<uint8_t> bitmap(soc.config().iram_bytes);
    for (size_t i = 0; i < bitmap.size(); ++i)
        bitmap[i] = static_cast<uint8_t>((i / 512) ^ (i % 256));
    soc.jtag().writeIram(soc.config().iram_base, bitmap);

    VoltBootAttack attack(soc);
    ASSERT_TRUE(attack.execute().rebooted_into_attacker_code);
    const MemoryImage dump = attack.dumpIram();
    const RetentionReport rep =
        compareImages(dump, MemoryImage(bitmap));

    // Section 7.3: ~2.7% overall error, all of it from the boot ROM
    // scratch regions; roughly 95% of the iRAM is available.
    EXPECT_GT(rep.errorFraction(), 0.005);
    EXPECT_LT(rep.errorFraction(), 0.05);

    // Outside the clobbered regions, recovery is bit-exact.
    MemoryImage mid_truth(std::vector<uint8_t>(
        bitmap.begin() + 0x8000, bitmap.begin() + 0x10000));
    EXPECT_EQ(MemoryImage::hammingDistance(dump.slice(0x8000, 0x8000),
                                           mid_truth),
              0u);
}

TEST(VoltBoot, WrongDomainProbeRetainsNothingUseful)
{
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();
    BareMetalRunner runner(soc);
    const uint64_t base = soc.config().dram_base + 0x40000;
    runner.runOn(0, workloads::patternStore(base, 8192, 0xAA));

    // Attacker mistakes the SDRAM rail for the core rail.
    VoltBootAttack attack(soc);
    ASSERT_TRUE(attack.attachProbeAt("TP14").probe_attached);
    ASSERT_TRUE(attack.powerCycleAndBoot().rebooted_into_attacker_code);
    const MemoryImage dump = attack.dumpL1(0, L1Ram::DData);
    const std::vector<uint8_t> needle(256, 0xAA);
    EXPECT_FALSE(dump.contains(needle));
}

TEST(VoltBoot, MissingPadReportsFailure)
{
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();
    VoltBootAttack attack(soc);
    const AttackOutcome out = attack.attachProbeAt("TP99");
    EXPECT_FALSE(out.probe_attached);
    EXPECT_NE(out.failure_reason.find("TP99"), std::string::npos);
}

TEST(VoltBoot, WeakSupplyLosesData)
{
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();
    BareMetalRunner runner(soc);
    const uint64_t base = soc.config().dram_base + 0x40000;
    runner.runOn(0, workloads::patternStore(base, 8192, 0xAA));

    AttackConfig cfg;
    cfg.probe_max_current = Amp::milliamps(50); // hobbyist USB supply
    cfg.probe_impedance = Ohm(0.8);
    VoltBootAttack attack(soc, cfg);
    const AttackOutcome out = attack.execute();
    ASSERT_TRUE(out.rebooted_into_attacker_code);
    ASSERT_TRUE(out.transient.has_value());
    EXPECT_TRUE(out.transient->current_limited);

    const MemoryImage dump = attack.dumpL1(0, L1Ram::DData);
    const std::vector<uint8_t> needle(256, 0xAA);
    EXPECT_FALSE(dump.contains(needle));
}

TEST(VoltBoot, ExtractionProgramDoesNotPolluteTargetCache)
{
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();
    BareMetalRunner runner(soc);
    const uint64_t base = soc.config().dram_base + 0x40000;
    runner.runOn(0, workloads::patternStore(base, 4096, 0x5C));
    const MemoryImage before = soc.memory().l1d(0).dumpAll();

    VoltBootAttack attack(soc);
    ASSERT_TRUE(attack.execute().rebooted_into_attacker_code);
    attack.dumpL1(0, L1Ram::DData);
    attack.dumpL1(0, L1Ram::IData);
    const MemoryImage after = soc.memory().l1d(0).dumpAll();

    // Requirement (A) of Section 6.1: zero contamination.
    EXPECT_EQ(MemoryImage::hammingDistance(before, after), 0u);
}

TEST(VoltBoot, TraceNarratesTheFourSteps)
{
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();
    VoltBootAttack attack(soc);
    attack.execute();
    attack.dumpL1Way(0, L1Ram::DData, 0);
    const auto &trace = attack.trace();
    ASSERT_GE(trace.size(), 4u);
    EXPECT_NE(trace[0].find("step 1"), std::string::npos);
    EXPECT_NE(trace[0].find("VDD_CORE"), std::string::npos);
    EXPECT_NE(trace[1].find("step 2"), std::string::npos);
    EXPECT_NE(trace.back().find("step 4"), std::string::npos);
}

TEST(VoltBoot, AsmExtractorMatchesHostDebugDump)
{
    // The vb64 RAMINDEX extraction program and the host-level
    // Cache::dumpAll() must see the same bytes — they are two views of
    // the same data RAM.
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();
    BareMetalRunner runner(soc);
    const uint64_t base = soc.config().dram_base + 0x40000;
    runner.runOn(0, workloads::patternStore(base, 4096, 0xD7));

    const MemoryImage host_view = soc.memory().l1d(0).dumpAll();

    VoltBootAttack attack(soc);
    ASSERT_TRUE(attack.execute().rebooted_into_attacker_code);
    const MemoryImage asm_view = attack.dumpL1(0, L1Ram::DData);

    EXPECT_EQ(asm_view.bytes(), host_view.bytes());
}

TEST(ColdBoot, FailsOnSramAtChamberTemperatures)
{
    // Table 1's control: even at -40 degC the d-cache content is gone
    // and the dump is ~50% wrong against the victim pattern.
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();
    BareMetalRunner runner(soc);
    const uint64_t base = soc.config().dram_base + 0x40000;
    runner.runOn(0, workloads::patternStore(base, 8192, 0xAA));

    ColdBootAttack attack(soc, Temperature::celsius(-40),
                          Seconds::milliseconds(5));
    ASSERT_TRUE(attack.powerCycleAndBoot());
    const MemoryImage dump = attack.dumpL1(0, L1Ram::DData);

    const MemoryImage truth = MemoryImage::filled(dump.sizeBytes(), 0xAA);
    const double err = MemoryImage::fractionalHamming(dump, truth);
    EXPECT_NEAR(err, 0.50, 0.03);
    // And the dump looks like a fresh power-up fingerprint: ~50% ones.
    EXPECT_NEAR(dump.onesDensity(), 0.5, 0.03);
}

TEST(ColdBoot, CryogenicTemperaturesPartiallyRetain)
{
    // The literature's deep-freeze regime (-110 degC, 20 ms): partial
    // retention appears, but with errors — unlike Volt Boot.
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();
    soc.l1dData(0).fill(0xAA);

    ColdBootAttack attack(soc, Temperature::celsius(-110),
                          Seconds::milliseconds(20));
    ASSERT_TRUE(attack.powerCycleAndBoot());
    const MemoryImage dump = attack.dumpL1(0, L1Ram::DData);
    const MemoryImage truth = MemoryImage::filled(dump.sizeBytes(), 0xAA);
    const double err = MemoryImage::fractionalHamming(dump, truth);
    EXPECT_GT(err, 0.001); // not error-free...
    EXPECT_LT(err, 0.20);  // ...but mostly retained
}

TEST(ColdBoot, AuthenticatedBootAlsoBlocksColdBoot)
{
    SocConfig cfg = SocConfig::bcm2711();
    cfg.authenticated_boot = true;
    Soc soc(cfg);
    soc.powerOn();
    ColdBootAttack attack(soc, Temperature::celsius(-40));
    EXPECT_FALSE(attack.powerCycleAndBoot());
}

TEST(VoltBoot, AllFourCoresExtractIndependently)
{
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();
    BareMetalRunner runner(soc);
    // Distinct pattern per core in each core's private L1.
    for (size_t core = 0; core < 4; ++core) {
        const uint64_t base =
            soc.config().dram_base + 0x40000 + core * 0x10000;
        runner.runOn(core, workloads::patternStore(
                               base, 4096,
                               static_cast<uint8_t>(0xA0 + core)));
    }

    VoltBootAttack attack(soc);
    ASSERT_TRUE(attack.execute().rebooted_into_attacker_code);
    for (size_t core = 0; core < 4; ++core) {
        const MemoryImage dump = attack.dumpL1(core, L1Ram::DData);
        const std::vector<uint8_t> needle(
            256, static_cast<uint8_t>(0xA0 + core));
        EXPECT_TRUE(dump.contains(needle)) << "core " << core;
    }
}

} // namespace
} // namespace voltboot
