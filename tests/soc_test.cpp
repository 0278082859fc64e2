/**
 * @file
 * Integration tests for the Soc: device database, power-cycle semantics
 * per domain, boot-ROM behaviour (VideoCore L2 clobber, i.MX iRAM
 * scratch), JTAG access rules, and program execution on the cores.
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "os/baremetal.hh"
#include "os/workloads.hh"
#include "sim/logging.hh"
#include "soc/soc.hh"

namespace voltboot
{
namespace
{

TEST(SocConfig, PlatformDatabaseMatchesTable2)
{
    const SocConfig pi4 = SocConfig::bcm2711();
    EXPECT_EQ(pi4.cpu_name, "Cortex-A72");
    EXPECT_EQ(pi4.core_count, 4u);
    EXPECT_EQ(pi4.l1d.size_bytes, 32u * 1024);
    EXPECT_EQ(pi4.l1d.ways, 2u);
    EXPECT_EQ(pi4.l1d.sets(), 256u);
    EXPECT_EQ(pi4.attack_pad, "TP15");
    EXPECT_DOUBLE_EQ(pi4.core_domain.nominal.volts(), 0.8);

    const SocConfig pi3 = SocConfig::bcm2837();
    EXPECT_EQ(pi3.cpu_name, "Cortex-A53");
    EXPECT_EQ(pi3.attack_pad, "PP58");
    EXPECT_DOUBLE_EQ(pi3.core_domain.nominal.volts(), 1.2);

    const SocConfig imx = SocConfig::imx535();
    EXPECT_EQ(imx.cpu_name, "Cortex-A8");
    EXPECT_EQ(imx.core_count, 1u);
    EXPECT_EQ(imx.iram_bytes, 128u * 1024);
    EXPECT_EQ(imx.attack_pad, "SH13");
    EXPECT_TRUE(imx.jtag_enabled);
    EXPECT_DOUBLE_EQ(imx.mem_domain.nominal.volts(), 1.3);

    EXPECT_EQ(SocConfig::allPlatforms().size(), 3u);
}

TEST(Soc, PowersOnWithPadsWired)
{
    Soc soc(SocConfig::bcm2711());
    EXPECT_FALSE(soc.poweredOn());
    soc.powerOn();
    EXPECT_TRUE(soc.poweredOn());
    EXPECT_NE(soc.board().findPad("TP15"), nullptr);
    EXPECT_EQ(soc.board().findPad("TP15")->domain_name, "VDD_CORE");
    EXPECT_EQ(soc.bootCount(), 1u);
}

TEST(Soc, RunsAProgram)
{
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();
    Program p = Assembler::assemble(R"(
        movz x1, #21
        add x1, x1, x1
        hlt
    )");
    p.load_address = 0x1000;
    soc.loadProgram(p);
    soc.runCore(0, 0x1000, 1000);
    EXPECT_EQ(soc.cpu(0).x(1), 42u);
    EXPECT_TRUE(soc.cpu(0).halted());
}

TEST(Soc, PowerCycleWithoutProbeScramblesL1)
{
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();
    soc.l1dData(0).fill(0xA5);
    soc.powerCycle(Seconds::milliseconds(500));
    size_t matches = 0;
    MemoryArray &a = soc.l1dData(0);
    for (size_t i = 0; i < a.sizeBytes(); ++i)
        matches += a.readByte(i) == 0xA5;
    EXPECT_LT(static_cast<double>(matches) / a.sizeBytes(), 0.05);
    EXPECT_EQ(soc.bootCount(), 2u);
}

TEST(Soc, ProbedPowerCycleRetainsCoreDomain)
{
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();
    soc.l1dData(2).fill(0x3C);
    soc.vRegs(1).fill(0x77);

    VoltageProbe probe{Volt(0.8), Amp(3.0), Ohm(0.05)};
    soc.attachProbe("TP15", probe);
    soc.powerCycle(Seconds::milliseconds(500));

    // Everything in VDD_CORE survived: L1 data and register files.
    for (size_t i = 0; i < soc.l1dData(2).sizeBytes(); ++i)
        ASSERT_EQ(soc.l1dData(2).readByte(i), 0x3C);
    for (size_t i = 0; i < soc.vRegs(1).sizeBytes(); ++i)
        ASSERT_EQ(soc.vRegs(1).readByte(i), 0x77);
    // DRAM (memory domain, unprobed) did not survive its power cycle.
    EXPECT_EQ(soc.dramArray().powerState(), PowerState::Powered);
}

TEST(Soc, ProbeVoltageMustMatchRail)
{
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();
    EXPECT_THROW(
        soc.attachProbe("TP15", VoltageProbe{Volt(1.3), Amp(3), Ohm(0.05)}),
        FatalError);
}

TEST(Soc, VideoCoreClobbersL2AcrossProbedCycle)
{
    // Even with the memory domain held, the Pi's VideoCore overwrites
    // the shared L2 during boot — Section 6.2's negative result.
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();
    soc.l2Data()->fill(0x42);
    soc.attachProbe("TP14", VoltageProbe{Volt(1.1), Amp(3), Ohm(0.05)});
    soc.powerCycle(Seconds::milliseconds(100));
    size_t matches = 0;
    for (size_t i = 0; i < soc.l2Data()->sizeBytes(); ++i)
        matches += soc.l2Data()->readByte(i) == 0x42;
    EXPECT_LT(static_cast<double>(matches) / soc.l2Data()->sizeBytes(),
              0.01);
}

TEST(Soc, ImxBootRomScratchesIramRegions)
{
    Soc soc(SocConfig::imx535());
    soc.powerOn();
    MemoryArray *iram = soc.iramArray();
    ASSERT_NE(iram, nullptr);
    iram->fill(0xEE);
    soc.attachProbe("SH13", VoltageProbe{Volt(1.3), Amp(3), Ohm(0.05)});
    soc.powerCycle(Seconds::milliseconds(200));

    const SocConfig &cfg = soc.config();
    // Inside the scratch region the pattern is gone...
    size_t clobbered_matches = 0, clobbered_total = 0;
    for (const BootClobber &r : cfg.iram_boot_clobbers) {
        for (uint64_t a = r.begin; a < r.end; ++a) {
            clobbered_matches +=
                iram->readByte(a - cfg.iram_base) == 0xEE;
            ++clobbered_total;
        }
    }
    EXPECT_LT(static_cast<double>(clobbered_matches) / clobbered_total,
              0.02);
    // ...but a mid-iRAM address far from the scratch survived exactly.
    EXPECT_EQ(iram->readByte(0x8000), 0xEE);
    EXPECT_EQ(iram->readByte(0x10000), 0xEE);
}

TEST(Soc, ImxProbeRetainsOnlyTheIramDomain)
{
    // VDDAL1 (pad SH13) feeds the on-chip L1 memories. Holding it must
    // NOT carry the external DDR or the core complex through the cycle.
    Soc soc(SocConfig::imx535());
    soc.powerOn();
    soc.iramArray()->fill(0x5A);
    soc.dramArray().fill(0x33);
    soc.l1dData(0).fill(0x44);

    soc.attachProbe("SH13", VoltageProbe{Volt(1.3), Amp(3), Ohm(0.05)});
    // 10 s off: far beyond DRAM's room-temperature remanence (seconds)
    // while the probed iRAM holds indefinitely.
    soc.powerCycle(Seconds(10.0));

    // iRAM survived everywhere outside the boot-ROM scratch.
    EXPECT_EQ(soc.iramArray()->readByte(0x8000), 0x5A);
    // DRAM and L1 did not.
    size_t dram_matches = 0;
    for (size_t i = 0; i < 4096; ++i)
        dram_matches += soc.dramArray().readByte(i) == 0x33;
    EXPECT_LT(dram_matches, 400u);
    size_t l1_matches = 0;
    for (size_t i = 0; i < soc.l1dData(0).sizeBytes(); ++i)
        l1_matches += soc.l1dData(0).readByte(i) == 0x44;
    EXPECT_LT(static_cast<double>(l1_matches) /
                  soc.l1dData(0).sizeBytes(),
              0.05);
}

TEST(Soc, JtagOnlyOnRomBootParts)
{
    Soc pi(SocConfig::bcm2711());
    EXPECT_FALSE(pi.jtag().available());
    EXPECT_THROW(pi.jtag().readIram(0, 16), FatalError);

    Soc imx(SocConfig::imx535());
    imx.powerOn();
    EXPECT_TRUE(imx.jtag().available());
    std::vector<uint8_t> pattern{1, 2, 3, 4};
    imx.jtag().writeIram(0xF8000000, pattern);
    const MemoryImage img = imx.jtag().readIram(0xF8000000, 4);
    EXPECT_EQ(img.bytes(), pattern);
    EXPECT_THROW(imx.jtag().readIram(0xF8000000, 256 * 1024), FatalError);
}

TEST(Soc, AuthenticatedBootRejectsAttackerMedia)
{
    SocConfig cfg = SocConfig::bcm2711();
    cfg.authenticated_boot = true;
    Soc soc(cfg);
    soc.powerOn();
    Program p = Assembler::assemble("    hlt\n");
    p.load_address = 0x1000;
    EXPECT_FALSE(soc.bootFromExternalMedia(p));
}

TEST(Soc, BootSramResetZeroisesEverything)
{
    SocConfig cfg = SocConfig::bcm2711();
    cfg.boot_sram_reset = true;
    Soc soc(cfg);
    soc.powerOn();
    soc.l1dData(0).fill(0xFF);
    soc.attachProbe("TP15", VoltageProbe{Volt(0.8), Amp(3), Ohm(0.05)});
    soc.powerCycle(Seconds::milliseconds(100));
    // The probe held the cells — but the boot-time reset wiped them.
    for (size_t i = 0; i < soc.l1dData(0).sizeBytes(); ++i)
        ASSERT_EQ(soc.l1dData(0).readByte(i), 0x00);
}

TEST(Soc, RegistersSurviveWarmRebootByDefault)
{
    // Without the probe trick, a plain reboot (power stays on) keeps
    // register contents — the hardware never clears them.
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();
    soc.cpu(0).setV(7, 0, 0x1122334455667788ull);
    Program p = Assembler::assemble("    hlt\n");
    p.load_address = 0x1000;
    ASSERT_TRUE(soc.bootFromExternalMedia(p));
    EXPECT_EQ(soc.cpu(0).v(7, 0), 0x1122334455667788ull);
}

TEST(BareMetalRunner, RunsOnAllCores)
{
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();
    BareMetalRunner runner(soc);
    ASSERT_EQ(soc.coreCount(), 4u);
    for (size_t core = 0; core < soc.coreCount(); ++core) {
        const BareMetalResult r = runner.runOn(core, R"(
            mrs x1, coreid
            add x1, x1, #100
            hlt
        )");
        EXPECT_TRUE(r.halted_cleanly) << "core " << core;
        EXPECT_EQ(soc.cpu(core).x(1), 100u + core);
    }
}

TEST(BareMetalRunner, CachedExecutionFillsICache)
{
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();
    BareMetalRunner runner(soc);
    const auto r = runner.runOn(0, workloads::nopFiller(512));
    ASSERT_TRUE(r.halted_cleanly);
    // The program's machine code must now be resident in the i-cache
    // data RAM (dirty-read through the debug view).
    const MemoryImage icache = soc.memory().l1i(0).dumpAll();
    const std::vector<uint8_t> code = runner.lastProgram().bytes();
    // Look for a 64-byte line worth of NOP encodings.
    const std::vector<uint8_t> needle(code.begin() + 8,
                                      code.begin() + 8 + 64);
    EXPECT_TRUE(icache.contains(needle));
}

TEST(Soc, DetachingProbeMidRetentionLosesTheData)
{
    // Failure injection: the attacker's clip slips off while the board
    // is unpowered. Retention ends immediately; by the time the board
    // comes back, the SRAM has decayed like any cold boot.
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();
    soc.l1dData(0).fill(0x6B);
    soc.attachProbe("TP15", VoltageProbe{Volt(0.8), Amp(3), Ohm(0.05)});
    soc.powerOff();
    EXPECT_EQ(soc.l1dData(0).powerState(), PowerState::Retained);

    soc.detachProbe("TP15"); // the clip slips
    EXPECT_EQ(soc.l1dData(0).powerState(), PowerState::Off);

    soc.advanceTime(Seconds::milliseconds(500));
    soc.powerOn();
    size_t matches = 0;
    for (size_t i = 0; i < soc.l1dData(0).sizeBytes(); ++i)
        matches += soc.l1dData(0).readByte(i) == 0x6B;
    EXPECT_LT(static_cast<double>(matches) /
                  soc.l1dData(0).sizeBytes(),
              0.05);
}

TEST(Soc, ImxExecutesFromIram)
{
    // The i.MX535 behaves as a microcontroller at startup: code can run
    // straight out of the iRAM window, bypassing the cache hierarchy.
    Soc soc(SocConfig::imx535());
    soc.powerOn();
    Program p = Assembler::assemble(R"(
        movz x1, #0x55
        add x1, x1, #1
        hlt
    )");
    const uint64_t entry = soc.config().iram_base + 0x4000;
    soc.jtag().writeIram(entry, p.bytes());
    soc.runCore(0, entry, 100);
    EXPECT_TRUE(soc.cpu(0).halted());
    EXPECT_EQ(soc.cpu(0).x(1), 0x56u);

    // Data accesses in the window also bypass the caches.
    soc.port(0).write64(soc.config().iram_base + 0x8000,
                        0x1234567890ABCDEFull);
    EXPECT_EQ(soc.iramArray()->readWord64(0x8000),
              0x1234567890ABCDEFull);
    EXPECT_FALSE(soc.memory().l1d(0).probeHit(soc.config().iram_base +
                                              0x8000));
}

TEST(Soc, AmbientTemperatureGovernsDecay)
{
    // At deep cryogenic temperature, a short power cycle preserves most
    // of the cache (the literature's SRAM remanence); at -40 degC it
    // preserves nothing. Same device, same off-time.
    for (const auto &[celsius, min_frac, max_frac] :
         {std::tuple{-140.0, 0.80, 1.00}, std::tuple{-40.0, 0.0, 0.10}}) {
        Soc soc(SocConfig::bcm2711());
        soc.setAmbient(Temperature::celsius(celsius));
        soc.powerOn();
        soc.l1dData(0).fill(0xA5);
        soc.powerCycle(Seconds::milliseconds(2));
        size_t matches = 0;
        MemoryArray &a = soc.l1dData(0);
        for (size_t i = 0; i < a.sizeBytes(); ++i)
            matches += a.readByte(i) == 0xA5;
        const double frac =
            static_cast<double>(matches) / a.sizeBytes();
        EXPECT_GE(frac, min_frac) << "at " << celsius;
        EXPECT_LE(frac, max_frac) << "at " << celsius;
    }
}

} // namespace
} // namespace voltboot
