/**
 * @file
 * Tests for the static-undervolt sidechannel family: the CPU's
 * clock-gate hook, the three regimes of the Chypnosis-style extraction
 * (shallow sag loses the race, the sweet spot freezes and retains, an
 * over-deep sag kills the cells), the rate-limited readout path, the
 * supply-voltage-coupling victim + CPA analyzer (recovery, parse
 * stability, the flat-waveform negative, the correlation window), the
 * sidechannel_bounds trace invariant, and campaign-level byte
 * determinism across job counts for both new attacks.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "os/baremetal.hh"
#include "os/workloads.hh"
#include "report/invariants.hh"
#include "report/trace_reader.hh"
#include "sidechannel/coupling.hh"
#include "sidechannel/static_extract.hh"
#include "soc/soc.hh"
#include "trace/trace.hh"

using namespace voltboot;

namespace
{

// --- the CPU's clock-gate hook ---------------------------------------

/** Gate whose state is flipped from outside the core. */
class ManualGate : public ClockGate
{
  public:
    bool running = true;
    bool clockRunning(uint64_t) override { return running; }
};

TEST(CpuClockGate, FreezeIsResumableAndDistinctFromHalt)
{
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();
    const uint64_t load = soc.config().dram_base + 0x1000;
    Program p = Assembler::assemble("    movz x1, #1\n"
                                    "    movz x2, #2\n"
                                    "    movz x3, #3\n"
                                    "    hlt\n");
    p.load_address = load;
    soc.loadProgram(p);
    soc.memory().l1i(0).invalidateAll();

    Cpu &cpu = soc.cpu(0);
    ManualGate gate;
    cpu.setClockGate(&gate);
    cpu.reset(load);
    for (unsigned r : {1u, 2u, 3u})
        cpu.setX(r, 0);

    ASSERT_TRUE(cpu.step()); // movz x1
    gate.running = false;
    // A gated core makes no progress but has not halted: the state is
    // frozen in place, exactly what the slow readout relies on.
    EXPECT_FALSE(cpu.step());
    EXPECT_TRUE(cpu.frozen());
    EXPECT_FALSE(cpu.halted());
    EXPECT_EQ(cpu.x(1), 1u);
    EXPECT_EQ(cpu.x(2), 0u);

    gate.running = true;
    cpu.run(100);
    cpu.setClockGate(nullptr);
    EXPECT_TRUE(cpu.halted());
    EXPECT_FALSE(cpu.frozen());
    EXPECT_EQ(cpu.x(2), 2u);
    EXPECT_EQ(cpu.x(3), 3u);
}

// --- StaticExtractAttack ---------------------------------------------

/** Count @p value bytes in an image. */
size_t
countBytes(const MemoryImage &img, uint8_t value)
{
    size_t n = 0;
    for (size_t i = 0; i < img.sizeBytes(); ++i)
        n += img.byteAt(i) == value;
    return n;
}

/** Stage the 0xAA pattern and run one extraction at @p depth_v. */
sidechannel::StaticExtractOutcome
runExtraction(double depth_v, double readout_rate = 0.0)
{
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();
    BareMetalRunner runner(soc);
    runner.runOn(0, workloads::patternStore(
                        soc.config().dram_base + 0x40000, 8192, 0xAA));

    sidechannel::StaticExtractConfig cfg;
    cfg.depth = Volt(depth_v);
    cfg.readout_rate = readout_rate;
    sidechannel::StaticExtractAttack attack(soc, cfg);
    return attack.execute();
}

TEST(StaticExtract, ShallowSagLosesTheRaceToZeroize)
{
    // 0.1 V of sag never crosses the brown-out threshold: the victim
    // keeps running and wipes the staged secret.
    const auto out = runExtraction(0.1);
    EXPECT_FALSE(out.frozen);
    EXPECT_TRUE(out.zeroized);
    EXPECT_EQ(out.cells_lost, 0u);
    EXPECT_LT(countBytes(out.dump, 0xAA), 1000u);
}

TEST(StaticExtract, SweetSpotFreezesAndRetains)
{
    // 0.45 V sags below brown-out (0.8 x 0.7 = 0.56 V) but stays above
    // the DRV band: the clock stops, the cells hold, the secret stays.
    const auto out = runExtraction(0.45);
    EXPECT_TRUE(out.frozen);
    EXPECT_FALSE(out.zeroized);
    // A weak-cell tail flips even at the sweet spot (the DRV band has
    // outliers), but well under 1% of the domain's bits.
    EXPECT_LT(out.cells_lost, 20000u);
    EXPECT_DOUBLE_EQ(out.read_fraction, 1.0);
    EXPECT_GT(countBytes(out.dump, 0xAA), 7000u);
}

TEST(StaticExtract, OverDeepSagKillsTheCells)
{
    // 0.7 V of sag drags the rail to 0.1 V, under the DRV of nearly
    // every cell: frozen, but the snapshot decays to fingerprints.
    const auto out = runExtraction(0.7);
    EXPECT_TRUE(out.frozen);
    EXPECT_GT(out.cells_lost, 0u);
    EXPECT_LT(countBytes(out.dump, 0xAA), 7000u);
}

TEST(StaticExtract, ReadoutRateBoundsTheObservedBytes)
{
    // 64 B/us over a 400 ns hold window = 25 whole bytes observed;
    // everything past the cutoff reads back as zero.
    const auto out = runExtraction(0.45, 64.0);
    EXPECT_TRUE(out.frozen);
    EXPECT_EQ(out.bytes_read, 25u);
    EXPECT_LT(out.read_fraction, 0.01);
    for (size_t i = out.bytes_read; i < out.dump.sizeBytes(); ++i)
        ASSERT_EQ(out.dump.byteAt(i), 0u) << "byte " << i;
}

TEST(StaticExtract, TraceSatisfiesTheSidechannelBoundsInvariant)
{
    trace::MemoryTraceSink sink;
    {
        trace::Scope scope(sink);
        const auto out = runExtraction(0.45);
        EXPECT_TRUE(out.frozen);
    }
    bool saw_hold = false;
    for (const trace::TraceEvent &ev : sink.events())
        saw_hold |= ev.name == "undervolt.hold";
    EXPECT_TRUE(saw_hold);
    const auto violations = report::checkTraceInvariants(sink.events());
    EXPECT_TRUE(violations.empty())
        << report::renderViolations(violations);
}

// --- coupling victim + CPA analyzer ----------------------------------

std::array<uint8_t, 16>
testKey()
{
    return {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
            0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
}

std::vector<trace::TraceEvent>
captureVictim(const sidechannel::CouplingVictimConfig &cfg)
{
    trace::MemoryTraceSink sink;
    {
        trace::Scope scope(sink);
        const auto run = sidechannel::runCoupledAesVictim(cfg);
        EXPECT_EQ(run.blocks, cfg.blocks);
    }
    return sink.events();
}

TEST(Coupling, CpaRecoversTheFullKey)
{
    sidechannel::CouplingVictimConfig cfg;
    cfg.key = testKey();
    const auto events = captureVictim(cfg);

    const auto cpa = sidechannel::analyzeCoupling(events, {});
    EXPECT_EQ(cpa.blocks, cfg.blocks);
    EXPECT_EQ(sidechannel::countCorrectBytes(cpa, cfg.key), 16u);
    EXPECT_GE(cpa.recovered, 13u); // >= 80% confident
}

TEST(Coupling, AnalyzerIsByteStableAcrossReparses)
{
    sidechannel::CouplingVictimConfig cfg;
    cfg.key = testKey();
    const std::string jsonl =
        trace::toJsonl(captureVictim(cfg));

    // Same file parsed twice must rank every guess identically.
    const auto a = sidechannel::analyzeCoupling(
        report::readTrace(jsonl, "a"), {});
    const auto b = sidechannel::analyzeCoupling(
        report::readTrace(jsonl, "b"), {});
    EXPECT_EQ(sidechannel::renderCpaMarkdown(a),
              sidechannel::renderCpaMarkdown(b));
    EXPECT_EQ(sidechannel::countCorrectBytes(a, cfg.key), 16u);
}

TEST(Coupling, FlatWaveformRecoversNothing)
{
    // No coupling and no noise: the rail never moves, every
    // correlation is undefined-variance zero, nothing is confident.
    sidechannel::CouplingVictimConfig cfg;
    cfg.key = testKey();
    cfg.couple_mv_per_bit = 0.0;
    cfg.noise_mv = 0.0;
    const auto events = captureVictim(cfg);

    const auto cpa = sidechannel::analyzeCoupling(events, {});
    EXPECT_EQ(cpa.blocks, cfg.blocks);
    EXPECT_EQ(cpa.recovered, 0u);
    for (const auto &byte : cpa.bytes) {
        EXPECT_FALSE(byte.confident);
        // Not exactly zero: the constant rail leaves only rounding
        // residue in the variance terms.
        EXPECT_LT(byte.best_corr, 1e-3);
    }
}

TEST(Coupling, WindowRestrictsTheCorrelatedSlots)
{
    sidechannel::CouplingVictimConfig cfg;
    cfg.key = testKey();
    const auto events = captureVictim(cfg);

    sidechannel::CpaOptions opts;
    opts.window_ns = 2.0;
    const auto cpa = sidechannel::analyzeCoupling(events, opts);
    EXPECT_EQ(cpa.samples_per_block, 2u);
    // Only bytes 0 and 1 leak inside a two-cycle window.
    EXPECT_LT(sidechannel::countCorrectBytes(cpa, cfg.key), 6u);
}

TEST(Coupling, CaptureSatisfiesTheSidechannelBoundsInvariant)
{
    sidechannel::CouplingVictimConfig cfg;
    cfg.key = testKey();
    const auto events = captureVictim(cfg);
    const auto violations = report::checkTraceInvariants(events);
    EXPECT_TRUE(violations.empty())
        << report::renderViolations(violations);
}

// --- campaign integration --------------------------------------------

CampaignResult
runGrid(const SweepGrid &grid, unsigned jobs)
{
    CampaignConfig cfg;
    cfg.jobs = jobs;
    cfg.seed = 0x5eed;
    return Campaign(grid, cfg).run();
}

TEST(SidechannelCampaign, StaticExtractIsByteIdenticalAcrossJobs)
{
    // hold 0 = no ramp, nothing would freeze
    const SweepGrid grid = SweepGrid::parse(
        "attack=static-extract;undervolt-depth=0.1,0.45;hold-ns=400;"
        "readout-rate=0,64;seeds=2");

    const CampaignResult one = runGrid(grid, 1);
    const CampaignResult four = runGrid(grid, 4);
    EXPECT_EQ(one.toJson(), four.toJson());
    EXPECT_EQ(one.toCsv(), four.toCsv());

    const CampaignSummary s = one.summary();
    EXPECT_EQ(s.family(AttackKind::StaticExtract).trials, 8u);
    // Depth 0.45 freezes at both readout rates for both seeds.
    EXPECT_EQ(s.family(AttackKind::StaticExtract).successes, 4u);
}

TEST(SidechannelCampaign, CouplingIsByteIdenticalAcrossJobs)
{
    const SweepGrid grid = SweepGrid::parse(
        "attack=voltage-coupling;cpa-window-ns=0,8;seeds=2");

    const CampaignResult one = runGrid(grid, 1);
    const CampaignResult four = runGrid(grid, 4);
    EXPECT_EQ(one.toJson(), four.toJson());
    EXPECT_EQ(one.toCsv(), four.toCsv());

    const CampaignSummary s = one.summary();
    EXPECT_EQ(s.family(AttackKind::VoltageCoupling).trials, 4u);
    // The full-window trials recover the whole planted key.
    for (const TrialRecord &rec : one.records) {
        if (rec.spec.cpa_window_ns == 0.0) {
            EXPECT_EQ(rec.cpa_recovered, 16u);
            EXPECT_TRUE(rec.key_exact);
        }
    }
}

} // namespace
