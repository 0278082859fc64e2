/**
 * @file
 * Campaign engine tests: grid enumeration and parsing, scheduling
 * determinism (same seed => byte-identical JSON at any job count),
 * failed-trial isolation, abort semantics, and a few real end-to-end
 * trials through the public runner.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <tuple>

#include "campaign/campaign.hh"
#include "campaign/campaign_result.hh"
#include "campaign/sweep_grid.hh"
#include "campaign/trial_runner.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "telemetry/monitor.hh"

using namespace voltboot;

namespace
{

/** A cheap deterministic stand-in for runTrial: metrics are a pure
 * function of (campaign seed, trial index), like the real thing. */
TrialRecord
fakeTrial(const TrialSpec &spec, uint64_t seed)
{
    TrialRecord rec;
    rec.spec = spec;
    rec.chip_seed = deriveChipSeed(seed, spec.seed_index);
    Rng rng(deriveTrialSeed(seed, spec.index));
    rec.status = TrialStatus::Ok;
    rec.booted = true;
    rec.dump_bytes = 32768;
    rec.bit_error_rate = rng.uniform() * 0.5;
    rec.accuracy = 1.0 - rec.bit_error_rate;
    return rec;
}

TEST(SweepGrid, SizeIsAxisProduct)
{
    EXPECT_EQ(SweepGrid().size(), 1u);

    const SweepGrid grid = SweepGrid::parse(
        "board=pi3,pi4;temp=-80,-40,25;off-ms=5,500;seeds=7");
    EXPECT_EQ(grid.size(), 2u * 3u * 2u * 7u);
}

TEST(SweepGrid, EnumerationCoversEveryPointExactlyOnce)
{
    const SweepGrid grid = SweepGrid::parse(
        "board=pi3,pi4;attack=voltboot,coldboot;temp=-110,25;seeds=3");

    std::set<std::tuple<std::string, int, double, uint64_t>> seen;
    uint64_t count = 0;
    for (const TrialSpec &spec : grid) {
        EXPECT_EQ(spec.index, count);
        seen.insert({spec.board, static_cast<int>(spec.attack),
                     spec.temp_c, spec.seed_index});
        ++count;
    }
    EXPECT_EQ(count, grid.size());
    EXPECT_EQ(seen.size(), grid.size()) << "duplicate grid points";
}

TEST(SweepGrid, IndexDecodeOrdering)
{
    const SweepGrid grid =
        SweepGrid::parse("board=pi3,pi4;temp=-80,25;seeds=2");

    // Seed index varies fastest, board slowest.
    EXPECT_EQ(grid.at(0).seed_index, 0u);
    EXPECT_EQ(grid.at(1).seed_index, 1u);
    EXPECT_EQ(grid.at(0).board, "pi3");
    EXPECT_EQ(grid.at(grid.size() - 1).board, "pi4");
    EXPECT_EQ(grid.at(0).temp_c, -80.0);
    EXPECT_EQ(grid.at(2).temp_c, 25.0);
}

TEST(SweepGrid, ParseRoundTripsThroughDescribe)
{
    const SweepGrid grid = SweepGrid::parse(
        "board=pi4,imx53;target=dcache,iram;attack=voltboot;"
        "temp=-80,25;off-ms=0.5,500;current=3;impedance-mohm=50;"
        "key=0;seeds=4");
    EXPECT_EQ(grid.size(), 2u * 2u * 2u * 2u * 4u);
    const SweepGrid reparsed = SweepGrid::parse(grid.describe());
    EXPECT_EQ(reparsed.describe(), grid.describe());
    EXPECT_EQ(reparsed.size(), grid.size());
}

TEST(SweepGrid, ParseAcceptsNewlinesAndComments)
{
    const SweepGrid grid = SweepGrid::parse(
        "# retention surface\n"
        "board=pi4\n"
        "attack=coldboot   # control experiment\n"
        "temp=-110,-80\n"
        "seeds=2\n");
    EXPECT_EQ(grid.size(), 4u);
    EXPECT_EQ(grid.at(0).attack, AttackKind::ColdBoot);
}

TEST(SweepGrid, ParseRejectsMalformedSpecs)
{
    EXPECT_THROW(SweepGrid::parse("bogus-key=1"), FatalError);
    EXPECT_THROW(SweepGrid::parse("temp=12x"), FatalError);
    EXPECT_THROW(SweepGrid::parse("temp="), FatalError);
    EXPECT_THROW(SweepGrid::parse("seeds=0"), FatalError);
    EXPECT_THROW(SweepGrid::parse("target=l9cache"), FatalError);
    EXPECT_THROW(SweepGrid::parse("attack=warmboot"), FatalError);
    EXPECT_THROW(SweepGrid::parse("temp"), FatalError);
    EXPECT_THROW(SweepGrid::parse("key=2"), FatalError);
    // from_chars accepts these, but the sweep JSON cannot carry them.
    EXPECT_THROW(
        SweepGrid::parse("attack=voltage-coupling;temp=nan"), FatalError);
    EXPECT_THROW(SweepGrid::parse("off-ms=inf"), FatalError);
    EXPECT_THROW(SweepGrid::parse("glitch-depth=-inf"), FatalError);
}

TEST(SweepGrid, RejectsGridsPastTwoToTheSixtyFourTrials)
{
    // 2 boards x (2^63 + 1) seeds wraps to 2 trials in uint64_t.
    EXPECT_THROW(
        SweepGrid::parse("board=pi3,pi4;seeds=9223372036854775809"),
        FatalError);
    // set() checks the product the same way; the rejected axis goes
    // back to its default.
    SweepGrid grid = SweepGrid::parse("board=pi3,pi4;temp=25,-80");
    EXPECT_THROW(grid.set("seeds", "9223372036854775808"), FatalError);
    EXPECT_EQ(grid.size(), 4u);
    // The largest grid that fits is still accepted (and never run).
    EXPECT_EQ(SweepGrid::parse("seeds=18446744073709551615").size(),
              UINT64_MAX);
    grid.set("seeds", "4611686018427387903");
    EXPECT_EQ(grid.size(), UINT64_MAX - 3);
}

TEST(SweepGrid, AxesHelpListsEveryAttackKind)
{
    // The enum ends at KeyRecovery; the name table must cover it all.
    ASSERT_EQ(std::size(kAttackNames),
              static_cast<size_t>(AttackKind::KeyRecovery) + 1);
    const std::string help = SweepGrid::axesHelp();
    const size_t row = help.find("\nattack ");
    ASSERT_NE(row, std::string::npos) << help;
    const std::string attack_row =
        help.substr(row + 1, help.find('\n', row + 1) - row - 1);
    // The values column is the row's last field: "a|b|...".
    const std::string values =
        "|" + attack_row.substr(attack_row.rfind(' ') + 1) + "|";
    for (size_t i = 0; i < std::size(kAttackNames); ++i) {
        const AttackKind kind = static_cast<AttackKind>(i);
        EXPECT_EQ(kAttackNames[i].kind, kind) << "table out of enum order";
        const std::string name = toString(kind);
        EXPECT_NE(values.find("|" + name + "|"), std::string::npos)
            << name << " missing from: " << attack_row;
        EXPECT_EQ(enumFromName<AttackKind>(name), kind);
    }
}

TEST(Campaign, JsonIsByteIdenticalAcrossJobCounts)
{
    // 2*3*2*8 = 96 trials
    const SweepGrid grid = SweepGrid::parse(
        "board=pi3,pi4;temp=-110,-40,25;off-ms=5,50;seeds=8");

    auto runWith = [&](unsigned jobs) {
        CampaignConfig cfg;
        cfg.jobs = jobs;
        cfg.seed = 1234;
        cfg.runner = fakeTrial;
        return Campaign(grid, cfg).run().toJson();
    };
    const std::string serial = runWith(1);
    EXPECT_EQ(serial, runWith(4));
    EXPECT_EQ(serial, runWith(8));
}

TEST(Campaign, SeedChangesResults)
{
    const SweepGrid grid = SweepGrid::parse("seeds=4");
    CampaignConfig a, b;
    a.runner = b.runner = fakeTrial;
    a.seed = 1;
    b.seed = 2;
    EXPECT_NE(Campaign(grid, a).run().toJson(),
              Campaign(grid, b).run().toJson());
}

TEST(Campaign, ThrowingTrialIsIsolated)
{
    const SweepGrid grid = SweepGrid::parse("seeds=32");
    CampaignConfig cfg;
    cfg.jobs = 4;
    cfg.runner = [](const TrialSpec &spec, uint64_t seed) {
        if (spec.index == 7)
            fatal("injected failure");
        if (spec.index == 11)
            throw 42; // non-std exception
        return fakeTrial(spec, seed);
    };
    const CampaignResult result = Campaign(grid, cfg).run();
    ASSERT_EQ(result.records.size(), 32u);
    EXPECT_EQ(result.records[7].status, TrialStatus::Error);
    EXPECT_EQ(result.records[7].detail, "injected failure");
    EXPECT_EQ(result.records[11].status, TrialStatus::Error);
    EXPECT_EQ(result.records[11].detail, "unknown exception");
    const CampaignSummary s = result.summary();
    EXPECT_EQ(s.errors, 2u);
    EXPECT_EQ(s.ok, 30u);
}

TEST(Campaign, UnsupportedComboRecordedAsErrorAndSweepCompletes)
{
    // iRAM only exists on imx53; the pi4 x iram cross combos must be
    // captured as errors without sinking the rest of the campaign.
    const SweepGrid grid = SweepGrid::parse("board=pi4;target=iram");
    CampaignConfig cfg;
    cfg.jobs = 1;
    const CampaignResult result = Campaign(grid, cfg).run();
    ASSERT_EQ(result.records.size(), 1u);
    EXPECT_EQ(result.records[0].status, TrialStatus::Error);
    EXPECT_NE(result.records[0].detail.find("iRAM"), std::string::npos);
}

TEST(Campaign, AbortSkipsRemainingTrials)
{
    const SweepGrid grid = SweepGrid::parse("seeds=64");
    CampaignConfig cfg;
    cfg.jobs = 1;
    cfg.chunk = 1;
    std::atomic<Campaign *> self{nullptr};
    cfg.runner = [&](const TrialSpec &spec, uint64_t seed) {
        if (spec.index == 9)
            self.load()->requestAbort();
        return fakeTrial(spec, seed);
    };
    Campaign campaign(grid, cfg);
    self.store(&campaign);
    const CampaignResult result = campaign.run();
    const CampaignSummary s = result.summary();
    EXPECT_EQ(s.ok, 10u); // indices 0..9 ran, the rest were skipped
    EXPECT_EQ(s.skipped, 54u);
    EXPECT_EQ(result.records[10].status, TrialStatus::Skipped);
    EXPECT_EQ(result.records[63].status, TrialStatus::Skipped);
}

TEST(Campaign, MonitorSamplesReportProgressMonotonically)
{
    // Progress comes from the telemetry monitor's samples: done counts
    // completed plus skipped trials, and the final sample (taken by
    // stop()) accounts for every trial, aborted ones included.
    const SweepGrid grid = SweepGrid::parse("seeds=40");
    CampaignConfig cfg;
    cfg.jobs = 4;
    cfg.chunk = 1;
    std::atomic<Campaign *> self{nullptr};
    cfg.runner = [&](const TrialSpec &spec, uint64_t seed) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (spec.index == 24)
            self.load()->requestAbort();
        return fakeTrial(spec, seed);
    };

    telemetry::resetCounters();
    telemetry::MonitorConfig mcfg;
    mcfg.interval_s = 0.002;
    mcfg.total_trials = grid.size();
    // Calls never overlap, so plain state is enough.
    uint64_t last = 0;
    uint64_t samples = 0;
    bool saw_final = false;
    mcfg.on_sample = [&](const telemetry::TelemetrySnapshot &snap) {
        const uint64_t done =
            snap.totals.get(telemetry::Counter::TrialsCompleted) +
            snap.totals.get(telemetry::Counter::TrialsSkipped);
        EXPECT_LE(done, grid.size());
        EXPECT_GE(done, last);
        last = done;
        ++samples;
        if (snap.final_sample) {
            EXPECT_EQ(done, grid.size());
            saw_final = true;
        }
    };
    telemetry::CampaignMonitor monitor(mcfg);
    monitor.start();
    Campaign campaign(grid, cfg);
    self.store(&campaign);
    const CampaignSummary s = campaign.run().summary();
    monitor.stop();

    EXPECT_TRUE(saw_final);
    EXPECT_GE(samples, 1u);
    EXPECT_GT(s.skipped, 0u);
    EXPECT_EQ(s.ok + s.skipped, grid.size());
}

TEST(Campaign, CsvHasHeaderAndOneRowPerTrial)
{
    const SweepGrid grid = SweepGrid::parse("seeds=5");
    CampaignConfig cfg;
    cfg.runner = fakeTrial;
    const std::string csv = Campaign(grid, cfg).run().toCsv();
    size_t lines = 0;
    for (char c : csv)
        lines += c == '\n';
    EXPECT_EQ(lines, 6u); // header + 5 records
    EXPECT_EQ(csv.find("index,board,target"), 0u);
}

TEST(Campaign, TimingSectionIsOptIn)
{
    SweepGrid grid;
    CampaignConfig cfg;
    cfg.runner = fakeTrial;
    const CampaignResult result = Campaign(grid, cfg).run();
    EXPECT_EQ(result.toJson().find("\"timing\""), std::string::npos);
    EXPECT_NE(result.toJson(true).find("\"timing\""),
              std::string::npos);
}

// --- Real-trial coverage (each trial builds a full Soc; keep small) ---

TEST(Campaign, TimingMetricsHoldOnePhaseSamplePerTrial)
{
    // Each family's sweep carries exactly the core.wall_s histograms
    // of the steps it runs, each with one sample per trial.
    const std::map<std::string, std::set<std::string>> expected = {
        {"voltboot",
         {"attack.steps12_probe", "attack.step3_power_cycle",
          "attack.step4_extract"}},
        {"coldboot", {"coldboot.power_cycle", "attack.step4_extract"}},
        {"glitch", {"attack.glitch"}},
        {"static-extract", {"attack.static_extract"}},
        {"voltage-coupling", {}},
        {"key-recovery", {"coldboot.power_cycle", "attack.step4_extract"}},
    };
    for (const auto &[family, phases] : expected) {
        SCOPED_TRACE(family);
        const SweepGrid grid =
            SweepGrid::parse("board=pi4;attack=" + family + ";seeds=2");
        CampaignConfig cfg;
        cfg.jobs = 2;
        const CampaignResult result = Campaign(grid, cfg).run();
        const auto &histograms = result.metrics.histograms;

        std::set<std::string> seen;
        for (const auto &[name, h] : histograms) {
            const std::string prefix = "core.wall_s.";
            if (name.rfind(prefix, 0) != 0)
                continue;
            seen.insert(name.substr(prefix.size()));
            EXPECT_EQ(h.count, grid.size()) << name;
        }
        EXPECT_EQ(seen, phases);
        ASSERT_EQ(histograms.count("campaign.trial_wall_s"), 1u);
        EXPECT_EQ(histograms.at("campaign.trial_wall_s").count,
                  grid.size());
    }
}

TEST(TrialRunner, VoltBootDCacheIsExact)
{
    SweepGrid grid = SweepGrid::parse(
        "board=pi4;target=dcache;attack=voltboot;temp=25;off-ms=5");
    const TrialRecord rec = runTrial(grid.at(0), 99);
    EXPECT_EQ(rec.status, TrialStatus::Ok);
    EXPECT_TRUE(rec.probe_attached);
    EXPECT_TRUE(rec.booted);
    EXPECT_EQ(rec.dump_bytes, 32768u);
    EXPECT_DOUBLE_EQ(rec.accuracy, 1.0); // the paper's 100% claim
}

TEST(TrialRunner, ColdBootAtRoomTemperatureRetainsNothing)
{
    SweepGrid grid = SweepGrid::parse(
        "board=pi4;target=dcache;attack=coldboot;temp=25;off-ms=500");
    const TrialRecord rec = runTrial(grid.at(0), 99);
    EXPECT_EQ(rec.status, TrialStatus::Ok);
    EXPECT_NEAR(rec.accuracy, 0.5, 0.05); // chance level
}

TEST(TrialRunner, PlantedKeyIsRecoveredUnderVoltBoot)
{
    SweepGrid grid = SweepGrid::parse(
        "board=pi4;target=dcache;attack=voltboot;temp=25;off-ms=5;"
        "key=1");
    const TrialRecord rec = runTrial(grid.at(0), 7);
    EXPECT_EQ(rec.status, TrialStatus::Ok);
    EXPECT_TRUE(rec.key_planted);
    EXPECT_TRUE(rec.key_found);
    EXPECT_TRUE(rec.key_exact);
}

// --- glitch axes and the RFC 4180 CSV writer -------------------------

TEST(SweepGrid, GlitchAxesMultiplyAndDecode)
{
    SweepGrid grid = SweepGrid::parse(
        "attack=glitch;glitch-off-ns=100,109;glitch-width-ns=2,4;"
        "glitch-depth=0.1,0.3,0.5;seeds=2");
    EXPECT_EQ(grid.size(), 2u * 2u * 3u * 2u);

    std::set<std::tuple<double, double, double, uint64_t>> seen;
    for (const TrialSpec &spec : grid) {
        EXPECT_EQ(spec.attack, AttackKind::Glitch);
        seen.insert({spec.glitch_off_ns, spec.glitch_width_ns,
                     spec.glitch_depth_v, spec.seed_index});
    }
    EXPECT_EQ(seen.size(), grid.size());

    // The canonical description round-trips, glitch axes included.
    EXPECT_EQ(SweepGrid::parse(grid.describe()).describe(),
              grid.describe());
}

TEST(SweepGrid, DefaultGlitchAxesKeepOldIndicesStable)
{
    // A glitch-free grid must enumerate exactly as it did before the
    // glitch axes existed: the single-element {0} axes are invisible.
    SweepGrid grid = SweepGrid::parse(
        "board=pi3,pi4;temp=-80,25;seeds=3");
    EXPECT_EQ(grid.size(), 12u);
    const TrialSpec spec = grid.at(7);
    EXPECT_EQ(spec.seed_index, 1u);
    EXPECT_DOUBLE_EQ(spec.temp_c, -80.0);
    EXPECT_EQ(spec.board, "pi4");
    EXPECT_DOUBLE_EQ(spec.glitch_off_ns, 0.0);
    EXPECT_DOUBLE_EQ(spec.glitch_width_ns, 0.0);
    EXPECT_DOUBLE_EQ(spec.glitch_depth_v, 0.0);
}

TEST(CsvEscape, RoundTripsCommasQuotesAndNewlines)
{
    const std::vector<std::string> fields{
        "plain",      "with,comma",         "with\"quote",
        "\"quoted\"", "multi\nline\r\nrow", "skip,opcode_corrupt",
        ""};
    std::string row;
    for (size_t i = 0; i < fields.size(); ++i) {
        if (i)
            row += ',';
        row += csvEscape(fields[i]);
    }
    EXPECT_EQ(splitCsvRow(row), fields);
    // Unremarkable fields pass through unquoted.
    EXPECT_EQ(csvEscape("plain"), "plain");
    EXPECT_EQ(csvEscape("a,b"), "\"a,b\"");
    EXPECT_EQ(csvEscape("a\"b"), "\"a\"\"b\"");
}

TEST(Campaign, CsvQuotesEmbeddedCommasAndRoundTrips)
{
    CampaignResult result;
    TrialRecord rec;
    rec.spec.index = 0;
    rec.spec.board = "pi4,rev1.4"; // hostile board name
    rec.spec.attack = AttackKind::Glitch;
    rec.status = TrialStatus::Ok;
    rec.glitch_faults = 2;
    rec.glitch_effect = "skip,opcode_corrupt"; // embedded commas
    rec.glitch_bypassed = true;
    rec.detail = "said \"pass\", then crashed";
    result.records.push_back(rec);

    const std::string csv = result.toCsv();
    // Exactly two lines: quoting kept every field on one row.
    size_t newlines = 0;
    for (char c : csv)
        newlines += c == '\n';
    ASSERT_EQ(newlines, 2u);

    const std::string header = csv.substr(0, csv.find('\n'));
    const std::string row = csv.substr(
        csv.find('\n') + 1, csv.size() - csv.find('\n') - 2);
    const std::vector<std::string> cols = splitCsvRow(header);
    const std::vector<std::string> vals = splitCsvRow(row);
    ASSERT_EQ(cols.size(), vals.size());

    std::map<std::string, std::string> byCol;
    for (size_t i = 0; i < cols.size(); ++i)
        byCol[cols[i]] = vals[i];
    EXPECT_EQ(byCol.at("board"), "pi4,rev1.4");
    EXPECT_EQ(byCol.at("glitch_effect"), "skip,opcode_corrupt");
    EXPECT_EQ(byCol.at("glitch_bypassed"), "1");
    EXPECT_EQ(byCol.at("glitch_faults"), "2");
    EXPECT_EQ(byCol.at("detail"), "said \"pass\", then crashed");
}

TEST(Campaign, GlitchSweepIsByteIdenticalAcrossJobCounts)
{
    const SweepGrid grid = SweepGrid::parse(
        "attack=glitch;glitch-off-ns=105,109;glitch-width-ns=2;"
        "glitch-depth=0.04,0.5;seeds=1");
    CampaignConfig one, four;
    one.jobs = 1;
    four.jobs = 4;
    const CampaignResult a = Campaign(grid, one).run();
    const CampaignResult b = Campaign(grid, four).run();
    EXPECT_EQ(a.toJson(), b.toJson());
    EXPECT_EQ(a.toCsv(), b.toCsv());

    const CampaignSummary s = a.summary();
    EXPECT_EQ(s.family(AttackKind::Glitch).trials, 4u);
    EXPECT_EQ(s.errors, 0u);
}

TEST(TrialRunner, GlitchTrialRecordsOutcome)
{
    // Sub-margin depth: deterministically zero faults, no bypass.
    SweepGrid shallow = SweepGrid::parse(
        "attack=glitch;glitch-off-ns=109;glitch-width-ns=2;"
        "glitch-depth=0.04");
    const TrialRecord rec = runTrial(shallow.at(0), 0x5eed);
    EXPECT_EQ(rec.status, TrialStatus::Ok);
    EXPECT_EQ(rec.glitch_faults, 0u);
    EXPECT_TRUE(rec.glitch_effect.empty());
    EXPECT_FALSE(rec.glitch_bypassed);
    EXPECT_DOUBLE_EQ(rec.accuracy, 0.0);
    EXPECT_DOUBLE_EQ(rec.bit_error_rate, 1.0);
}

TEST(TrialRunner, DegenerateGlitchSpecMatchesNoGlitchSpec)
{
    // A zero-width (or zero-depth) pulse is the documented no-op: the
    // trial outcome must match the all-zero glitch point bit for bit.
    SweepGrid none = SweepGrid::parse("attack=glitch");
    SweepGrid zero_w = SweepGrid::parse(
        "attack=glitch;glitch-width-ns=0;glitch-depth=0.5");
    SweepGrid zero_d = SweepGrid::parse(
        "attack=glitch;glitch-off-ns=50;glitch-width-ns=2;"
        "glitch-depth=0");
    const TrialRecord a = runTrial(none.at(0), 0x5eed);
    const TrialRecord b = runTrial(zero_w.at(0), 0x5eed);
    const TrialRecord c = runTrial(zero_d.at(0), 0x5eed);
    for (const TrialRecord *r : {&b, &c}) {
        EXPECT_EQ(r->status, a.status);
        EXPECT_EQ(r->chip_seed, a.chip_seed);
        EXPECT_EQ(r->glitch_faults, a.glitch_faults);
        EXPECT_EQ(r->glitch_effect, a.glitch_effect);
        EXPECT_EQ(r->glitch_bypassed, a.glitch_bypassed);
        EXPECT_EQ(r->detail, a.detail);
        EXPECT_DOUBLE_EQ(r->accuracy, a.accuracy);
        EXPECT_DOUBLE_EQ(r->bit_error_rate, a.bit_error_rate);
    }
    EXPECT_EQ(a.glitch_faults, 0u);
}

TEST(TrialRunner, SameChipSeedIndexMeansSameSilicon)
{
    // Two trials at different grid points but the same seed index must
    // land on the same derived chip seed (same simulated die).
    SweepGrid grid = SweepGrid::parse(
        "board=pi4;attack=coldboot;temp=-110,-80;off-ms=5;seeds=2");
    ASSERT_EQ(grid.size(), 4u);
    EXPECT_EQ(deriveChipSeed(5, grid.at(0).seed_index),
              deriveChipSeed(5, grid.at(2).seed_index));
    EXPECT_NE(deriveChipSeed(5, grid.at(0).seed_index),
              deriveChipSeed(5, grid.at(1).seed_index));
}

} // namespace
