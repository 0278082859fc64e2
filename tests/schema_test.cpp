/**
 * @file
 * Campaign schema tests: the canonical bytes every sweep renders — the
 * result JSON, the CSV, the grid description, the `--list-axes` text
 * and the unknown-grid-key diagnostic — pinned against golden files
 * under tests/golden/, and every kGridAxes row carried from the spec
 * through decode, describe, JSON, CSV and the sweep reader.
 *
 * The records are synthetic: every field carries a non-default value
 * (large seeds, awkward doubles, free text with commas, quotes and
 * newlines), so the goldens pin the renderers rather than the
 * simulation. On a mismatch the actual bytes are written next to the
 * test binary under golden_actual/ for inspection.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "campaign/campaign_result.hh"
#include "campaign/sweep_grid.hh"
#include "report/campaign_json.hh"
#include "sim/logging.hh"

using namespace voltboot;

namespace
{

/** Every grid axis off its default, all six attack families. */
const char *const kFullGrid =
    "board=imx53,pi3;target=icache,btb;"
    "attack=voltboot,coldboot,glitch,static-extract,voltage-coupling,"
    "key-recovery;temp=-40;off-ms=5.5;current=1.5;impedance-mohm=20;"
    "glitch-off-ns=109;glitch-width-ns=2;glitch-depth=0.5;"
    "undervolt-depth=0.45;hold-ns=400;readout-rate=64;cpa-window-ns=8;"
    "dumps=3;prior=1;key=1;seeds=2";

/** A record whose every field is a deterministic, non-default
 * function of the trial index. */
TrialRecord
syntheticRecord(const TrialSpec &spec)
{
    const uint64_t i = spec.index;
    TrialRecord r;
    r.spec = spec;
    r.status = static_cast<TrialStatus>(i % 4);
    if (i % 5 != 0)
        r.detail = "trial " + std::to_string(i) +
                   ", said \"no\"\n\tline two\x01";
    r.chip_seed = i == 3 ? UINT64_MAX
                         : 0xfedcba9876543210ULL ^
                               (i * 0x9e3779b97f4a7c15ULL);
    r.probe_attached = i % 2 == 0;
    r.booted = i % 3 == 0;
    r.dump_bytes = 32768 + i;
    r.accuracy = 1.0 / static_cast<double>(i + 3);
    r.bit_error_rate = 1.0 - r.accuracy;
    r.key_planted = (i & 1) != 0;
    r.key_found = (i & 2) != 0;
    r.key_exact = (i & 4) != 0;
    r.glitch_faults = i % 7;
    if (i % 3 == 1)
        r.glitch_effect = "skip,opcode_corrupt";
    r.glitch_bypassed = (i & 8) != 0;
    r.se_frozen = (i & 16) != 0;
    r.se_zeroized = (i & 32) != 0;
    r.se_read_fraction = i == 7 ? 1e21 : static_cast<double>(i) * 1e-7;
    r.cpa_recovered = i % 17;
    r.kr_scan_hits = i % 2;
    r.kr_corrected_hits = i % 3;
    r.kr_bit_errors = i * 11;
    r.kr_key_bits_flipped = i % 5;
    r.kr_correction_iterations = i * 1000003;
    r.kr_disagreeing_bits = i * 13;
    // Timing only: must never reach canonical output.
    r.duration_s = 0.25 * static_cast<double>(i);
    r.timed_out = true;
    return r;
}

CampaignResult
syntheticResult(const SweepGrid &grid, uint64_t campaign_seed)
{
    CampaignResult result;
    result.campaign_seed = campaign_seed;
    result.grid_spec = grid.describe();
    for (const TrialSpec &spec : grid)
        result.records.push_back(syntheticRecord(spec));
    return result;
}

std::string
unknownKeyMessage()
{
    try {
        SweepGrid::parse("bogus-key=1");
    } catch (const FatalError &e) {
        return std::string(e.what()) + "\n";
    }
    return "(no error)\n";
}

/** Compare @p actual with tests/golden/@p name; on a mismatch, write
 * it to golden_actual/@p name beside the test binary. */
void
expectGolden(const std::string &name, const std::string &actual)
{
    const std::filesystem::path golden =
        std::filesystem::path(VOLTBOOT_GOLDEN_DIR) / name;
    std::ifstream in(golden, std::ios::binary);
    std::ostringstream expected;
    expected << in.rdbuf();
    if (in && expected.str() == actual)
        return;
    const std::filesystem::path dir = "golden_actual";
    std::filesystem::create_directories(dir);
    std::ofstream(dir / name, std::ios::binary) << actual;
    ADD_FAILURE() << name << " differs from " << golden
                  << "; actual bytes written to "
                  << std::filesystem::absolute(dir / name);
}

TEST(CampaignSchema, GoldenBytes)
{
    const SweepGrid defaults = SweepGrid::parse("");
    const SweepGrid full = SweepGrid::parse(kFullGrid);
    ASSERT_EQ(full.size(), 2u * 2u * 6u * 2u);

    const CampaignResult a = syntheticResult(defaults, 7);
    const CampaignResult b =
        syntheticResult(full, 18446744073709551557ULL);
    expectGolden("campaign.json", a.toJson() + b.toJson());
    expectGolden("campaign.csv", a.toCsv() + b.toCsv());
    expectGolden("describe.txt",
                 defaults.describe() + "\n" + full.describe() + "\n");
    expectGolden("axes_help.txt", SweepGrid::axesHelp());
    expectGolden("unknown_key.txt", unknownKeyMessage());
}

/** A spelling of a value other than @p axis's default. */
std::string
nonDefaultText(const GridAxis &axis)
{
    if (axis.replicas)
        return "3";
    return std::visit(
        []<class T>(T &(*)(TrialSpec &)) -> std::string {
            if constexpr (std::is_same_v<T, std::string>)
                return "imx53";
            else if constexpr (std::is_same_v<T, double>)
                return "-12.5";
            else if constexpr (std::is_same_v<T, bool>)
                return "1";
            else if constexpr (std::is_same_v<T, uint64_t>)
                return "3";
            else
                return enumNames(T{})[1].name; // [0] is the default
        },
        axis.member);
}

/** The cell of CSV column @p column in the last row of @p csv. */
std::string
lastCsvCell(const std::string &csv, const std::string &column)
{
    std::istringstream lines(csv);
    std::string header, row, last;
    std::getline(lines, header);
    while (std::getline(lines, row))
        last = row;
    const std::vector<std::string> cols = splitCsvRow(header);
    const std::vector<std::string> cells = splitCsvRow(last);
    for (size_t i = 0; i < cols.size() && i < cells.size(); ++i)
        if (cols[i] == column)
            return cells[i];
    return "(no column " + column + ")";
}

TEST(CampaignSchema, EveryAxisSurvivesEveryOutput)
{
    for (const GridAxis &axis : kGridAxes) {
        SCOPED_TRACE(axis.key);
        const std::string entry =
            std::string(axis.key) + "=" + nonDefaultText(axis);
        const SweepGrid grid = SweepGrid::parse(entry);
        // The last trial carries the value; on the replicas axis that
        // is the last index, n - 1.
        const uint64_t last = grid.size() - 1;
        const std::string want = axis.replicas ? std::to_string(last)
                                               : nonDefaultText(axis);
        EXPECT_NE(plainText(readMember(axis.member, TrialSpec{})), want);

        EXPECT_EQ(plainText(readMember(axis.member, grid.at(last))), want);
        EXPECT_NE((";" + grid.describe() + ";").find(";" + entry + ";"),
                  std::string::npos)
            << grid.describe();

        CampaignResult result;
        result.grid_spec = grid.describe();
        for (const TrialSpec &spec : grid) {
            result.records.emplace_back();
            result.records.back().spec = spec;
        }
        const report::SweepDoc doc =
            report::parseSweepJson(result.toJson());
        // The JSON's grid string carries every axis...
        EXPECT_EQ(plainText(readMember(
                      axis.member, SweepGrid::parse(doc.grid).at(last))),
                  want);
        // ...and each record echoes it, except the key axis, whose
        // records report the key_planted outcome instead.
        const RecordField *field = nullptr;
        for (const RecordField &f : kRecordFields)
            if (std::string(f.name) == axis.name)
                field = &f;
        if (field == nullptr) {
            EXPECT_STREQ(axis.name, "plant_key");
            continue;
        }
        ASSERT_EQ(doc.records.size(), grid.size());
        EXPECT_EQ(plainText(readMember(field->member, doc.records.back())),
                  want);
        EXPECT_EQ(lastCsvCell(result.toCsv(), field->name), want);
    }
}

} // namespace
