/**
 * @file
 * Ablation A2 — the temperature/off-time retention surface, SRAM vs
 * DRAM.
 *
 * The SRAM surface is *measured*: a campaign of cold-boot trials over
 * the (temperature x off-time x chip) grid runs through the parallel
 * campaign engine, and each cell of the table is the mean retention
 * accuracy of the extracted L1D dumps (50% = chance, nothing retained).
 * The DRAM surface and the literature anchors use the closed-form
 * expected-survival model, as before:
 *
 *  - SRAM retains ~80% for 20 ms at -110 degC and ~0% at -40 degC
 *    (Anagnostopoulos et al.; the paper's Section 3 argument);
 *  - DRAM retains across whole seconds at room temperature and for
 *    capture-sized windows when chilled (Halderman et al.), which is why
 *    classic cold boot works on DRAM and not on SRAM.
 */

#include <iostream>
#include <map>

#include "bench_util.hh"
#include "campaign/campaign.hh"
#include "core/analysis.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sram/retention_model.hh"

using namespace voltboot;

namespace
{

const std::vector<double> kTemps{-140, -110, -80, -40, 25};
const std::vector<double> kOffsMs{0.5, 2, 20, 200};

void
printMeasuredSramSurface()
{
    const uint64_t chips = 2;
    const SweepGrid grid = SweepGrid::parse(
        "board=pi4;target=dcache;attack=coldboot;temp=" +
        bench::specList(kTemps) + ";off-ms=" + bench::specList(kOffsMs) +
        ";seeds=" + std::to_string(chips));

    CampaignConfig cfg;
    cfg.seed = 0xa2;
    Campaign campaign(grid, cfg);
    const CampaignResult result = campaign.run();

    // Mean accuracy per (off-time, temperature) cell.
    std::map<std::pair<double, double>, RunningStats> cells;
    for (const TrialRecord &r : result.records)
        if (r.status == TrialStatus::Ok)
            cells[{r.spec.off_ms, r.spec.temp_c}].add(r.accuracy);

    std::cout << "\n6T SRAM measured retention accuracy (" << grid.size()
              << " cold-boot trials, " << chips
              << " chips; 50% = chance):\n";
    std::vector<std::string> header{"off \\ degC"};
    for (double t : kTemps)
        header.push_back(TextTable::num(t, 0));
    TextTable table(header);
    for (double ms : kOffsMs) {
        std::vector<std::string> row{TextTable::num(ms, 1) + " ms"};
        for (double t : kTemps)
            row.push_back(TextTable::pct(cells[{ms, t}].mean(), 1));
        table.addRow(row);
    }
    std::cout << table.render();
}

void
printClosedFormSurface(const char *name, const RetentionConfig &cfg)
{
    const RetentionModel model(cfg, CellRng(1, 1));
    std::cout << "\n" << name
              << " expected survival (rows: off-time; cols: degC):\n";
    std::vector<std::string> header{"off \\ degC"};
    for (double t : kTemps)
        header.push_back(TextTable::num(t, 0));
    TextTable table(header);
    for (double ms : kOffsMs) {
        std::vector<std::string> row{TextTable::num(ms, 1) + " ms"};
        for (double t : kTemps)
            row.push_back(TextTable::pct(
                model.expectedSurvival(Seconds::milliseconds(ms),
                                       Temperature::celsius(t)),
                1));
        table.addRow(row);
    }
    std::cout << table.render();
}

} // namespace

int
main()
{
    bench::banner("Ablation A2",
                  "retention vs temperature and off-time, SRAM vs DRAM");

    printMeasuredSramSurface();
    printClosedFormSurface("DRAM", RetentionConfig::dram());

    const RetentionModel sram(RetentionConfig::sram6t(), CellRng(1, 1));
    const RetentionModel dram(RetentionConfig::dram(), CellRng(1, 2));

    std::cout << "\nanchor points:\n";
    TextTable anchors({"Anchor", "Model", "Literature"});
    anchors.addRow(
        {"SRAM -110 degC / 20 ms",
         TextTable::pct(sram.expectedSurvival(
             Seconds::milliseconds(20), Temperature::celsius(-110))),
         "~80% (Anagnostopoulos et al.)"});
    anchors.addRow(
        {"SRAM -40 degC / 2 ms",
         TextTable::pct(sram.expectedSurvival(
             Seconds::milliseconds(2), Temperature::celsius(-40))),
         "~0% (paper Table 1)"});
    anchors.addRow(
        {"DRAM 25 degC / 64 ms refresh",
         TextTable::pct(dram.expectedSurvival(
             Seconds::milliseconds(64), Temperature::celsius(25))),
         "~100% (DRAM spec)"});
    anchors.addRow(
        {"DRAM -50 degC / 10 s",
         TextTable::pct(dram.expectedSurvival(
             Seconds(10.0), Temperature::celsius(-50))),
         "~100% (Halderman et al.)"});
    std::cout << anchors.render();

    std::cout << "\ntakeaway: there is no temperature an attacker can "
                 "reach where SRAM survives a\nrealistic battery-pull "
                 "(hundreds of ms) — which is exactly why Volt Boot "
                 "swaps the\ntemperature knob for the voltage knob.\n";
    return 0;
}
