/**
 * @file
 * P6 — glitch success-rate surface (BENCH_glitch.json artefact).
 *
 * Sweeps the voltage-glitch attack over a small offset × depth grid
 * around the signature check's compare/branch window and reports the
 * bypass rate per cell, plus campaign throughput. Asserts the two
 * load-bearing properties along the way: the sweep is byte-identical
 * across job counts, and the surface is nontrivial (the sub-margin
 * cells never win, at least one deep on-target cell does).
 *
 * Flags (for CI smoke runs):
 *   --seeds N        chip seeds per cell (default 8)
 *   --jobs A,B,...   worker-thread counts to compare (default 1,2)
 */

#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "campaign/campaign.hh"
#include "core/analysis.hh"

using namespace voltboot;
using bench::jsonNum;

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::parseBenchArgs(
        "glitch_surface", "--seeds", {8, {1, 2}}, argc, argv);

    bench::banner("P6", "glitch success-rate surface (offset x depth)");

    // Offsets bracket the 16-word victim's cmp/b.ne window (the branch
    // boundary sits at ~110 ns at the 1 ns default clock); 0.04 V of
    // depth stays inside the 10% timing margin of the 0.8 V core rail
    // and can never fault, the deep cells crowbar well below it.
    const SweepGrid grid = SweepGrid::parse(
        "attack=glitch;glitch-off-ns=60,105,107,109,111;glitch-width-ns=2;"
        "glitch-depth=0.04,0.3,0.5;seeds=" + std::to_string(args.count));

    double best_tps = 0.0;
    const std::optional<CampaignResult> run =
        bench::runAtEachJobCount(grid, 0x911c, args.jobs, best_tps);
    if (!run)
        return 1;
    const CampaignResult &result = *run;

    // Aggregate the (offset, depth) surface over seeds.
    std::map<std::pair<double, double>, std::pair<uint64_t, uint64_t>>
        surface; // (off, depth) -> (trials, bypasses)
    for (const TrialRecord &rec : result.records) {
        auto &cell = surface[{rec.spec.glitch_off_ns,
                              rec.spec.glitch_depth_v}];
        ++cell.first;
        cell.second += rec.glitch_bypassed;
    }

    TextTable table({"offset (ns)", "depth (V)", "bypass rate"});
    uint64_t zero_cells = 0, live_cells = 0;
    std::string cells_json;
    for (const auto &[key, cell] : surface) {
        const double rate =
            static_cast<double>(cell.second) / cell.first;
        (cell.second == 0 ? zero_cells : live_cells) += 1;
        table.addRow({TextTable::num(key.first, 0),
                      TextTable::num(key.second, 2),
                      TextTable::pct(rate)});
        if (!cells_json.empty())
            cells_json += ",\n";
        cells_json += "    {\"offset_ns\": " + jsonNum(key.first) +
                      ", \"depth_v\": " + jsonNum(key.second) +
                      ", \"trials\": " + std::to_string(cell.first) +
                      ", \"bypassed\": " + std::to_string(cell.second) +
                      ", \"rate\": " + jsonNum(rate) + "}";
    }
    std::cout << table.render();

    const auto glitch = result.summary().family(AttackKind::Glitch);
    std::cout << glitch.successes << "/" << glitch.trials
              << " signature checks bypassed; " << live_cells
              << " live cells, " << zero_cells << " dead cells\n";
    std::cout << "(all runs byte-identical across job counts)\n";

    std::string artefact =
        "{\n  \"bench\": \"glitch_surface\",\n"
        "  \"trials\": " + std::to_string(glitch.trials) +
        ",\n  \"bypassed\": " + std::to_string(glitch.successes) +
        ",\n  \"trials_per_second\": " + jsonNum(best_tps) +
        ",\n  \"cells\": [\n" + cells_json + "\n  ]\n}\n";
    bench::saveArtefact("BENCH_glitch.json", artefact);

    // The acceptance surface: sub-margin cells all dead, and the
    // crowbar actually wins somewhere.
    if (zero_cells == 0 || live_cells == 0) {
        std::cout << "ERROR: success-rate surface is trivial\n";
        return 1;
    }
    return 0;
}
