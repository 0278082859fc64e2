/**
 * @file
 * P2 — campaign engine throughput (BENCH_campaign.json artefact).
 *
 * Runs the same fixed attack sweep at 1, 4 and hardware-concurrency
 * worker threads and records trials/sec for each, so later PRs can
 * track the engine's scaling trajectory. Also asserts the engine's core
 * promise while it is at it: the canonical JSON of every run is
 * byte-identical regardless of job count.
 *
 * Flags (for CI smoke runs):
 *   --trials N       approximate trial count (rounded up to the nearest
 *                    even number: the grid runs 2 attacks per seed)
 *   --jobs A,B,...   explicit worker-thread counts to sweep
 */

#include <algorithm>
#include <charconv>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "campaign/campaign.hh"
#include "core/analysis.hh"

using namespace voltboot;

namespace
{

std::string
jsonNum(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

[[noreturn]] void
usageFatal(const std::string &detail)
{
    std::cerr << "campaign_throughput: " << detail << "\n"
              << "usage: campaign_throughput [--trials N] "
                 "[--jobs A,B,...]\n";
    std::exit(2);
}

uint64_t
parseUint(const std::string &flag, const std::string &text)
{
    uint64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || ptr != text.data() + text.size() ||
        text.empty())
        usageFatal("malformed value '" + text + "' for " + flag);
    return value;
}

std::vector<unsigned>
parseJobsList(const std::string &text)
{
    std::vector<unsigned> jobs;
    size_t pos = 0;
    while (pos <= text.size()) {
        const size_t comma = std::min(text.find(',', pos), text.size());
        const std::string item = text.substr(pos, comma - pos);
        const uint64_t j = parseUint("--jobs", item);
        if (j == 0)
            usageFatal("--jobs entries must be >= 1");
        jobs.push_back(static_cast<unsigned>(j));
        pos = comma + 1;
    }
    return jobs;
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t trials = 0;        // 0 = the default 12-trial grid
    std::vector<unsigned> jobs; // empty = the default 1/4/N sweep
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usageFatal("missing value for " + flag);
            return argv[++i];
        };
        if (flag == "--trials")
            trials = parseUint(flag, value());
        else if (flag == "--jobs")
            jobs = parseJobsList(value());
        else
            usageFatal("unknown option " + flag);
    }

    bench::banner("P2", "campaign engine throughput (1/4/N threads)");

    // 12 trials by default: enough to keep every worker busy.
    const uint64_t seeds =
        trials > 0 ? std::max<uint64_t>(1, (trials + 1) / 2) : 6;
    const SweepGrid grid = SweepGrid::parse(
        "board=pi4;target=dcache;attack=voltboot,coldboot;temp=25;"
        "off-ms=5;seeds=" + std::to_string(seeds));

    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    if (jobs.empty()) {
        // Default sweep, deduped while preserving order (hw may be 1
        // or 4).
        for (unsigned j : {1u, 4u, hw})
            if (std::find(jobs.begin(), jobs.end(), j) == jobs.end())
                jobs.push_back(j);
    }

    TextTable table({"jobs", "wall (s)", "trials/s", "speedup vs 1"});
    std::string baseline_json;
    double baseline_tps = 0.0;
    std::string artefact = "{\n  \"bench\": \"campaign_throughput\",\n"
                           "  \"trials\": " +
                           std::to_string(grid.size()) +
                           ",\n  \"hardware_concurrency\": " +
                           std::to_string(hw) + ",\n  \"runs\": [\n";
    for (size_t i = 0; i < jobs.size(); ++i) {
        CampaignConfig cfg;
        cfg.jobs = jobs[i];
        cfg.seed = 0xbe;
        const CampaignResult result = Campaign(grid, cfg).run();
        const std::string json = result.toJson();
        if (baseline_json.empty()) {
            baseline_json = json;
            baseline_tps = result.trialsPerSecond();
        } else if (json != baseline_json) {
            std::cout << "ERROR: results differ from --jobs "
                      << jobs.front() << " run!\n";
            return 1;
        }
        const double speedup =
            baseline_tps > 0.0 ? result.trialsPerSecond() / baseline_tps
                               : 0.0;
        table.addRow({std::to_string(jobs[i]),
                      TextTable::num(result.wall_seconds, 2),
                      TextTable::num(result.trialsPerSecond(), 2),
                      TextTable::num(speedup, 2) + "x"});
        artefact += "    {\"jobs\": " + std::to_string(jobs[i]) +
                    ", \"wall_seconds\": " +
                    jsonNum(result.wall_seconds) +
                    ", \"trials_per_second\": " +
                    jsonNum(result.trialsPerSecond()) +
                    ", \"speedup_vs_serial\": " + jsonNum(speedup) + "}";
        artefact += (i + 1 < jobs.size()) ? ",\n" : "\n";
    }
    artefact += "  ]\n}\n";

    std::cout << table.render();
    std::cout << "(all runs byte-identical across job counts)\n";
    bench::saveArtefact("BENCH_campaign.json", artefact);
    return 0;
}
