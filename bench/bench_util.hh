/**
 * @file
 * Shared helpers for the bench harness binaries: banner printing, image
 * saving, and common victim setup, so each bench reads like the
 * experiment it reproduces.
 */

#ifndef VOLTBOOT_BENCH_BENCH_UTIL_HH
#define VOLTBOOT_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "sram/memory_image.hh"

namespace voltboot
{
namespace bench
{

/** @p values as a sweep-grid spec value list: "v1,v2,...". */
inline std::string
specList(const std::vector<double> &values)
{
    std::string out;
    for (const double v : values) {
        char buf[32];
        char *end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
        out += (out.empty() ? "" : ",") + std::string(buf, end);
    }
    return out;
}

/** @p v with three decimals, for BENCH_*.json artefacts. */
inline std::string
jsonNum(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

/** The flags of a throughput bench: one count, `--<flag> N` (at
 * least 1), and the worker counts to compare, `--jobs A,B,...`. */
struct BenchArgs
{
    uint64_t count;
    std::vector<unsigned> jobs;
};

/** Parse the flags of bench @p name over @p args' defaults, the count
 * under @p count_flag; a usage error exits 2. */
inline BenchArgs
parseBenchArgs(const std::string &name, const std::string &count_flag,
               BenchArgs args, int argc, char **argv)
{
    const auto usage = [&](const std::string &detail) {
        std::cerr << name << ": " << detail << "\nusage: " << name << " ["
                  << count_flag << " N] [--jobs A,B,...]\n";
        std::exit(2);
    };
    const auto number = [&](const std::string &flag,
                            const std::string &text) {
        uint64_t value = 0;
        const auto [ptr, ec] =
            std::from_chars(text.data(), text.data() + text.size(), value);
        if (ec != std::errc() || ptr != text.data() + text.size() ||
            text.empty())
            usage("malformed value '" + text + "' for " + flag);
        return value;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag != count_flag && flag != "--jobs")
            usage("unknown option " + flag);
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string text = argv[++i];
        if (flag == count_flag) {
            args.count = std::max<uint64_t>(1, number(flag, text));
            continue;
        }
        args.jobs.clear();
        for (size_t pos = 0; pos <= text.size();) {
            const size_t comma = std::min(text.find(',', pos), text.size());
            const uint64_t j = number(flag, text.substr(pos, comma - pos));
            if (j == 0)
                usage("--jobs entries must be >= 1");
            args.jobs.push_back(static_cast<unsigned>(j));
            pos = comma + 1;
        }
    }
    return args;
}

/**
 * Run @p grid at campaign seed @p seed once per worker count in
 * @p jobs and return the last result, raising @p best_tps to the best
 * trials/s seen. Returns nullopt, after an ERROR line, when a run's
 * JSON differs from the first run's.
 */
inline std::optional<CampaignResult>
runAtEachJobCount(const SweepGrid &grid, uint64_t seed,
                  const std::vector<unsigned> &jobs, double &best_tps)
{
    std::optional<CampaignResult> result;
    std::string baseline_json;
    for (const unsigned j : jobs) {
        CampaignConfig cfg;
        cfg.jobs = j;
        cfg.seed = seed;
        CampaignResult r = Campaign(grid, cfg).run();
        const std::string json = r.toJson();
        if (baseline_json.empty())
            baseline_json = json;
        else if (json != baseline_json) {
            std::cout << "ERROR: results differ from --jobs "
                      << jobs.front() << " run!\n";
            return std::nullopt;
        }
        best_tps = std::max(best_tps, r.trialsPerSecond());
        result = std::move(r);
    }
    return result;
}

/** Print the experiment banner: which artefact this regenerates. */
inline void
banner(const std::string &id, const std::string &title)
{
    std::cout << "==================================================="
                 "=============\n";
    std::cout << id << ": " << title << "\n";
    std::cout << "==================================================="
                 "=============\n";
}

/** Where bench image artefacts land. */
inline std::string
artefactDir()
{
    return "bench_artifacts";
}

/** Save @p content under bench_artifacts/, best effort. */
inline void
saveArtefact(const std::string &filename, const std::string &content)
{
    std::string dir = artefactDir();
    // Portable best-effort mkdir via std::filesystem would drag in more
    // headers than this needs; rely on the caller's cwd being writable.
    if (std::system(("mkdir -p " + dir).c_str()) != 0)
        std::cout << "  [artefact] mkdir failed for " << dir << "\n";
    std::ofstream out(dir + "/" + filename);
    if (out) {
        out << content;
        std::cout << "  [artefact] " << dir << "/" << filename << "\n";
    } else {
        std::cout << "  [artefact] could not write " << filename << "\n";
    }
}

/**
 * Render a coarse ASCII impression of a bit image (the paper's cache
 * snapshot figures): each character cell is the ones-density of an
 * 8x8-bit block: ' ' mostly 0s, '#' mostly 1s.
 */
inline std::string
asciiBitmap(const MemoryImage &img, size_t width_bits, size_t max_rows = 16)
{
    static const char *shades = " .:-=+*#";
    const size_t rows_total = img.sizeBits() / width_bits;
    const size_t block = 8;
    std::string out;
    for (size_t row = 0; row < rows_total / block && row < max_rows;
         ++row) {
        for (size_t col = 0; col < width_bits / block; ++col) {
            size_t ones = 0;
            for (size_t y = 0; y < block; ++y)
                for (size_t x = 0; x < block; ++x)
                    ones += img.bitAt((row * block + y) * width_bits +
                                      col * block + x);
            out += shades[(ones * 7) / (block * block)];
        }
        out += '\n';
    }
    return out;
}

} // namespace bench
} // namespace voltboot

#endif // VOLTBOOT_BENCH_BENCH_UTIL_HH
