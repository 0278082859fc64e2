/**
 * @file
 * Shared helpers for the bench harness binaries: banner printing, image
 * saving, and common victim setup, so each bench reads like the
 * experiment it reproduces.
 */

#ifndef VOLTBOOT_BENCH_BENCH_UTIL_HH
#define VOLTBOOT_BENCH_BENCH_UTIL_HH

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

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
