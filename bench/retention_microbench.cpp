/**
 * @file
 * P3 — retention hot-path throughput (BENCH_retention.json artefact)
 * and the SoA plane-size scaling curve (BENCH_plane.json artefact).
 *
 * Times the three state transitions the attack stack spends its life
 * in — full power-up resolution, unpowered decay, and a supply droop —
 * under each retention kernel (reference scalar path, fast threshold
 * path), reporting cells/sec and the speedup over the reference path.
 * The kernels are bit-exact by construction; this bench re-asserts it
 * by comparing every final snapshot and loss count against the
 * reference run before reporting. Every timed iteration reads the
 * whole array back, so deferred per-page work is timed too; both
 * artefacts say so as "method": "readback", which keys their
 * tools/bench_history.py series.
 *
 * With --sizes the bench instead sweeps the bit-sliced plane kernels
 * across array sizes (64 KiB to 256 MiB is the intended curve) and
 * writes BENCH_plane.json. The reference kernel is only timed and
 * byte-compared in full at small sizes (it is ~100x slower, so a
 * 256 MiB reference run would dominate the bench); at larger sizes
 * correctness is asserted by re-deriving a deterministic sample of
 * cells with the exact scalar model math and comparing against the
 * fast-kernel plane. Every size also runs the same transition on
 * --jobs concurrent threads (shared fingerprint cache) and asserts the
 * snapshots are byte-identical across threads.
 *
 * With --overhead the bench instead times the decay transition with and
 * without a telemetry::WorkerScope installed (interleaved rounds,
 * best-of-N each side) and fails when the instrumented side is more
 * than --overhead-threshold slower — the guard that keeps the live
 * counter instrumentation honest (BENCH_overhead.json artefact).
 *
 * Flags:
 *   --bytes N     array size in bytes       (default 262144)
 *   --reps N      timed repetitions         (default 8)
 *   --sizes A,B   plane-scaling mode over the listed sizes (bytes)
 *   --jobs N      threads for the cross-thread identity check (default 2)
 *   --overhead    counter-overhead guard mode (decay kernel)
 *   --overhead-rounds N      interleaved rounds per side (default 7)
 *   --overhead-threshold F   max allowed slowdown fraction (default 0.02)
 *   --smoke       CI preset: small array, few reps
 */

#include <charconv>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "core/analysis.hh"
#include "sram/fingerprint_cache.hh"
#include "sram/memory_array.hh"
#include "sram/retention_kernel.hh"
#include "telemetry/counters.hh"

using namespace voltboot;

namespace
{

constexpr uint64_t kBenchSeed = 0x7e57;
constexpr uint64_t kBenchArrayId = 3;
constexpr uint8_t kFillPattern = 0xA5;
const Volt kVdd(1.0);
const Seconds kDecayOff = Seconds::milliseconds(20);
const Temperature kDecayTemp = Temperature::celsius(-110);
const Volt kDroopV = Volt::millivolts(250);

/** Largest size at which the reference kernel is timed and compared in
 * full; beyond this the sampled scalar check takes over. */
constexpr size_t kFullReferenceMaxBytes = size_t{1} << 20;

/** Cells per sampled verification pass. */
constexpr uint64_t kSampleCells = 4096;

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
    std::cerr << "retention_microbench: " << detail << "\n"
              << "usage: retention_microbench [--bytes N] [--reps N] "
                 "[--sizes A,B,...] [--jobs N] [--overhead] "
                 "[--overhead-rounds N] [--overhead-threshold F] "
                 "[--smoke]\n";
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

double
parseFraction(const std::string &flag, const std::string &text)
{
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || ptr != text.data() + text.size() ||
        text.empty() || value <= 0.0 || value >= 1.0)
        usageFatal("malformed fraction '" + text + "' for " + flag +
                   " (want a value in (0, 1))");
    return value;
}

std::vector<size_t>
parseSizeList(const std::string &flag, const std::string &text)
{
    std::vector<size_t> sizes;
    size_t pos = 0;
    while (pos <= text.size()) {
        const size_t comma = text.find(',', pos);
        const std::string part =
            text.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        sizes.push_back(parseUint(flag, part));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return sizes;
}

/** RAII: select a kernel, restore the previous one on scope exit. */
class KernelScope
{
  public:
    explicit KernelScope(RetentionKernel k) : saved_(retentionKernel())
    {
        setRetentionKernel(k);
    }
    ~KernelScope() { setRetentionKernel(saved_); }

  private:
    RetentionKernel saved_;
};

struct ScenarioRun
{
    double seconds = 0.0;
    uint64_t last_lost = 0;
    std::vector<uint8_t> snapshot;
};

/**
 * One timed scenario under the currently selected kernel. The array is
 * rebuilt per run (same seed => same silicon) and run once untimed
 * before the timed repetitions. Every iteration ends by reading the
 * whole array back, so the pages the fast kernel leaves pending are
 * resolved inside the timed region, not after it.
 */
ScenarioRun
runScenario(const std::string &scenario, size_t bytes, unsigned reps)
{
    SramArray array("bench", bytes, kBenchSeed, kBenchArrayId);
    array.powerUp(kVdd);
    array.fill(kFillPattern);
    std::vector<uint8_t> readout(bytes);

    const auto iteration = [&]() {
        if (scenario == "powerup_resolve") {
            array.powerDown();
            array.powerUp(kVdd); // everything resolves to fingerprint
        } else if (scenario == "decay_survival") {
            array.powerDown();
            array.powerUp(kVdd, kDecayOff, kDecayTemp);
        } else { // droop
            array.droopTo(kDroopV);
        }
        array.read(0, readout);
    };

    iteration(); // warm-up
    ScenarioRun run;
    const auto t0 = std::chrono::steady_clock::now();
    for (unsigned r = 0; r < reps; ++r)
        iteration();
    const auto t1 = std::chrono::steady_clock::now();
    run.seconds = std::chrono::duration<double>(t1 - t0).count();
    run.last_lost = array.lastCellsLost();
    run.snapshot = array.snapshot();
    return run;
}

/** Snapshot after one single decay (or droop) transition from a filled
 * array — the state the sampled scalar check predicts per cell. */
std::vector<uint8_t>
singleTransitionSnapshot(const std::string &scenario, size_t bytes)
{
    SramArray array("plane", bytes, kBenchSeed, kBenchArrayId);
    array.powerUp(kVdd); // nonce 1
    array.fill(kFillPattern);
    if (scenario == "decay_survival") {
        array.powerDown();
        array.powerUp(kVdd, kDecayOff, kDecayTemp); // nonce 2
    } else {
        array.droopTo(kDroopV); // still nonce 1
    }
    return array.snapshot();
}

/**
 * Verify a deterministic stride of cells of a fast-kernel single
 * transition against the exact scalar model math (cellParams +
 * survives* + powerUpState) — the same per-cell evaluation the
 * reference kernel runs, without paying a full-array reference pass.
 */
bool
sampledVerify(const std::string &scenario, size_t bytes)
{
    const std::vector<uint8_t> snap =
        singleTransitionSnapshot(scenario, bytes);
    const RetentionModel model(RetentionConfig::sram6t(),
                               CellRng(kBenchSeed, kBenchArrayId));
    const uint64_t nbits = static_cast<uint64_t>(bytes) * 8;
    const uint64_t stride = std::max<uint64_t>(1, nbits / kSampleCells);
    const bool decay = scenario == "decay_survival";
    const uint64_t nonce = decay ? 2 : 1;
    for (uint64_t cell = 0; cell < nbits; cell += stride) {
        const CellParams p = model.cellParams(cell);
        const bool survives =
            decay ? model.survivesUnpowered(p, kDecayOff, kDecayTemp)
                  : model.survivesAtVoltage(p, kDroopV);
        const bool pattern = (kFillPattern >> (cell % 8)) & 1;
        const bool expected =
            survives ? pattern : model.powerUpState(cell, p, nonce);
        const bool got = (snap[cell / 8] >> (cell % 8)) & 1;
        if (got != expected) {
            std::cout << "ERROR: sampled scalar check failed at cell "
                      << cell << " (" << scenario << ", " << bytes
                      << " bytes)\n";
            return false;
        }
    }
    return true;
}

/** Run the decay transition on @p jobs concurrent threads (shared
 * fingerprint cache) and require byte-identical snapshots. */
bool
crossJobsIdentical(size_t bytes, unsigned jobs)
{
    std::vector<std::vector<uint8_t>> snaps(jobs);
    std::vector<std::thread> threads;
    threads.reserve(jobs);
    for (unsigned j = 0; j < jobs; ++j)
        threads.emplace_back([&, j] {
            snaps[j] = singleTransitionSnapshot("decay_survival", bytes);
        });
    for (auto &t : threads)
        t.join();
    for (unsigned j = 1; j < jobs; ++j) {
        if (snaps[j] != snaps[0]) {
            std::cout << "ERROR: thread " << j
                      << " snapshot diverges at " << bytes << " bytes\n";
            return false;
        }
    }
    return true;
}

/**
 * Counter-overhead guard: time the decay transition under the fast
 * kernel with and without a telemetry::WorkerScope installed. Rounds
 * interleave the two sides so frequency drift hits both equally, and
 * each side keeps its *minimum* round time — the noise-robust estimator
 * for "how fast can this code go". Fails when the instrumented minimum
 * is more than @p threshold slower (one-sided: instrumented being
 * faster is measurement noise, never a failure).
 */
int
runOverheadGuard(size_t bytes, unsigned reps, unsigned rounds,
                 double threshold)
{
    bench::banner("P3c", "telemetry counter overhead (decay kernel)");
    std::cout << "array: " << bytes << " bytes, " << reps
              << " reps per round, best of " << rounds
              << " interleaved rounds, threshold "
              << jsonNum(threshold * 100) << "%\n\n";

    KernelScope scope(RetentionKernel::Fast);
    runScenario("decay_survival", bytes, reps); // warm fingerprint cache

    double plain_s = 0.0, instr_s = 0.0;
    std::vector<uint8_t> plain_snap, instr_snap;
    for (unsigned r = 0; r < rounds; ++r) {
        const ScenarioRun plain =
            runScenario("decay_survival", bytes, reps);
        if (r == 0 || plain.seconds < plain_s)
            plain_s = plain.seconds;
        plain_snap = plain.snapshot;

        telemetry::WorkerScope telemetry_scope;
        const ScenarioRun instr =
            runScenario("decay_survival", bytes, reps);
        if (r == 0 || instr.seconds < instr_s)
            instr_s = instr.seconds;
        instr_snap = instr.snapshot;
    }
    if (instr_snap != plain_snap) {
        std::cout << "ERROR: instrumented run diverges from plain run!\n";
        return 1;
    }

    const double cells = static_cast<double>(bytes) * 8.0 * reps;
    const double plain_cps = plain_s > 0.0 ? cells / plain_s : 0.0;
    const double instr_cps = instr_s > 0.0 ? cells / instr_s : 0.0;
    const double overhead =
        plain_s > 0.0 ? (instr_s - plain_s) / plain_s : 0.0;
    const bool pass = overhead <= threshold;

    TextTable table({"side", "seconds", "cells/s"});
    table.addRow({"uninstrumented", jsonNum(plain_s),
                  TextTable::num(plain_cps / 1e6, 1) + "M"});
    table.addRow({"instrumented", jsonNum(instr_s),
                  TextTable::num(instr_cps / 1e6, 1) + "M"});
    std::cout << table.render();
    std::cout << "overhead: " << jsonNum(overhead * 100) << "% ("
              << (pass ? "PASS" : "FAIL") << ", limit "
              << jsonNum(threshold * 100) << "%)\n";

    std::string artefact =
        "{\n  \"bench\": \"telemetry_overhead\",\n"
        "  \"scenario\": \"decay_survival\",\n"
        "  \"bytes\": " + std::to_string(bytes) +
        ",\n  \"reps\": " + std::to_string(reps) +
        ",\n  \"rounds\": " + std::to_string(rounds) +
        ",\n  \"uninstrumented_seconds\": " + jsonNum(plain_s) +
        ",\n  \"instrumented_seconds\": " + jsonNum(instr_s) +
        ",\n  \"uninstrumented_cells_per_second\": " + jsonNum(plain_cps) +
        ",\n  \"instrumented_cells_per_second\": " + jsonNum(instr_cps) +
        ",\n  \"overhead_fraction\": " + jsonNum(overhead) +
        ",\n  \"threshold\": " + jsonNum(threshold) +
        ",\n  \"pass\": " + (pass ? "true" : "false") + "\n}\n";
    bench::saveArtefact("BENCH_overhead.json", artefact);
    return pass ? 0 : 1;
}

int
runPlaneScaling(const std::vector<size_t> &sizes, unsigned reps,
                unsigned jobs)
{
    bench::banner("P3b", "SoA plane-size scaling (cells/sec vs bytes)");
    std::cout << "sizes:";
    for (size_t s : sizes)
        std::cout << " " << s;
    std::cout << "  reps: " << reps << "  jobs: " << jobs << "\n\n";

    // Keep the shared power-up planes of the largest die cached so
    // per-scenario array rebuilds don't re-derive them inside the
    // bench loop (three bit planes per die = 3 * bytes).
    size_t max_bytes = 0;
    for (size_t s : sizes)
        max_bytes = std::max(max_bytes, s);
    setFingerprintCacheCapacity(
        std::max<size_t>(size_t{512} << 20, 4 * 3 * max_bytes));

    const char *scenarios[] = {"powerup_resolve", "decay_survival",
                               "droop"};
    TextTable table(
        {"bytes", "scenario", "kernel", "cells/s", "vs ref", "verify"});
    std::string artefact = "{\n  \"bench\": \"plane_scaling\",\n"
                           "  \"method\": \"readback\",\n"
                           "  \"reps\": " +
                           std::to_string(reps) +
                           ",\n  \"jobs\": " + std::to_string(jobs) +
                           ",\n  \"sizes\": [\n";
    bool first_size = true;
    for (size_t bytes : sizes) {
        const bool full_ref = bytes <= kFullReferenceMaxBytes;
        artefact += std::string(first_size ? "" : ",\n") +
                    "    {\"bytes\": " + std::to_string(bytes) +
                    ", \"verify\": \"" +
                    (full_ref ? "full" : "sampled") +
                    "\", \"scenarios\": [\n";
        first_size = false;
        bool first_scenario = true;
        for (const char *scenario : scenarios) {
            artefact += std::string(first_scenario ? "" : ",\n") +
                        "      {\"scenario\": \"" + scenario +
                        "\", \"kernels\": [\n";
            first_scenario = false;
            ScenarioRun reference;
            bool first_kernel = true;
            for (RetentionKernel kernel :
                 {RetentionKernel::Reference, RetentionKernel::Fast}) {
                if (kernel == RetentionKernel::Reference && !full_ref)
                    continue;
                KernelScope scope(kernel);
                const ScenarioRun run =
                    runScenario(scenario, bytes, reps);
                if (kernel == RetentionKernel::Reference) {
                    reference = run;
                } else if (full_ref &&
                           (run.snapshot != reference.snapshot ||
                            run.last_lost != reference.last_lost)) {
                    std::cout << "ERROR: " << toString(kernel)
                              << " diverges from reference on "
                              << scenario << " at " << bytes
                              << " bytes!\n";
                    return 1;
                }
                const double cells_per_sec =
                    run.seconds > 0.0
                        ? static_cast<double>(bytes) * 8.0 * reps /
                              run.seconds
                        : 0.0;
                const double ref_cps =
                    full_ref && reference.seconds > 0.0
                        ? static_cast<double>(bytes) * 8.0 * reps /
                              reference.seconds
                        : 0.0;
                const double speedup =
                    ref_cps > 0.0 ? cells_per_sec / ref_cps : 0.0;
                table.addRow(
                    {std::to_string(bytes), scenario, toString(kernel),
                     TextTable::num(cells_per_sec / 1e6, 1) + "M",
                     full_ref ? TextTable::num(speedup, 1) + "x" : "-",
                     full_ref ? "full" : "sampled"});
                artefact +=
                    std::string(first_kernel ? "" : ",\n") +
                    "        {\"kernel\": \"" + toString(kernel) +
                    "\", \"seconds\": " + jsonNum(run.seconds) +
                    ", \"cells_per_second\": " + jsonNum(cells_per_sec) +
                    ", \"speedup_vs_reference\": " +
                    (full_ref && kernel != RetentionKernel::Reference
                         ? jsonNum(speedup)
                         : std::string("null")) +
                    "}";
                first_kernel = false;
            }
            // Large planes: the reference never ran in full, so check a
            // deterministic sample against the exact scalar math.
            bool verified = true;
            if (!full_ref &&
                std::string(scenario) != "powerup_resolve") {
                KernelScope scope(RetentionKernel::Fast);
                verified = sampledVerify(scenario, bytes);
                if (!verified)
                    return 1;
            }
            artefact += "\n      ], \"verified\": ";
            artefact += verified ? "true" : "false";
            artefact += "}";
        }
        bool jobs_ok = true;
        {
            KernelScope scope(RetentionKernel::Fast);
            jobs_ok = crossJobsIdentical(bytes, jobs);
            if (!jobs_ok)
                return 1;
        }
        artefact += "\n    ], \"cross_jobs_identical\": ";
        artefact += jobs_ok ? "true" : "false";
        artefact += "}";
    }
    artefact += "\n  ]\n}\n";

    std::cout << table.render();
    std::cout << "(small sizes byte-compared against the reference "
                 "kernel in full;\n large sizes checked against exact "
                 "scalar math on a "
              << kSampleCells << "-cell sample;\n every size "
              << "byte-identical across " << jobs
              << " concurrent threads)\n";
    bench::saveArtefact("BENCH_plane.json", artefact);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    size_t bytes = 256 * 1024;
    unsigned reps = 8;
    unsigned jobs = 2;
    bool overhead = false;
    unsigned overhead_rounds = 7;
    double overhead_threshold = 0.02;
    std::vector<size_t> sizes;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usageFatal("missing value for " + flag);
            return argv[++i];
        };
        if (flag == "--bytes")
            bytes = parseUint(flag, value());
        else if (flag == "--reps")
            reps = static_cast<unsigned>(parseUint(flag, value()));
        else if (flag == "--sizes")
            sizes = parseSizeList(flag, value());
        else if (flag == "--jobs")
            jobs = static_cast<unsigned>(parseUint(flag, value()));
        else if (flag == "--overhead")
            overhead = true;
        else if (flag == "--overhead-rounds")
            overhead_rounds =
                static_cast<unsigned>(parseUint(flag, value()));
        else if (flag == "--overhead-threshold")
            overhead_threshold = parseFraction(flag, value());
        else if (flag == "--smoke") {
            bytes = 16 * 1024;
            reps = 2;
        } else {
            usageFatal("unknown option " + flag);
        }
    }
    if (bytes == 0 || reps == 0 || jobs == 0)
        usageFatal("--bytes, --reps and --jobs must be >= 1");
    if (overhead_rounds == 0)
        usageFatal("--overhead-rounds must be >= 1");
    for (size_t s : sizes)
        if (s == 0)
            usageFatal("--sizes entries must be >= 1");
    if (overhead && !sizes.empty())
        usageFatal("--overhead and --sizes are mutually exclusive");

    if (overhead)
        return runOverheadGuard(bytes, reps, overhead_rounds,
                                overhead_threshold);
    if (!sizes.empty())
        return runPlaneScaling(sizes, reps, jobs);

    bench::banner("P3", "retention kernel throughput (cells/sec)");
    std::cout << "array: " << bytes << " bytes (" << bytes * 8
              << " cells), " << reps << " reps per scenario\n\n";

    const RetentionKernel kernels[] = {RetentionKernel::Reference,
                                       RetentionKernel::Fast};
    const char *scenarios[] = {"powerup_resolve", "decay_survival",
                               "droop"};

    std::string artefact = "{\n  \"bench\": \"retention_microbench\",\n"
                           "  \"method\": \"readback\",\n"
                           "  \"bytes\": " +
                           std::to_string(bytes) +
                           ",\n  \"reps\": " + std::to_string(reps) +
                           ",\n  \"scenarios\": [\n";
    TextTable table({"scenario", "kernel", "cells/s", "speedup vs ref"});
    bool first_scenario = true;
    for (const char *scenario : scenarios) {
        artefact += std::string(first_scenario ? "" : ",\n") +
                    "    {\"scenario\": \"" + scenario +
                    "\", \"kernels\": [\n";
        first_scenario = false;
        ScenarioRun reference;
        bool first_kernel = true;
        for (RetentionKernel kernel : kernels) {
            KernelScope scope(kernel);
            const ScenarioRun run = runScenario(scenario, bytes, reps);
            if (kernel == RetentionKernel::Reference) {
                reference = run;
            } else if (run.snapshot != reference.snapshot ||
                       run.last_lost != reference.last_lost) {
                std::cout << "ERROR: " << toString(kernel)
                          << " diverges from reference on " << scenario
                          << "!\n";
                return 1;
            }
            const double cells_per_sec =
                run.seconds > 0.0
                    ? static_cast<double>(bytes) * 8.0 * reps /
                          run.seconds
                    : 0.0;
            const double ref_cps =
                reference.seconds > 0.0
                    ? static_cast<double>(bytes) * 8.0 * reps /
                          reference.seconds
                    : 0.0;
            const double speedup =
                ref_cps > 0.0 ? cells_per_sec / ref_cps : 0.0;
            table.addRow({scenario, toString(kernel),
                          TextTable::num(cells_per_sec / 1e6, 1) + "M",
                          TextTable::num(speedup, 1) + "x"});
            artefact += std::string(first_kernel ? "" : ",\n") +
                        "      {\"kernel\": \"" + toString(kernel) +
                        "\", \"seconds\": " + jsonNum(run.seconds) +
                        ", \"cells_per_second\": " +
                        jsonNum(cells_per_sec) +
                        ", \"speedup_vs_reference\": " +
                        jsonNum(speedup) + "}";
            first_kernel = false;
        }
        artefact += "\n    ]}";
    }
    artefact += "\n  ]\n}\n";

    std::cout << table.render();
    std::cout << "(all kernels byte-identical per scenario)\n";
    bench::saveArtefact("BENCH_retention.json", artefact);
    return 0;
}
