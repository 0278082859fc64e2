/**
 * @file
 * A lightweight model of a Linux system under test — enough OS dynamics
 * to reproduce the paper's Table 4 and Figure 8.
 *
 * The paper's observation is architectural, not about Linux internals:
 * when a victim's working set approaches the L1 size, kernel background
 * activity evicts victim lines, so the fraction of the victim's data an
 * attacker recovers from the d-cache falls from 100% to ~90%. We model
 * exactly that mechanism: per-core victim processes stream over their
 * arrays through the real simulated caches while "kernel" accesses with a
 * configurable rate touch random lines in a separate kernel region.
 */

#ifndef VOLTBOOT_OS_LINUX_MODEL_HH
#define VOLTBOOT_OS_LINUX_MODEL_HH

#include <cstdint>
#include <vector>

#include "sim/rng.hh"
#include "soc/soc.hh"

namespace voltboot
{

/** Tunables of the OS contention model. */
struct LinuxModelConfig
{
    /**
     * Kernel/daemon accesses per victim access, per core. Expressing the
     * noise per victim access (rather than per pass) models wall-clock
     * fairly: a benchmark looping over a small array completes passes
     * proportionally faster, so each pass absorbs proportionally less
     * kernel interference. The default calibrates the Table 4 shape:
     * ~100% recovery below the cache size, ~10% loss at cache size.
     */
    double kernel_noise_per_victim_access = 0.025;
    /** Bytes of kernel working set the noise touches (per core). */
    size_t kernel_region_bytes = 256 * 1024;
    /**
     * Fraction of kernel accesses that land in a small hot set (timer
     * tick handlers, scheduler data): these mostly hit in the cache and
     * exert little eviction pressure. The cold remainder sweeps the full
     * kernel region and does the evicting. Real kernels are strongly
     * locality-dominated, which is why a 4 KB victim array survives at
     * 100% while a cache-sized one loses ~10% (Table 4).
     */
    double kernel_hot_fraction = 0.85;
    /** Size of the kernel's hot working set. */
    size_t kernel_hot_bytes = 8 * 1024;
    /** Victim passes over the array before the attack strikes. */
    size_t victim_passes = 12;
    /** RNG seed for scheduling noise. */
    uint64_t seed = 0x11eb;
};

/** Ground truth of one core's victim benchmark. */
struct VictimArray
{
    uint64_t base = 0;
    std::vector<uint64_t> elements; ///< 8-byte values written, in order.
};

/**
 * Drives victim + kernel memory traffic over a booted Soc.
 *
 * The caller powers the Soc on; boot() invalidates and enables the
 * caches the way a kernel would, then benchmark runs issue traffic.
 */
class LinuxModel
{
  public:
    LinuxModel(Soc &soc, LinuxModelConfig config = {});

    /** Kernel boot: invalidate stale tags, enable L1s on every core. */
    void boot();

    /**
     * Run the Section 7.1.2 microbenchmark on every core: each core's
     * process fills a private array of @p array_bytes with distinct
     * 8-byte elements and then loops over it while kernel noise runs.
     * Execution stops mid-pass at a pseudo-random point, which is when
     * the attacker pulls the plug. Returns per-core ground truth.
     */
    std::vector<VictimArray> runArrayBenchmark(size_t array_bytes);

    /**
     * Run a short real program (assembled vb64) on core @p core with the
     * caches enabled, so its instructions become i-cache-resident — used
     * for the Figure 8 "grep the i-cache for the app's code" check.
     */
    void runProgramOnCore(size_t core, const Program &program,
                          uint64_t max_steps = 2'000'000);

    /** Number of kernel noise accesses issued so far (diagnostics). */
    uint64_t noiseAccesses() const { return noise_count_; }

  private:
    void kernelNoise(size_t core, size_t count);

    Soc &soc_;
    LinuxModelConfig config_;
    Rng rng_;
    uint64_t noise_count_ = 0;
};

} // namespace voltboot

#endif // VOLTBOOT_OS_LINUX_MODEL_HH
