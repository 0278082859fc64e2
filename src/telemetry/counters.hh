/**
 * @file
 * Lock-free hot-path campaign counters.
 *
 * A running campaign is a black box without live numbers, but the
 * retention kernels advance hundreds of millions of cells per second —
 * any instrumentation that takes a lock, touches a shared cache line
 * per event, or allocates is out of the question. The scheme here:
 *
 *  - Each worker thread owns one cache-line-aligned CounterBlock of
 *    relaxed std::atomic<uint64_t> slots for the lifetime of a
 *    telemetry::WorkerScope. The thread is the *only writer* of its
 *    block; the sampler thread only does relaxed loads. A counter
 *    bump is therefore a single uncontended `lock add` on a line no
 *    other writer ever dirties.
 *  - Instrumented sites count at *kernel-invocation* granularity
 *    (one add per loss event or per page mask derived, not one per
 *    cell), so the hot loops themselves are untouched.
 *    bench/retention_microbench --overhead asserts the end-to-end cost
 *    stays under 2%.
 *  - Per-batch events inside sim/cell_hash_batch are too frequent even
 *    for an uncontended atomic; those bump plain (non-atomic)
 *    thread-local tallies (~two instructions) which the owning kernel
 *    drains into the atomic block once per invocation.
 *
 * The hot-path API (add / noteHashBatch / drainHashStats) is
 * header-only and depends on nothing, so the layers below trace —
 * sim, sram — can include it without a new library edge. When no
 * WorkerScope is installed on the thread every add() is one
 * thread-local load and a predictable branch. Registration and
 * aggregation (WorkerScope, totals(), the sampler) live in
 * counters.cc / monitor.cc in voltboot_telemetry.
 *
 * Counter values are wall-schedule facts (how much work this process
 * did, on which code path) and are explicitly **non-canonical**: they
 * never appear in trace files or campaign JSON/CSV records, only in
 * the live /metrics + heartbeat surfaces. See docs/TELEMETRY.md.
 *
 * The per-phase wall-clock tallies below are kept apart from the
 * counter blocks, whose values are clock-free.
 */

#ifndef VOLTBOOT_TELEMETRY_COUNTERS_HH
#define VOLTBOOT_TELEMETRY_COUNTERS_HH

#include <array>
#include <atomic>
#include <cstdint>

namespace voltboot
{
namespace telemetry
{

/** Every live counter the telemetry layer tracks. Append-only: the
 * slot order is the wire order of heartbeats and /metrics. */
enum class Counter : unsigned
{
    TrialsStarted,   ///< Trials a worker began executing.
    TrialsCompleted, ///< Trials that finished (any non-skipped status).
    TrialsFailed,    ///< Completed with status error / attack_failed.
    TrialsWon,       ///< Completed with status ok.
    TrialsSkipped,   ///< Marked skipped after an abort.
    CellsProcessed,  ///< Cells whose loss mask a kernel derived.
    KernelAvx512,    ///< Fast-kernel loss events, AVX-512 batch path.
    KernelScalar,    ///< Fast-kernel loss events, scalar batch path.
    KernelReference, ///< Reference (per-cell) kernel passes.
    HashBatches,     ///< sim/cell_hash_batch entry-point calls.
    HashLanes,       ///< Total lanes those calls produced.
    FingerprintHits, ///< Fingerprint-plane cache hits.
    FingerprintMisses,    ///< ... misses (plane derivations).
    FingerprintEvictions, ///< ... LRU evictions.
    ArenaBytes,      ///< Bytes of PlaneArena blocks allocated.
    KeyfindOffsets,  ///< Candidate schedule offsets the keyfind scan scored.
    KeyfindEarlyRejects, ///< Offsets the residual pre-filter rejected.
    KeyfindCorrections,  ///< Key-correction attempts entered.
    KeyfindCorrectionIters, ///< Local-search iterations across attempts.
    kCount
};

constexpr unsigned kCounterCount = static_cast<unsigned>(Counter::kCount);

/** Stable snake_case name of @p c (the /metrics + heartbeat key). */
const char *counterName(Counter c);

/**
 * One worker's counter slots. alignas(64) keeps blocks on their own
 * cache lines so one worker's adds never bounce another's line
 * (single-writer per block; the sampler only loads).
 */
struct alignas(64) CounterBlock
{
    std::atomic<uint64_t> slots[kCounterCount];
};

/** The current thread's block, or nullptr outside any WorkerScope. */
inline thread_local CounterBlock *tl_block = nullptr;

/** Add @p n to counter @p c on this thread's block; no-op (one
 * thread-local load + branch) when telemetry is not installed. */
inline void
add(Counter c, uint64_t n = 1)
{
    if (CounterBlock *b = tl_block)
        b->slots[static_cast<unsigned>(c)].fetch_add(
            n, std::memory_order_relaxed);
}

/** Plain (non-atomic) tallies for events too frequent even for an
 * uncontended atomic add. Bumped unconditionally — two instructions —
 * and drained into the atomic block by the owning kernel. */
struct HashStats
{
    uint64_t batches = 0;
    uint64_t lanes = 0;
};

inline thread_local HashStats tl_hash_stats;

/** One hash-batch entry point produced @p lanes values. */
inline void
noteHashBatch(unsigned lanes)
{
    ++tl_hash_stats.batches;
    tl_hash_stats.lanes += lanes;
}

/** Move the thread's accumulated hash-batch tallies into its counter
 * block (no-op without a WorkerScope; tallies then keep accruing until
 * the next WorkerScope opens and discards them). */
inline void
drainHashStats()
{
    if (tl_block == nullptr)
        return;
    HashStats &h = tl_hash_stats;
    if (h.batches) {
        add(Counter::HashBatches, h.batches);
        add(Counter::HashLanes, h.lanes);
        h = {};
    }
}

/** The timed attack steps. A phase's name is its trace span name and,
 * after `core.wall_s.`, its histogram name. */
enum class Phase : unsigned
{
    Steps12Probe,
    Step3PowerCycle,
    Step4Extract,
    ColdBootPowerCycle,
    Glitch,
    StaticExtract,
    kCount
};

constexpr unsigned kPhaseCount = static_cast<unsigned>(Phase::kCount);

/** Dotted name of @p p, e.g. "attack.step4_extract". */
inline const char *
phaseName(Phase p)
{
    static constexpr const char *kNames[kPhaseCount] = {
        "attack.steps12_probe", "attack.step3_power_cycle",
        "attack.step4_extract", "coldboot.power_cycle",
        "attack.glitch",        "attack.static_extract"};
    return kNames[static_cast<unsigned>(p)];
}

/** Wall-clock nanoseconds per phase. */
using PhaseTimes = std::array<uint64_t, kPhaseCount>;

/** This thread's time in each phase so far: plain tallies like
 * tl_hash_stats, read only by the owning thread as a difference around
 * a unit of work. */
inline thread_local PhaseTimes tl_phase_times{};

/** Seconds this thread spent in each phase since tl_phase_times read
 * @p before. */
inline std::array<double, kPhaseCount>
phaseSecondsSince(const PhaseTimes &before)
{
    std::array<double, kPhaseCount> s{};
    for (unsigned p = 0; p < kPhaseCount; ++p)
        s[p] = static_cast<double>(tl_phase_times[p] - before[p]) * 1e-9;
    return s;
}

/** Plain-value sum over every block ever handed out (live + retired
 * workers). Values are monotonically non-decreasing between resets. */
struct CounterTotals
{
    uint64_t v[kCounterCount] = {};

    uint64_t
    get(Counter c) const
    {
        return v[static_cast<unsigned>(c)];
    }
};

/** Relaxed-sum every registered block. Callable from any thread. */
CounterTotals totals();

/** Zero every block and the retired totals (tests / between
 * campaigns in one process). Not safe concurrently with workers. */
void resetCounters();

/**
 * RAII: install a counter block on the current thread. Blocks come
 * from a process-wide pool and survive the scope (their counts stay
 * visible in totals() after the worker exits); a later scope reuses a
 * pooled block and keeps adding to it, so totals stay monotonic.
 * Scopes nest — the previous block is restored on exit. On entry,
 * pending hash tallies go to the enclosing scope's block, or are
 * discarded when there is none.
 */
class WorkerScope
{
  public:
    WorkerScope();
    ~WorkerScope();
    WorkerScope(const WorkerScope &) = delete;
    WorkerScope &operator=(const WorkerScope &) = delete;

  private:
    CounterBlock *prev_;
};

} // namespace telemetry
} // namespace voltboot

#endif // VOLTBOOT_TELEMETRY_COUNTERS_HH
