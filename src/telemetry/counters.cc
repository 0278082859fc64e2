#include "telemetry/counters.hh"

#include <memory>
#include <mutex>
#include <vector>

namespace voltboot
{
namespace telemetry
{

namespace
{

/**
 * Process-wide block pool. Blocks are handed to WorkerScopes and
 * returned (without zeroing) when the scope ends, so a block's counts
 * survive its worker and totals() stays monotonic across pool reuse.
 * Blocks are only ever freed at process exit.
 */
struct Pool
{
    std::mutex mutex;
    std::vector<std::unique_ptr<CounterBlock>> blocks;
    std::vector<CounterBlock *> free_list;
};

Pool &
pool()
{
    static Pool p;
    return p;
}

CounterBlock *
acquireBlock()
{
    Pool &p = pool();
    std::lock_guard<std::mutex> lock(p.mutex);
    if (!p.free_list.empty()) {
        CounterBlock *b = p.free_list.back();
        p.free_list.pop_back();
        return b;
    }
    p.blocks.push_back(std::make_unique<CounterBlock>());
    CounterBlock *b = p.blocks.back().get();
    for (auto &slot : b->slots)
        slot.store(0, std::memory_order_relaxed);
    return b;
}

void
releaseBlock(CounterBlock *b)
{
    Pool &p = pool();
    std::lock_guard<std::mutex> lock(p.mutex);
    p.free_list.push_back(b);
}

} // namespace

const char *
counterName(Counter c)
{
    switch (c) {
      case Counter::TrialsStarted: return "trials_started";
      case Counter::TrialsCompleted: return "trials_completed";
      case Counter::TrialsFailed: return "trials_failed";
      case Counter::TrialsWon: return "trials_won";
      case Counter::TrialsSkipped: return "trials_skipped";
      case Counter::CellsProcessed: return "cells_processed";
      case Counter::KernelAvx512: return "kernel_invocations_avx512";
      case Counter::KernelScalar: return "kernel_invocations_scalar";
      case Counter::KernelReference:
        return "kernel_invocations_reference";
      case Counter::HashBatches: return "hash_batches";
      case Counter::HashLanes: return "hash_lanes";
      case Counter::FingerprintHits: return "fingerprint_cache_hits";
      case Counter::FingerprintMisses:
        return "fingerprint_cache_misses";
      case Counter::FingerprintEvictions:
        return "fingerprint_cache_evictions";
      case Counter::ArenaBytes: return "plane_arena_bytes";
      case Counter::KeyfindOffsets: return "keyfind_offsets_scanned";
      case Counter::KeyfindEarlyRejects:
        return "keyfind_early_rejects";
      case Counter::KeyfindCorrections: return "keyfind_corrections";
      case Counter::KeyfindCorrectionIters:
        return "keyfind_correction_iterations";
      case Counter::kCount: break;
    }
    return "?";
}

CounterTotals
totals()
{
    CounterTotals t;
    Pool &p = pool();
    std::lock_guard<std::mutex> lock(p.mutex);
    for (const auto &block : p.blocks)
        for (unsigned i = 0; i < kCounterCount; ++i)
            t.v[i] += block->slots[i].load(std::memory_order_relaxed);
    return t;
}

void
resetCounters()
{
    Pool &p = pool();
    std::lock_guard<std::mutex> lock(p.mutex);
    for (const auto &block : p.blocks)
        for (auto &slot : block->slots)
            slot.store(0, std::memory_order_relaxed);
}

WorkerScope::WorkerScope() : prev_(tl_block)
{
    // Hash tallies accrued before this scope belong to the enclosing
    // scope if there is one, and to no scope otherwise: never to the
    // first unit of work this one runs.
    drainHashStats();
    tl_hash_stats = {};
    tl_block = acquireBlock();
}

WorkerScope::~WorkerScope()
{
    // Pick up any hash tallies the last kernel left behind before the
    // block goes back to the pool.
    drainHashStats();
    releaseBlock(tl_block);
    tl_block = prev_;
}

} // namespace telemetry
} // namespace voltboot
