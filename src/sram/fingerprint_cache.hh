/**
 * @file
 * Process-wide cache of per-page power-up planes.
 *
 * Everything a MemoryArray derives for a page of cells when the page
 * is first needed — the stable power-up fingerprint, the metastable
 * mask and the fully resolved first-power-on contents — is a pure
 * function of the die identity (chip seed, array id, array size,
 * metastable calibration) and the page index. Campaign trials
 * construct a fresh Soc per trial, and sweep grids deliberately reuse
 * dies across attack kinds, so without a cache every trial would
 * re-hash the pages an earlier trial already derived. This cache
 * shares them: keyed by the exact inputs of the derivation, immutable
 * once built, LRU-evicted under a configurable byte budget, and safe
 * to share across campaign worker threads (values are deterministic,
 * so a cache hit can never change simulation output). Hits and misses
 * count pages; a miss is any build.
 *
 * A page is admitted on its second build. The first build of a key
 * only records its 64-bit digest in a bounded set (cleared with the
 * cache, and when full), so a die that never recurs — every seed of a
 * fresh-chip sweep — costs a digest per page instead of 12 KiB of
 * planes. In a `seeds=N` grid a die recurs every N trials, and from
 * then on it hits as before.
 *
 * The budget is bytes, so it bounds memory directly (a page costs
 * three 4 KiB planes). It defaults to 512 MB and is settable via the
 * VOLTBOOT_FINGERPRINT_CACHE_MB environment variable (read once at
 * first use; 0 disables caching entirely) or
 * setFingerprintCacheCapacity() (tests/embedders, takes effect
 * immediately). Entries whose own footprint exceeds the budget are
 * handed to the caller but never inserted — an entry bigger than the
 * whole cache would otherwise evict everything else and then be
 * evicted itself on the next insert, thrashing the cache without ever
 * producing a hit.
 */

#ifndef VOLTBOOT_SRAM_FINGERPRINT_CACHE_HH
#define VOLTBOOT_SRAM_FINGERPRINT_CACHE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/plane_arena.hh"

namespace voltboot
{

/**
 * Immutable power-up planes of one page of a die's array (see
 * MemoryArray): bit-packed word planes carved out of one embedded
 * arena, so the whole structure moves as a unit and its footprint is
 * one number. The BitPlane views stay valid for the life of the
 * FingerprintPlanes (arena lifetime rule, see sim/plane_arena.hh); the
 * cache shares them behind shared_ptr<const ...> so a consumer can
 * never outlive its planes.
 */
struct FingerprintPlanes
{
    /** Backing storage for every plane below. */
    PlaneArena arena;
    /** Stable power-up state per cell (metastable cells' bits here are
     * their intrinsic power_up_bit; re-rolls overwrite them). */
    BitPlane fingerprint;
    /** Bit mask of metastable cells. */
    BitPlane metastable_mask;
    /** Page contents after the first power-on (nonce-1 metastable
     * draws applied) — the state every fresh trial starts from. */
    BitPlane initial_bits;
    /** Heap footprint, for the cache byte budget. */
    size_t
    footprint() const
    {
        return arena.bytesReserved();
    }
};

/** Identity of a derivation: every input the planes depend on. */
struct FingerprintKey
{
    uint64_t chip_seed = 0;
    uint64_t array_id = 0;
    uint64_t size_bytes = 0;
    /** Page index (MemoryArray::kPageBytes of array bytes each). */
    uint64_t page = 0;
    double metastable_fraction = 0.0;
    double metastable_bias_min = 0.0;
    double metastable_bias_max = 0.0;

    bool operator==(const FingerprintKey &other) const = default;
};

/**
 * Return the cached planes for @p key, building them with @p build on a
 * miss. Thread-safe. The returned pointer stays valid for the caller's
 * lifetime even if the entry is evicted (or was never inserted because
 * it exceeds the byte budget).
 */
std::shared_ptr<const FingerprintPlanes>
acquireFingerprintPlanes(const FingerprintKey &key,
                         const std::function<FingerprintPlanes()> &build);

/** Cache observability (tests, diagnostics). */
struct FingerprintCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    /** Builds too large for the budget, served uncached. */
    uint64_t oversize = 0;
    /** Array bytes covered by every page built (one per miss). */
    uint64_t derived_bytes = 0;
    uint64_t entries = 0;
    uint64_t bytes = 0;
    /** Current byte budget. */
    uint64_t capacity = 0;
};

FingerprintCacheStats fingerprintCacheStats();

/**
 * Override the byte budget (takes effect immediately; evicts down to
 * the new budget). Supersedes VOLTBOOT_FINGERPRINT_CACHE_MB.
 */
void setFingerprintCacheCapacity(size_t bytes);

/** Drop every cached entry and reset the counters (tests). The
 * capacity is left as configured. */
void clearFingerprintCache();

} // namespace voltboot

#endif // VOLTBOOT_SRAM_FINGERPRINT_CACHE_HH
