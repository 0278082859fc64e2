#include "sram/fingerprint_cache.hh"

#include <cstdlib>
#include <list>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "sim/rng.hh"
#include "telemetry/counters.hh"

namespace voltboot
{

namespace
{

/**
 * Default byte budget for cached planes: holds roughly a dozen
 * bcm2711-class dies — comfortably the reuse window of a sweep grid,
 * where the same seed recurs once per slower grid axis value — while
 * bounding memory on seed-heavy campaigns.
 */
constexpr size_t kDefaultCacheBytes = size_t{512} << 20;

/** VOLTBOOT_FINGERPRINT_CACHE_MB, or the default on unset/garbage. */
size_t
initialCapacityBytes()
{
    const char *env = std::getenv("VOLTBOOT_FINGERPRINT_CACHE_MB");
    if (!env || !*env)
        return kDefaultCacheBytes;
    char *end = nullptr;
    const unsigned long long mb = std::strtoull(env, &end, 10);
    if (end == env || *end != '\0')
        return kDefaultCacheBytes;
    return static_cast<size_t>(mb) << 20;
}

/** Key digests the first-build set holds before it starts over. At
 * 4 KiB of array per page, that spans 256 MiB of die. */
constexpr size_t kMaxFirstBuilds = size_t{1} << 16;

struct KeyHash
{
    size_t
    operator()(const FingerprintKey &k) const
    {
        uint64_t h = hashCombine(k.chip_seed, k.array_id);
        h = hashCombine(h, k.size_bytes);
        h = hashCombine(h, k.page);
        auto mix = [&](double d) {
            uint64_t bits;
            static_assert(sizeof(bits) == sizeof(d));
            __builtin_memcpy(&bits, &d, sizeof(bits));
            h = hashCombine(h, bits);
        };
        mix(k.metastable_fraction);
        mix(k.metastable_bias_min);
        mix(k.metastable_bias_max);
        return static_cast<size_t>(h);
    }
};

struct Cache
{
    std::mutex mutex;
    /** Most-recently-used at the front. */
    std::list<std::pair<FingerprintKey,
                        std::shared_ptr<const FingerprintPlanes>>>
        lru;
    std::unordered_map<FingerprintKey, decltype(lru)::iterator, KeyHash>
        index;
    /** Digests (KeyHash) of keys built once and not kept: a key is
     * admitted on its second build. */
    std::unordered_set<uint64_t> first_builds;
    size_t bytes = 0;
    size_t capacity = initialCapacityBytes();
    FingerprintCacheStats stats;
};

Cache &
cache()
{
    static Cache c;
    return c;
}

void
evictOverBudgetLocked(Cache &c)
{
    while (c.bytes > c.capacity && !c.lru.empty()) {
        auto &victim = c.lru.back();
        c.bytes -= victim.second->footprint();
        c.index.erase(victim.first);
        c.lru.pop_back();
        ++c.stats.evictions;
        telemetry::add(telemetry::Counter::FingerprintEvictions);
    }
}

} // namespace

std::shared_ptr<const FingerprintPlanes>
acquireFingerprintPlanes(const FingerprintKey &key,
                         const std::function<FingerprintPlanes()> &build)
{
    Cache &c = cache();
    {
        std::lock_guard<std::mutex> lock(c.mutex);
        if (auto it = c.index.find(key); it != c.index.end()) {
            ++c.stats.hits;
            telemetry::add(telemetry::Counter::FingerprintHits);
            c.lru.splice(c.lru.begin(), c.lru, it->second);
            return it->second->second;
        }
        ++c.stats.misses;
        telemetry::add(telemetry::Counter::FingerprintMisses);
    }
    // Build outside the lock: derivations are deterministic, so two
    // threads racing on the same key waste work but cannot disagree.
    auto planes = std::make_shared<const FingerprintPlanes>(build());
    std::lock_guard<std::mutex> lock(c.mutex);
    c.stats.derived_bytes += planes->fingerprint.sizeBytes();
    if (auto it = c.index.find(key); it != c.index.end())
        return it->second->second; // lost the race; share the winner's
    if (planes->footprint() > c.capacity) {
        // Bigger than the whole budget: inserting it would evict every
        // other entry and still get evicted itself — serve it uncached.
        ++c.stats.oversize;
        return planes;
    }
    // A die that never recurs (every seed of a fresh-chip sweep) would
    // only fill the budget: keep a page from its second build on.
    if (c.first_builds.size() == kMaxFirstBuilds)
        c.first_builds.clear();
    if (c.first_builds.insert(KeyHash{}(key)).second)
        return planes;
    c.lru.emplace_front(key, planes);
    c.index.emplace(key, c.lru.begin());
    c.bytes += planes->footprint();
    evictOverBudgetLocked(c);
    return planes;
}

FingerprintCacheStats
fingerprintCacheStats()
{
    Cache &c = cache();
    std::lock_guard<std::mutex> lock(c.mutex);
    FingerprintCacheStats s = c.stats;
    s.entries = c.index.size();
    s.bytes = c.bytes;
    s.capacity = c.capacity;
    return s;
}

void
setFingerprintCacheCapacity(size_t bytes)
{
    Cache &c = cache();
    std::lock_guard<std::mutex> lock(c.mutex);
    c.capacity = bytes;
    evictOverBudgetLocked(c);
}

void
clearFingerprintCache()
{
    Cache &c = cache();
    std::lock_guard<std::mutex> lock(c.mutex);
    c.lru.clear();
    c.index.clear();
    c.first_builds.clear();
    c.bytes = 0;
    c.stats = {};
}

} // namespace voltboot
