/**
 * @file
 * Set-associative write-back cache backed by simulated SRAM arrays.
 *
 * Both the data RAM and the tag RAM are MemoryArray instances, so they
 * obey retention physics: a power cycle without a probe scrambles them; a
 * probe-held power cycle preserves them bit-for-bit. Architectural
 * properties the paper leans on are modelled faithfully:
 *
 *  - Clean/invalidate operations only clear valid bits in the tag RAM;
 *    the data RAM keeps its contents (Section 5.2.4). The only way to
 *    erase L1 data RAM from software is DC ZVA line zeroing.
 *  - After power-on the tag RAM holds garbage, so boot software must
 *    invalidate before enabling the cache — and an attacker simply never
 *    enables it, preserving the previous owner's data for RAMINDEX reads.
 *  - Lines can be locked (CaSE-style) so neither the kernel nor other
 *    processes can evict secret-holding lines.
 *  - Each line carries a TrustZone NS bit checked by the debug interface
 *    when TZ enforcement is enabled (a Section 8 countermeasure).
 */

#ifndef VOLTBOOT_MEM_CACHE_HH
#define VOLTBOOT_MEM_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sram/memory_array.hh"
#include "sram/memory_image.hh"

namespace voltboot
{

/**
 * Next-level interface a cache fills from and writes back to. An
 * enabled cache moves whole lines; a disabled one passes each 64-bit
 * word straight through.
 */
class LineBacking
{
  public:
    virtual ~LineBacking() = default;
    virtual void readLine(uint64_t line_addr, std::span<uint8_t> out) = 0;
    virtual void writeLine(uint64_t line_addr,
                           std::span<const uint8_t> data) = 0;
    virtual uint64_t readWord(uint64_t addr) = 0;
    virtual void writeWord(uint64_t addr, uint64_t value) = 0;
};

/**
 * Victim-selection policy. Real parts differ: the Cortex-A72 L1D is
 * (pseudo-)LRU while the A53 and A8 use pseudo-random replacement — which
 * changes how kernel noise displaces victim lines in Table 4-style
 * experiments.
 */
enum class ReplacementPolicy
{
    Lru,        ///< Least-recently-used (Cortex-A72 style).
    RoundRobin, ///< Cyclic per-set pointer.
    Random,     ///< LFSR-driven pseudo-random (Cortex-A53/A8 style).
};

const char *toString(ReplacementPolicy policy);

/** Geometry of one cache. */
struct CacheGeometry
{
    size_t size_bytes = 32 * 1024;
    size_t ways = 2;
    size_t line_bytes = 64;
    ReplacementPolicy policy = ReplacementPolicy::Lru;

    size_t
    sets() const
    {
        // Degenerate shapes yield 0 so construction can report the error
        // instead of dividing by zero in a member initializer.
        const size_t denom = ways * line_bytes;
        return denom ? size_bytes / denom : 0;
    }
};

/** Access statistics. */
struct CacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t writebacks = 0;
};

/**
 * One level of cache. The SoC owns the backing SRAM arrays and attaches
 * them to a power domain; the cache only manipulates their contents.
 */
class Cache
{
  public:
    /** Tag-entry flag bits (byte 6 of each 8-byte tag entry). */
    static constexpr uint64_t kFlagValid = 1ull << 48;
    static constexpr uint64_t kFlagDirty = 1ull << 49;
    static constexpr uint64_t kFlagLocked = 1ull << 50;
    static constexpr uint64_t kFlagNonSecure = 1ull << 51;

    /**
     * @param name      e.g. "core0.L1D".
     * @param geometry  Size/ways/line.
     * @param data_ram  Backing SRAM for cached data (size_bytes big).
     * @param tag_ram   Backing SRAM for tags (8 bytes per line).
     * @param backing   Next level (L2 or memory); may be null for caches
     *                  only exercised via debug ports.
     */
    Cache(std::string name, CacheGeometry geometry, MemoryArray &data_ram,
          MemoryArray &tag_ram, LineBacking *backing);

    const std::string &name() const { return name_; }
    const CacheGeometry &geometry() const { return geom_; }
    const CacheStats &stats() const { return stats_; }
    void clearStats() { stats_ = CacheStats{}; }

    /** Required tag-RAM bytes for @p geometry. */
    static size_t tagRamBytes(const CacheGeometry &geometry);

    bool enabled() const { return enabled_; }
    /** Software cache enable (SCTLR C/I bit). Disabled caches pass
     * accesses straight to the backing store and keep their RAM state. */
    void setEnabled(bool on) { enabled_ = on; }

    /**
     * Model an undocumented physical bit order in the debug view (the
     * paper's footnote 4: the Cortex-A53 i-cache interleaves instruction
     * and ECC bits in an order the TRM does not document). When set,
     * debug reads return the data under a fixed per-chip bit permutation
     * derived from @p seed: content greps fail, but before/after dump
     * comparison — the paper's workaround — still measures retention
     * exactly. 0 disables.
     */
    void setDebugScramble(uint64_t seed);
    bool debugScrambled() const { return !scramble_.empty(); }

    /** @name CPU-side access path */
    ///@{
    uint64_t read64(uint64_t addr, bool secure);
    void write64(uint64_t addr, uint64_t value, bool secure);
    uint8_t read8(uint64_t addr, bool secure);
    void write8(uint64_t addr, uint8_t value, bool secure);
    ///@}

    /** @name Maintenance operations (Section 5.2.4 semantics) */
    ///@{
    /** Invalidate every line: clears valid bits only. Data RAM intact. */
    void invalidateAll();
    /** Clean (write back if dirty) then invalidate the line at @p addr. */
    void cleanInvalidate(uint64_t addr);
    /** Invalidate the line at @p addr WITHOUT write-back (discard) — the
     * DMA-coherence op a loader issues after writing memory directly. */
    void invalidateLine(uint64_t addr);
    /** Clean every dirty line (no invalidate). */
    void cleanAll();
    /** DC ZVA: allocate and zero the line containing @p addr — the only
     * software path that actually erases L1 data RAM. */
    void zeroLine(uint64_t addr);
    ///@}

    /** @name Locking (CaSE) */
    ///@{
    /** Lock the line currently holding @p addr; it can't be evicted. */
    void lockLine(uint64_t addr);
    void unlockAll();
    ///@}

    /** @name Debug / attack-side interface (RAMINDEX) */
    ///@{
    /** Raw 64-bit word from the data RAM at (way, set, word). Valid bits
     * are irrelevant — this is the co-processor debug path. When
     * @p tz_enforced, words in lines whose tag marks them secure read as
     * zero and @p violation (if non-null) is set. */
    uint64_t debugReadDataWord(size_t way, size_t set, size_t word,
                               bool tz_enforced = false,
                               bool *violation = nullptr) const;
    /** Raw tag entry for (way, set). */
    uint64_t debugReadTagEntry(size_t way, size_t set) const;
    /** Full data-RAM image of one way (the paper's figures). */
    MemoryImage dumpWay(size_t way, bool tz_enforced = false) const;
    /** Full data-RAM image (all ways, way-major). */
    MemoryImage dumpAll(bool tz_enforced = false) const;
    ///@}

    /** True if @p addr currently hits (diagnostics). */
    bool probeHit(uint64_t addr) const;

  private:
    struct Lookup
    {
        uint64_t tag;
        size_t set;
        size_t offset;
    };

    Lookup split(uint64_t addr) const;
    uint64_t tagEntry(size_t way, size_t set) const;
    void setTagEntry(size_t way, size_t set, uint64_t entry);
    size_t dataOffset(size_t way, size_t set) const;
    /** Find the way holding @p tag in @p set; SIZE_MAX if none. */
    size_t findWay(const Lookup &l) const;
    /** Pick a victim way in @p set (invalid first, then LRU-unlocked). */
    size_t victimWay(size_t set);
    /** Ensure the line for @p addr is resident; returns its way. */
    size_t fill(const Lookup &l, uint64_t addr, bool secure);
    void touchLru(size_t way, size_t set);
    void writebackLine(size_t way, size_t set);

    std::string name_;
    CacheGeometry geom_;
    MemoryArray &data_;
    MemoryArray &tags_;
    LineBacking *backing_;
    CacheStats stats_;
    bool enabled_ = false;
    /** LRU age per (set, way); volatile controller state, reset at boot. */
    std::vector<uint32_t> lru_;
    uint32_t lru_clock_ = 0;
    /** Round-robin pointers / LFSR state for the non-LRU policies. */
    std::vector<uint32_t> rr_;
    uint32_t lfsr_ = 0xACE1u;
    /** One line of scratch for fills, write-backs and DC ZVA. A fill
     * writes back its victim before it reads the new line, and the
     * backing's own accesses run on another Cache, so one suffices. */
    std::vector<uint8_t> line_buf_;
    /** Debug-view bit permutation (empty = documented order). */
    std::vector<uint8_t> scramble_;
    uint64_t scrambleWord(uint64_t word) const;
};

} // namespace voltboot

#endif // VOLTBOOT_MEM_CACHE_HH
