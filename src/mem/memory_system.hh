/**
 * @file
 * The memory hierarchy of a simulated SoC: per-core split L1s, an
 * optional shared L2, DRAM main memory and an optional iRAM region.
 *
 * A CorePort adapts one core's view of this hierarchy to the Cpu's
 * MemoryPort interface, including the RAMINDEX debug-descriptor decoding
 * that mirrors the CP15 co-processor interface of Cortex-A parts.
 */

#ifndef VOLTBOOT_MEM_MEMORY_SYSTEM_HH
#define VOLTBOOT_MEM_MEMORY_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "isa/cpu.hh"
#include "mem/cache.hh"
#include "sram/memory_array.hh"
#include "sram/memory_image.hh"

namespace voltboot
{

/** A flat region of memory directly backed by a MemoryArray. */
class MemoryRegion : public LineBacking
{
  public:
    MemoryRegion(MemoryArray &array, uint64_t base)
        : array_(array), base_(base)
    {}

    MemoryArray &array() { return array_; }
    const MemoryArray &array() const { return array_; }
    uint64_t base() const { return base_; }
    uint64_t size() const { return array_.sizeBytes(); }
    bool contains(uint64_t addr) const
    { return addr >= base_ && addr - base_ < size(); }

    void readLine(uint64_t line_addr, std::span<uint8_t> out) override;
    void writeLine(uint64_t line_addr,
                   std::span<const uint8_t> data) override;
    uint64_t readWord(uint64_t addr) override { return read64(addr); }
    void writeWord(uint64_t addr, uint64_t value) override
    { write64(addr, value); }

    uint64_t read64(uint64_t addr) const;
    void write64(uint64_t addr, uint64_t value);
    uint8_t read8(uint64_t addr) const;
    void write8(uint64_t addr, uint8_t value);

  private:
    MemoryArray &array_;
    uint64_t base_;
};

/** Adapter: a Cache viewed as the next level's LineBacking. */
class CacheBacking : public LineBacking
{
  public:
    explicit CacheBacking(Cache &cache) : cache_(cache) {}
    void readLine(uint64_t line_addr, std::span<uint8_t> out) override;
    void writeLine(uint64_t line_addr,
                   std::span<const uint8_t> data) override;
    uint64_t readWord(uint64_t addr) override
    { return cache_.read64(addr, /*secure=*/true); }
    void writeWord(uint64_t addr, uint64_t value) override
    { cache_.write64(addr, value, /*secure=*/true); }

  private:
    Cache &cache_;
};

/**
 * RAMINDEX descriptor encoding (our CP15 data-register interface):
 *   [59:56] RAM id   (0 = L1D data, 1 = L1D tag, 2 = L1I data, 3 = L1I tag,
 *                     4 = DTLB entry RAM, 5 = BTB entry RAM)
 *   [55:48] way      (TLB: way; BTB: ignored)
 *   [31:8]  set index (BTB: entry index)
 *   [7:0]   64-bit word offset within the line/entry
 */
struct RamIndexDescriptor
{
    unsigned ram_id;
    size_t way;
    size_t set;
    size_t word;

    static RamIndexDescriptor decode(uint64_t value);
    uint64_t encode() const;

    static constexpr unsigned kL1DData = 0;
    static constexpr unsigned kL1DTag = 1;
    static constexpr unsigned kL1IData = 2;
    static constexpr unsigned kL1ITag = 3;
    static constexpr unsigned kDTlb = 4;
    static constexpr unsigned kBtb = 5;
};

class Tlb;
class Btb;

/** Per-core cache pair plus the non-owning debug-visible RAM pointers. */
struct CoreCaches
{
    std::unique_ptr<Cache> l1i;
    std::unique_ptr<Cache> l1d;
    Tlb *dtlb = nullptr;
    Btb *btb = nullptr;
};

/**
 * The full hierarchy. The SoC constructs it with externally owned
 * MemoryArray backing stores (so power domains control them); this class
 * wires them into caches and regions.
 */
class MemorySystem
{
  public:
    MemorySystem() = default;

    /** Install main memory (DRAM). */
    void setMainMemory(MemoryArray &dram, uint64_t base);
    /** Install an iRAM region (uncached, directly addressed). */
    void setIram(MemoryArray &iram, uint64_t base);
    /** Install a shared L2 between the L1s and DRAM. */
    void setL2(std::unique_ptr<Cache> l2);

    /** Add one core's L1 pair; returns the core index. */
    size_t addCore(std::unique_ptr<Cache> l1i, std::unique_ptr<Cache> l1d);

    /** Wire the core's TLB/BTB (owned elsewhere) into the debug fabric. */
    void setCoreDebugRams(size_t core, Tlb *dtlb, Btb *btb);
    Tlb *dtlb(size_t core) { return cores_.at(core).dtlb; }
    Btb *btb(size_t core) { return cores_.at(core).btb; }

    size_t coreCount() const { return cores_.size(); }
    Cache &l1i(size_t core) { return *cores_.at(core).l1i; }
    Cache &l1d(size_t core) { return *cores_.at(core).l1d; }
    const Cache &l1i(size_t core) const { return *cores_.at(core).l1i; }
    const Cache &l1d(size_t core) const { return *cores_.at(core).l1d; }
    Cache *l2() { return l2_.get(); }
    MemoryRegion *mainMemory() { return dram_ ? &*dram_ : nullptr; }
    MemoryRegion *iram() { return iram_ ? &*iram_ : nullptr; }

    /** The backing the L1s fill from (L2 if present, else DRAM). */
    LineBacking *l1Backing();

    /** TrustZone enforcement for debug reads (Section 8 countermeasure). */
    bool tzEnforced() const { return tz_enforced_; }
    void setTzEnforced(bool on) { tz_enforced_ = on; }

    /** Is @p addr in the iRAM (uncached) window? */
    bool isIramAddr(uint64_t addr) const
    { return iram_ && iram_->contains(addr); }

  private:
    friend class CorePort;
    std::vector<CoreCaches> cores_;
    std::unique_ptr<Cache> l2_;
    std::unique_ptr<CacheBacking> l2_backing_;
    std::optional<MemoryRegion> dram_;
    std::optional<MemoryRegion> iram_;
    bool tz_enforced_ = false;
};

/**
 * One core's window onto the MemorySystem, implementing the Cpu's
 * MemoryPort. Carries the core's secure-world state for TrustZone
 * tagging of the lines it allocates.
 */
class CorePort : public MemoryPort
{
  public:
    CorePort(MemorySystem &system, size_t core)
        : sys_(system), core_(core)
    {}

    /** Secure/non-secure world of subsequent accesses. */
    void setSecureWorld(bool secure) { secure_ = secure; }
    bool secureWorld() const { return secure_; }

    uint32_t fetch32(uint64_t addr) override;
    uint64_t read64(uint64_t addr) override;
    void write64(uint64_t addr, uint64_t value) override;
    uint8_t read8(uint64_t addr) override;
    void write8(uint64_t addr, uint8_t value) override;
    void zeroCacheLine(uint64_t addr) override;
    void cleanInvalidateLine(uint64_t addr) override;
    void invalidateAllICache() override;
    uint64_t ramIndexRead(uint64_t descriptor) override;
    void setCacheEnables(bool dcache_on, bool icache_on) override;
    void branchTaken(uint64_t pc, uint64_t target) override;

  private:
    MemorySystem &sys_;
    size_t core_;
    bool secure_ = true;
};

} // namespace voltboot

#endif // VOLTBOOT_MEM_MEMORY_SYSTEM_HH
