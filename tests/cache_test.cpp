/**
 * @file
 * Tests for the cache model: geometry, hit/miss/eviction behaviour, LRU,
 * write-back, maintenance semantics (the Section 5.2.4 properties),
 * locking, TrustZone bits, and the debug (RAMINDEX) view.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mem/cache.hh"
#include "mem/memory_system.hh"
#include "sim/logging.hh"
#include "sram/memory_array.hh"

namespace voltboot
{
namespace
{

/** A cache + SRAM backing + flat memory, ready to use. */
class CacheHarness
{
  public:
    explicit CacheHarness(CacheGeometry geom = CacheGeometry{4096, 2, 64})
        : geom_(geom),
          data_("data", geom.size_bytes, 1, 50),
          tags_("tags", Cache::tagRamBytes(geom), 1, 51),
          backing_store_("mem", 1 << 20, 1, 52),
          region_(backing_store_, 0),
          cache_("L1D", geom, data_, tags_, &region_)
    {
        data_.powerUp(Volt(0.8));
        tags_.powerUp(Volt(0.8));
        backing_store_.powerUp(Volt(1.1));
        // Boot procedure: invalidate garbage tags, then enable.
        cache_.invalidateAll();
        cache_.setEnabled(true);
    }

    CacheGeometry geom_;
    SramArray data_, tags_;
    DramArray backing_store_;
    MemoryRegion region_;
    Cache cache_;
};

TEST(CacheGeometry, SetsComputation)
{
    const CacheGeometry g{32 * 1024, 2, 64};
    EXPECT_EQ(g.sets(), 256u);
    EXPECT_EQ(Cache::tagRamBytes(g), 256u * 2 * 8);
}

TEST(Cache, RejectsBadGeometry)
{
    SramArray d("d", 4096, 1, 1), t("t", 1024, 1, 2);
    d.powerUp(Volt(0.8));
    t.powerUp(Volt(0.8));
    EXPECT_THROW(Cache("c", CacheGeometry{4096, 0, 64}, d, t, nullptr),
                 FatalError);
    EXPECT_THROW(Cache("c", CacheGeometry{4096, 2, 7}, d, t, nullptr),
                 FatalError);
    EXPECT_THROW(Cache("c", CacheGeometry{5000, 2, 64}, d, t, nullptr),
                 FatalError);
}

TEST(Cache, ReadMissFillsFromBacking)
{
    CacheHarness h;
    h.backing_store_.writeWord64(0x100, 0xfeedface12345678ull);
    EXPECT_EQ(h.cache_.read64(0x100, true), 0xfeedface12345678ull);
    EXPECT_EQ(h.cache_.stats().misses, 1u);
    // Second read hits.
    EXPECT_EQ(h.cache_.read64(0x100, true), 0xfeedface12345678ull);
    EXPECT_EQ(h.cache_.stats().hits, 1u);
    EXPECT_TRUE(h.cache_.probeHit(0x100));
}

TEST(Cache, WriteBackOnlyReachesMemoryOnEviction)
{
    CacheHarness h;
    h.cache_.write64(0x200, 0xaaaaaaaaaaaaaaaaull, true);
    // Dirty in cache; memory still has its old (power-up) value.
    EXPECT_NE(h.backing_store_.readWord64(0x200), 0xaaaaaaaaaaaaaaaaull);
    // Force eviction: touch two more lines mapping to the same set.
    const uint64_t set_stride = h.geom_.sets() * h.geom_.line_bytes;
    h.cache_.read64(0x200 + set_stride, true);
    h.cache_.read64(0x200 + 2 * set_stride, true);
    h.cache_.read64(0x200 + 3 * set_stride, true);
    EXPECT_EQ(h.backing_store_.readWord64(0x200), 0xaaaaaaaaaaaaaaaaull);
    EXPECT_GE(h.cache_.stats().writebacks, 1u);
}

TEST(Cache, LruEvictsOldest)
{
    CacheHarness h; // 2 ways
    const uint64_t stride = h.geom_.sets() * h.geom_.line_bytes;
    h.cache_.read64(0x0, true);          // way A
    h.cache_.read64(stride, true);       // way B
    h.cache_.read64(0x0, true);          // touch A (B now LRU)
    h.cache_.read64(2 * stride, true);   // evicts B
    EXPECT_TRUE(h.cache_.probeHit(0x0));
    EXPECT_FALSE(h.cache_.probeHit(stride));
    EXPECT_TRUE(h.cache_.probeHit(2 * stride));
}

TEST(Cache, ByteAccessesComposeWithWords)
{
    CacheHarness h;
    h.cache_.write64(0x300, 0, true);
    h.cache_.write8(0x301, 0xAB, true);
    h.cache_.write8(0x307, 0xCD, true);
    EXPECT_EQ(h.cache_.read64(0x300, true), 0xCD0000000000AB00ull);
    EXPECT_EQ(h.cache_.read8(0x301, true), 0xABu);
}

TEST(Cache, UnalignedWordAccessPanics)
{
    CacheHarness h;
    EXPECT_THROW(h.cache_.read64(0x301, true), PanicError);
    EXPECT_THROW(h.cache_.write64(0x303, 0, true), PanicError);
}

TEST(Cache, InvalidateAllClearsTagsNotData)
{
    CacheHarness h;
    h.cache_.write64(0x400, 0x5a5a5a5a5a5a5a5aull, true);
    // Find which way holds it via the debug tag view.
    const size_t set = (0x400 / 64) % h.geom_.sets();
    h.cache_.invalidateAll();
    EXPECT_FALSE(h.cache_.probeHit(0x400));
    // Section 5.2.4: "the data remains unchanged" — the word is still
    // in the data RAM of one of the ways.
    bool found = false;
    for (size_t way = 0; way < h.geom_.ways && !found; ++way)
        found = h.cache_.debugReadDataWord(way, set, 0) ==
                0x5a5a5a5a5a5a5a5aull;
    EXPECT_TRUE(found);
}

TEST(Cache, CleanInvalidateWritesBackFirst)
{
    CacheHarness h;
    h.cache_.write64(0x500, 0x1111222233334444ull, true);
    h.cache_.cleanInvalidate(0x500);
    EXPECT_FALSE(h.cache_.probeHit(0x500));
    EXPECT_EQ(h.backing_store_.readWord64(0x500),
              0x1111222233334444ull);
}

TEST(Cache, DcZvaIsTheOnlySoftwareErasePath)
{
    CacheHarness h;
    h.cache_.write64(0x600, 0x9999999999999999ull, true);
    const size_t set = (0x600 / 64) % h.geom_.sets();
    h.cache_.zeroLine(0x600);
    EXPECT_EQ(h.cache_.read64(0x600, true), 0u);
    // The data RAM itself now holds zeros in the resident way.
    bool zeroed = false;
    for (size_t way = 0; way < h.geom_.ways && !zeroed; ++way)
        zeroed = h.cache_.debugReadDataWord(way, set, 0) == 0;
    EXPECT_TRUE(zeroed);
}

TEST(Cache, CleanAllFlushesEveryDirtyLine)
{
    CacheHarness h;
    for (uint64_t a = 0; a < 1024; a += 64)
        h.cache_.write64(a, 0xD0D0000000000000ull | a, true);
    h.cache_.cleanAll();
    for (uint64_t a = 0; a < 1024; a += 64)
        EXPECT_EQ(h.backing_store_.readWord64(a),
                  0xD0D0000000000000ull | a);
    // Lines stay resident after a clean (no invalidate).
    EXPECT_TRUE(h.cache_.probeHit(0));
}

TEST(Cache, LockedLinesAreNeverEvicted)
{
    CacheHarness h; // 2 ways
    const uint64_t stride = h.geom_.sets() * h.geom_.line_bytes;
    h.cache_.write64(0x0, 0xCAFEull, true);
    h.cache_.lockLine(0x0);
    // Hammer the set with conflicting lines.
    for (int i = 1; i <= 8; ++i)
        h.cache_.read64(i * stride, true);
    EXPECT_TRUE(h.cache_.probeHit(0x0));
    EXPECT_EQ(h.cache_.read64(0x0, true), 0xCAFEull);
}

TEST(Cache, FullyLockedSetRejectsAllocation)
{
    CacheHarness h; // 2 ways
    const uint64_t stride = h.geom_.sets() * h.geom_.line_bytes;
    h.cache_.write64(0x0, 1, true);
    h.cache_.lockLine(0x0);
    h.cache_.write64(stride, 2, true);
    h.cache_.lockLine(stride);
    EXPECT_THROW(h.cache_.read64(2 * stride, true), FatalError);
}

TEST(Cache, LockLineRequiresResidency)
{
    CacheHarness h;
    EXPECT_THROW(h.cache_.lockLine(0x7000), FatalError);
}

TEST(Cache, DisabledCachePassesThrough)
{
    CacheHarness h;
    h.cache_.setEnabled(false);
    h.cache_.write64(0x700, 0x77ull, true);
    // Straight to memory, nothing cached.
    EXPECT_EQ(h.backing_store_.readWord64(0x700), 0x77ull);
    EXPECT_FALSE(h.cache_.probeHit(0x700));
    EXPECT_EQ(h.cache_.read64(0x700, true), 0x77ull);
    EXPECT_EQ(h.cache_.stats().misses, 0u);
}

TEST(Cache, DisabledCacheOverMemoryMovesOneWord)
{
    CacheHarness h;
    h.cache_.setEnabled(false);
    h.backing_store_.writeWord64(0x1238, 0x0123456789abcdefull);
    EXPECT_EQ(h.cache_.read64(0x1238, true), 0x0123456789abcdefull);
    h.cache_.write64(0x1240, 0xfedcba9876543210ull, true);
    EXPECT_EQ(h.backing_store_.readWord64(0x1240), 0xfedcba9876543210ull);
    EXPECT_EQ(h.cache_.read64(0x1240, true), 0xfedcba9876543210ull);
    // The neighbours in both lines are untouched.
    EXPECT_EQ(h.cache_.read64(0x1230, true),
              h.backing_store_.readWord64(0x1230));
    EXPECT_EQ(h.cache_.read64(0x1248, true),
              h.backing_store_.readWord64(0x1248));
}

TEST(Cache, DisabledCacheWordOutsideMemoryPanics)
{
    CacheHarness h;
    h.cache_.setEnabled(false);
    const uint64_t end = h.backing_store_.sizeBytes();
    EXPECT_THROW(h.cache_.read64(end, true), PanicError);
    EXPECT_THROW(h.cache_.write64(end, 1, true), PanicError);
    EXPECT_THROW(h.cache_.read8(end + 3, true), PanicError);
}

/** A disabled L1 over an enabled L2 over flat memory: the hierarchy
 * the boot ROM leaves behind on every board. */
class L2Harness
{
  public:
    L2Harness()
        : l1_data_("l1d", l1_geom_.size_bytes, 1, 60),
          l1_tags_("l1t", Cache::tagRamBytes(l1_geom_), 1, 61),
          l2_data_("l2d", l2_geom_.size_bytes, 1, 62),
          l2_tags_("l2t", Cache::tagRamBytes(l2_geom_), 1, 63),
          dram_("mem", 1 << 20, 1, 64), region_(dram_, 0),
          l2_("L2", l2_geom_, l2_data_, l2_tags_, &region_),
          l2_backing_(l2_),
          l1_("L1D", l1_geom_, l1_data_, l1_tags_, &l2_backing_)
    {
        l1_data_.powerUp(Volt(0.8));
        l1_tags_.powerUp(Volt(0.8));
        l2_data_.powerUp(Volt(0.8));
        l2_tags_.powerUp(Volt(0.8));
        dram_.powerUp(Volt(1.1));
        l2_.invalidateAll();
        l2_.setEnabled(true);
        l1_.setEnabled(false);
    }

    /** Every L2 tag entry followed by the whole L2 data RAM. */
    std::vector<uint64_t>
    l2State() const
    {
        std::vector<uint64_t> out;
        for (size_t s = 0; s < l2_geom_.sets(); ++s)
            for (size_t w = 0; w < l2_geom_.ways; ++w)
                out.push_back(l2_.debugReadTagEntry(w, s));
        for (size_t w = 0; w < l2_geom_.ways; ++w)
            for (size_t s = 0; s < l2_geom_.sets(); ++s)
                for (size_t i = 0; i < l2_geom_.line_bytes / 8; ++i)
                    out.push_back(l2_.debugReadDataWord(w, s, i));
        return out;
    }

    CacheGeometry l1_geom_{4096, 2, 64};
    CacheGeometry l2_geom_{16384, 4, 64};
    SramArray l1_data_, l1_tags_, l2_data_, l2_tags_;
    DramArray dram_;
    MemoryRegion region_;
    Cache l2_;
    CacheBacking l2_backing_;
    Cache l1_;
};

TEST(Cache, DisabledL1OverL2RoundTrips)
{
    L2Harness h;
    h.l1_.write64(0x2000, 0x1122334455667788ull, true);
    EXPECT_EQ(h.l1_.read64(0x2000, true), 0x1122334455667788ull);
    h.l1_.write8(0x2009, 0x5A, true);
    EXPECT_EQ(h.l1_.read8(0x2009, true), 0x5Au);
    EXPECT_EQ(h.l1_.read8(0x2003, true), 0x55u);
    // Nothing lands in the disabled L1.
    EXPECT_FALSE(h.l1_.probeHit(0x2000));
    EXPECT_EQ(h.l1_.stats().hits + h.l1_.stats().misses, 0u);
}

TEST(Cache, DisabledL1StoreLeavesTheLineTheLinePathLeft)
{
    // The word path against a read-modify-write of the whole line
    // through the same backing, on two identical hierarchies.
    L2Harness word, line;
    const uint64_t addrs[] = {0x3008, 0x3038, 0x7ff0, 0x3010};
    for (uint64_t a : addrs) {
        const uint64_t v = 0xC0DE000000000000ull | a;
        word.l1_.write64(a, v, true);

        const uint64_t line_addr = a & ~uint64_t{63};
        std::vector<uint8_t> buf(64);
        line.l2_backing_.readLine(line_addr, buf);
        std::memcpy(buf.data() + (a - line_addr), &v, 8);
        line.l2_backing_.writeLine(line_addr, buf);
    }
    for (uint64_t a : addrs) {
        EXPECT_TRUE(word.l2_.probeHit(a));
        const size_t set = (a / 64) % word.l2_geom_.sets();
        bool dirty = false;
        for (size_t w = 0; w < word.l2_geom_.ways; ++w) {
            const uint64_t e = word.l2_.debugReadTagEntry(w, set);
            if ((e & Cache::kFlagValid) &&
                (e & 0xffffffffffffull) ==
                    a / (64 * word.l2_geom_.sets()))
                dirty = (e & Cache::kFlagDirty) != 0;
        }
        EXPECT_TRUE(dirty) << std::hex << a;
    }
    EXPECT_EQ(word.l2State(), line.l2State());
    EXPECT_EQ(word.l2_.stats().misses, line.l2_.stats().misses);
}

TEST(Cache, DisabledL1MissesL2OncePerLine)
{
    L2Harness h;
    // Three distinct lines, every word of each, loads and stores mixed.
    for (uint64_t base : {0x4000ull, 0x4040ull, 0x9000ull})
        for (uint64_t off = 0; off < 64; off += 8) {
            if (off % 16)
                h.l1_.write64(base + off, off, true);
            else
                h.l1_.read64(base + off, true);
        }
    EXPECT_EQ(h.l2_.stats().misses, 3u);
    EXPECT_EQ(h.l2_.stats().hits, 3u * 8 - 3);
}

TEST(Cache, DebugViewIgnoresValidBits)
{
    CacheHarness h;
    h.cache_.write64(0x800, 0xABCDull, true);
    h.cache_.invalidateAll();
    const size_t set = (0x800 / 64) % h.geom_.sets();
    bool found = false;
    for (size_t way = 0; way < h.geom_.ways && !found; ++way)
        found = h.cache_.debugReadDataWord(way, set, 0) == 0xABCDull;
    EXPECT_TRUE(found) << "RAMINDEX must see invalidated lines";
}

TEST(Cache, DebugReadOutOfRangePanics)
{
    CacheHarness h;
    EXPECT_THROW(h.cache_.debugReadDataWord(9, 0, 0), PanicError);
    EXPECT_THROW(h.cache_.debugReadDataWord(0, 1 << 20, 0), PanicError);
    EXPECT_THROW(h.cache_.debugReadTagEntry(0, 1 << 20), PanicError);
}

TEST(Cache, TrustZoneBlocksSecureLinesOnDebugRead)
{
    CacheHarness h;
    h.cache_.write64(0x900, 0x5EC12E7ull, true); // secure access
    h.cache_.write64(0xA00, 0x0FE2ull, false);   // non-secure access
    const size_t set_s = (0x900 / 64) % h.geom_.sets();
    const size_t set_ns = (0xA00 / 64) % h.geom_.sets();

    bool violation = false;
    bool secure_readable = false, ns_readable = false;
    for (size_t way = 0; way < h.geom_.ways; ++way) {
        if (h.cache_.debugReadDataWord(way, set_s, 0, true, &violation) ==
            0x5EC12E7ull)
            secure_readable = true;
        if (h.cache_.debugReadDataWord(way, set_ns, 0, true) == 0x0FE2ull)
            ns_readable = true;
    }
    EXPECT_FALSE(secure_readable);
    EXPECT_TRUE(violation);
    EXPECT_TRUE(ns_readable);
    // Without enforcement, everything reads.
    bool open_readable = false;
    for (size_t way = 0; way < h.geom_.ways; ++way)
        if (h.cache_.debugReadDataWord(way, set_s, 0, false) ==
            0x5EC12E7ull)
            open_readable = true;
    EXPECT_TRUE(open_readable);
}

TEST(Cache, DumpWayHasWayMajorLayout)
{
    CacheHarness h;
    h.cache_.write64(0x0, 0x1ull, true);
    const MemoryImage way0 = h.cache_.dumpWay(0);
    EXPECT_EQ(way0.sizeBytes(), h.geom_.sets() * h.geom_.line_bytes);
    const MemoryImage all = h.cache_.dumpAll();
    EXPECT_EQ(all.sizeBytes(), h.geom_.size_bytes);
}

TEST(Cache, StatsTrackEvictions)
{
    CacheHarness h;
    const uint64_t stride = h.geom_.sets() * h.geom_.line_bytes;
    for (int i = 0; i < 4; ++i)
        h.cache_.read64(i * stride, true);
    EXPECT_EQ(h.cache_.stats().misses, 4u);
    EXPECT_EQ(h.cache_.stats().evictions, 2u); // 2-way set overflows twice
    h.cache_.clearStats();
    EXPECT_EQ(h.cache_.stats().misses, 0u);
}

TEST(Cache, RoundRobinCyclesThroughWays)
{
    CacheHarness h(CacheGeometry{4096, 2, 64, ReplacementPolicy::RoundRobin});
    const uint64_t stride = h.geom_.sets() * h.geom_.line_bytes;
    h.cache_.read64(0 * stride, true); // way 0 (invalid-first)
    h.cache_.read64(1 * stride, true); // way 1
    h.cache_.read64(2 * stride, true); // evicts way 0
    EXPECT_FALSE(h.cache_.probeHit(0 * stride));
    EXPECT_TRUE(h.cache_.probeHit(1 * stride));
    h.cache_.read64(3 * stride, true); // evicts way 1
    EXPECT_FALSE(h.cache_.probeHit(1 * stride));
    EXPECT_TRUE(h.cache_.probeHit(2 * stride));
}

TEST(Cache, RandomPolicyIsDeterministicPerInstance)
{
    auto run = [] {
        CacheHarness h(
            CacheGeometry{4096, 4, 64, ReplacementPolicy::Random});
        const uint64_t stride = h.geom_.sets() * h.geom_.line_bytes;
        std::vector<bool> alive;
        for (int i = 0; i < 12; ++i)
            h.cache_.read64(i * stride, true);
        for (int i = 0; i < 12; ++i)
            alive.push_back(h.cache_.probeHit(i * stride));
        return alive;
    };
    EXPECT_EQ(run(), run()); // same LFSR seed, same evictions
    // Exactly 4 survivors in the 4-way set.
    const auto alive = run();
    EXPECT_EQ(std::count(alive.begin(), alive.end(), true), 4);
}

TEST(Cache, RandomPolicyRespectsLocks)
{
    CacheHarness h(CacheGeometry{4096, 2, 64, ReplacementPolicy::Random});
    const uint64_t stride = h.geom_.sets() * h.geom_.line_bytes;
    h.cache_.write64(0, 0xCAFE, true);
    h.cache_.lockLine(0);
    for (int i = 1; i <= 16; ++i)
        h.cache_.read64(i * stride, true);
    EXPECT_TRUE(h.cache_.probeHit(0));
    EXPECT_EQ(h.cache_.read64(0, true), 0xCAFEull);
}

TEST(Cache, DebugScrambleModelsUndocumentedBitOrder)
{
    CacheHarness h;
    h.cache_.write64(0xB00, 0x123456789ABCDEF0ull, true);
    const size_t set = (0xB00 / 64) % h.geom_.sets();

    // Find the resident way with the documented order first.
    size_t way = SIZE_MAX;
    for (size_t w = 0; w < h.geom_.ways; ++w)
        if (h.cache_.debugReadDataWord(w, set, 0) ==
            0x123456789ABCDEF0ull)
            way = w;
    ASSERT_NE(way, SIZE_MAX);

    h.cache_.setDebugScramble(0x2837);
    EXPECT_TRUE(h.cache_.debugScrambled());
    const uint64_t scrambled = h.cache_.debugReadDataWord(way, set, 0);
    // A permutation: different bit order, same popcount, and stable.
    EXPECT_NE(scrambled, 0x123456789ABCDEF0ull);
    EXPECT_EQ(std::popcount(scrambled),
              std::popcount(0x123456789ABCDEF0ull));
    EXPECT_EQ(h.cache_.debugReadDataWord(way, set, 0), scrambled);

    // The CPU-side read path is unaffected (only the debug view is
    // physically interleaved).
    EXPECT_EQ(h.cache_.read64(0xB00, true), 0x123456789ABCDEF0ull);

    h.cache_.setDebugScramble(0);
    EXPECT_EQ(h.cache_.debugReadDataWord(way, set, 0),
              0x123456789ABCDEF0ull);
}

// --- RamIndexDescriptor ---

TEST(RamIndexDescriptor, EncodeDecodeRoundTrip)
{
    for (unsigned ram : {0u, 1u, 2u, 3u}) {
        for (size_t way : {0u, 1u, 3u}) {
            for (size_t set : {0u, 255u, 4095u}) {
                for (size_t word : {0u, 7u}) {
                    const RamIndexDescriptor d{ram, way, set, word};
                    const RamIndexDescriptor back =
                        RamIndexDescriptor::decode(d.encode());
                    EXPECT_EQ(back.ram_id, ram);
                    EXPECT_EQ(back.way, way);
                    EXPECT_EQ(back.set, set);
                    EXPECT_EQ(back.word, word);
                }
            }
        }
    }
}

// --- Geometry sweep: fills work at every shape ---

class CacheShapeSweep
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>>
{
};

TEST_P(CacheShapeSweep, FillReadBackEverywhere)
{
    const auto [size, ways, line] = GetParam();
    CacheHarness h(CacheGeometry{size, ways, line});
    // Write a distinct word to the first word of each line of a region
    // the size of the cache, then read everything back.
    for (uint64_t a = 0; a < size; a += line)
        h.cache_.write64(a, 0xF00D000000000000ull | a, true);
    for (uint64_t a = 0; a < size; a += line)
        ASSERT_EQ(h.cache_.read64(a, true), 0xF00D000000000000ull | a);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheShapeSweep,
    ::testing::Values(std::make_tuple(4096, 1, 64),
                      std::make_tuple(4096, 2, 64),
                      std::make_tuple(8192, 4, 64),
                      std::make_tuple(16384, 2, 32),
                      std::make_tuple(32768, 2, 64),
                      std::make_tuple(32768, 4, 128),
                      std::make_tuple(49152, 3, 64)));

} // namespace
} // namespace voltboot
