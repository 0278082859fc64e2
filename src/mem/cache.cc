#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace voltboot
{

namespace
{

bool
isPow2(size_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

Cache::Cache(std::string name, CacheGeometry geometry, MemoryArray &data_ram,
             MemoryArray &tag_ram, LineBacking *backing)
    : name_(std::move(name)), geom_(geometry), data_(data_ram),
      tags_(tag_ram), backing_(backing),
      lru_(geometry.sets() * geometry.ways, 0),
      rr_(geometry.sets(), 0), line_buf_(geometry.line_bytes)
{
    if (!isPow2(geom_.line_bytes) || geom_.line_bytes < 8)
        fatal("Cache ", name_, ": line size must be a power of two >= 8");
    if (geom_.ways == 0 || geom_.size_bytes % (geom_.ways * geom_.line_bytes))
        fatal("Cache ", name_, ": size not divisible into ways*lines");
    if (!isPow2(geom_.sets()))
        fatal("Cache ", name_, ": set count must be a power of two");
    if (data_.sizeBytes() < geom_.size_bytes)
        fatal("Cache ", name_, ": data RAM too small");
    if (tags_.sizeBytes() < tagRamBytes(geom_))
        fatal("Cache ", name_, ": tag RAM too small");
}

size_t
Cache::tagRamBytes(const CacheGeometry &geometry)
{
    return geometry.sets() * geometry.ways * 8;
}

Cache::Lookup
Cache::split(uint64_t addr) const
{
    Lookup l;
    const size_t off_bits = std::countr_zero(geom_.line_bytes);
    const size_t set_bits = std::countr_zero(geom_.sets());
    l.offset = addr & (geom_.line_bytes - 1);
    l.set = (addr >> off_bits) & (geom_.sets() - 1);
    l.tag = addr >> (off_bits + set_bits);
    if (l.tag > 0xffffffffffffull)
        panic("Cache ", name_, ": tag exceeds 48 bits: addr ", addr);
    return l;
}

uint64_t
Cache::tagEntry(size_t way, size_t set) const
{
    return tags_.readWord64((set * geom_.ways + way) * 8);
}

void
Cache::setTagEntry(size_t way, size_t set, uint64_t entry)
{
    tags_.writeWord64((set * geom_.ways + way) * 8, entry);
}

size_t
Cache::dataOffset(size_t way, size_t set) const
{
    // Way-major layout: way 0's sets first, then way 1, ... This makes
    // dumpWay() contiguous, matching the paper's "WAY0 = 256 x 512 =
    // 16KB" framing.
    return (way * geom_.sets() + set) * geom_.line_bytes;
}

size_t
Cache::findWay(const Lookup &l) const
{
    for (size_t w = 0; w < geom_.ways; ++w) {
        const uint64_t e = tagEntry(w, l.set);
        if ((e & kFlagValid) && (e & 0xffffffffffffull) == l.tag)
            return w;
    }
    return SIZE_MAX;
}

size_t
Cache::victimWay(size_t set)
{
    // Invalid ways first, regardless of policy.
    for (size_t w = 0; w < geom_.ways; ++w)
        if (!(tagEntry(w, set) & kFlagValid))
            return w;

    auto locked = [&](size_t w) {
        return (tagEntry(w, set) & kFlagLocked) != 0;
    };
    size_t victim = SIZE_MAX;
    switch (geom_.policy) {
      case ReplacementPolicy::Lru: {
        uint32_t oldest = UINT32_MAX;
        for (size_t w = 0; w < geom_.ways; ++w) {
            if (locked(w))
                continue;
            const uint32_t age = lru_[set * geom_.ways + w];
            if (age <= oldest) {
                oldest = age;
                victim = w;
            }
        }
        break;
      }
      case ReplacementPolicy::RoundRobin: {
        for (size_t tries = 0; tries < geom_.ways; ++tries) {
            const size_t w = rr_[set] % geom_.ways;
            rr_[set] = static_cast<uint32_t>(w + 1);
            if (!locked(w)) {
                victim = w;
                break;
            }
        }
        break;
      }
      case ReplacementPolicy::Random: {
        // 16-bit Fibonacci LFSR, like the pseudo-random replacement
        // found in A53/A8-class L1s. Deterministic per cache instance.
        for (size_t tries = 0; tries < 4 * geom_.ways; ++tries) {
            const uint32_t bit = ((lfsr_ >> 0) ^ (lfsr_ >> 2) ^
                                  (lfsr_ >> 3) ^ (lfsr_ >> 5)) &
                                 1u;
            lfsr_ = (lfsr_ >> 1) | (bit << 15);
            const size_t w = lfsr_ % geom_.ways;
            if (!locked(w)) {
                victim = w;
                break;
            }
        }
        // Fall back to any unlocked way if the LFSR was unlucky.
        for (size_t w = 0; w < geom_.ways && victim == SIZE_MAX; ++w)
            if (!locked(w))
                victim = w;
        break;
      }
    }
    if (victim == SIZE_MAX)
        fatal("Cache ", name_, ": set ", set,
              " fully locked; cannot allocate");
    return victim;
}

void
Cache::touchLru(size_t way, size_t set)
{
    lru_[set * geom_.ways + way] = ++lru_clock_;
}

void
Cache::writebackLine(size_t way, size_t set)
{
    const uint64_t e = tagEntry(way, set);
    if (!(e & kFlagValid) || !(e & kFlagDirty) || backing_ == nullptr)
        return;
    const uint64_t tag = e & 0xffffffffffffull;
    const size_t off_bits = std::countr_zero(geom_.line_bytes);
    const size_t set_bits = std::countr_zero(geom_.sets());
    const uint64_t line_addr =
        (tag << (off_bits + set_bits)) | (set << off_bits);
    data_.read(dataOffset(way, set), line_buf_);
    backing_->writeLine(line_addr, line_buf_);
    ++stats_.writebacks;
}

size_t
Cache::fill(const Lookup &l, uint64_t addr, bool secure)
{
    size_t way = findWay(l);
    if (way != SIZE_MAX) {
        ++stats_.hits;
        touchLru(way, l.set);
        return way;
    }

    ++stats_.misses;
    way = victimWay(l.set);
    if (tagEntry(way, l.set) & kFlagValid)
        ++stats_.evictions;
    writebackLine(way, l.set);

    const uint64_t line_addr = addr & ~(geom_.line_bytes - 1);
    if (backing_)
        backing_->readLine(line_addr, line_buf_);
    else
        std::fill(line_buf_.begin(), line_buf_.end(), 0);
    data_.write(dataOffset(way, l.set), line_buf_);

    uint64_t entry = l.tag | kFlagValid;
    if (!secure)
        entry |= kFlagNonSecure;
    setTagEntry(way, l.set, entry);
    touchLru(way, l.set);
    return way;
}

uint64_t
Cache::read64(uint64_t addr, bool secure)
{
    if (addr % 8)
        panic("Cache ", name_, ": unaligned read64 at ", addr);
    if (!enabled_) {
        if (!backing_)
            panic("Cache ", name_, ": disabled with no backing");
        return backing_->readWord(addr);
    }
    const Lookup l = split(addr);
    const size_t way = fill(l, addr, secure);
    return data_.readWord64(dataOffset(way, l.set) + l.offset);
}

void
Cache::write64(uint64_t addr, uint64_t value, bool secure)
{
    if (addr % 8)
        panic("Cache ", name_, ": unaligned write64 at ", addr);
    if (!enabled_) {
        if (!backing_)
            panic("Cache ", name_, ": disabled with no backing");
        backing_->writeWord(addr, value);
        return;
    }
    const Lookup l = split(addr);
    const size_t way = fill(l, addr, secure);
    data_.writeWord64(dataOffset(way, l.set) + l.offset, value);
    setTagEntry(way, l.set, tagEntry(way, l.set) | kFlagDirty);
}

uint8_t
Cache::read8(uint64_t addr, bool secure)
{
    const uint64_t aligned = addr & ~7ull;
    const uint64_t word = read64(aligned, secure);
    return static_cast<uint8_t>(word >> (8 * (addr & 7)));
}

void
Cache::write8(uint64_t addr, uint8_t value, bool secure)
{
    const uint64_t aligned = addr & ~7ull;
    uint64_t word = read64(aligned, secure);
    const unsigned shift = 8 * (addr & 7);
    word &= ~(0xffull << shift);
    word |= static_cast<uint64_t>(value) << shift;
    write64(aligned, word, secure);
}

void
Cache::invalidateAll()
{
    // Clears valid bits only: "cleaning and invalidating a cache at the
    // boot phase does not erase the contents".
    for (size_t s = 0; s < geom_.sets(); ++s)
        for (size_t w = 0; w < geom_.ways; ++w)
            setTagEntry(w, s, tagEntry(w, s) &
                                  ~(kFlagValid | kFlagDirty | kFlagLocked));
}

void
Cache::cleanInvalidate(uint64_t addr)
{
    const Lookup l = split(addr);
    const size_t way = findWay(l);
    if (way == SIZE_MAX)
        return;
    writebackLine(way, l.set);
    setTagEntry(way, l.set,
                tagEntry(way, l.set) & ~(kFlagValid | kFlagDirty));
}

void
Cache::invalidateLine(uint64_t addr)
{
    const Lookup l = split(addr);
    const size_t way = findWay(l);
    if (way == SIZE_MAX)
        return;
    setTagEntry(way, l.set,
                tagEntry(way, l.set) & ~(kFlagValid | kFlagDirty));
}

void
Cache::cleanAll()
{
    for (size_t s = 0; s < geom_.sets(); ++s) {
        for (size_t w = 0; w < geom_.ways; ++w) {
            writebackLine(w, s);
            setTagEntry(w, s, tagEntry(w, s) & ~kFlagDirty);
        }
    }
}

void
Cache::zeroLine(uint64_t addr)
{
    if (!enabled_)
        return;
    const Lookup l = split(addr);
    const size_t way = fill(l, addr, /*secure=*/false);
    std::fill(line_buf_.begin(), line_buf_.end(), 0);
    data_.write(dataOffset(way, l.set), line_buf_);
    setTagEntry(way, l.set, tagEntry(way, l.set) | kFlagDirty);
}

void
Cache::lockLine(uint64_t addr)
{
    const Lookup l = split(addr);
    const size_t way = findWay(l);
    if (way == SIZE_MAX)
        fatal("Cache ", name_, ": lockLine on a non-resident address");
    setTagEntry(way, l.set, tagEntry(way, l.set) | kFlagLocked);
}

void
Cache::setDebugScramble(uint64_t seed)
{
    scramble_.clear();
    if (seed == 0)
        return;
    // Fisher-Yates over the 64 bit positions, seeded per chip.
    scramble_.resize(64);
    for (uint8_t i = 0; i < 64; ++i)
        scramble_[i] = i;
    Rng rng(seed);
    for (size_t i = 63; i > 0; --i)
        std::swap(scramble_[i], scramble_[rng.below(i + 1)]);
}

uint64_t
Cache::scrambleWord(uint64_t word) const
{
    if (scramble_.empty())
        return word;
    uint64_t out = 0;
    for (size_t i = 0; i < 64; ++i)
        out |= ((word >> i) & 1) << scramble_[i];
    return out;
}

uint64_t
Cache::debugReadDataWord(size_t way, size_t set, size_t word,
                         bool tz_enforced, bool *violation) const
{
    if (way >= geom_.ways || set >= geom_.sets() ||
        word >= geom_.line_bytes / 8)
        panic("Cache ", name_, ": debug read out of range (way ", way,
              ", set ", set, ", word ", word, ")");
    if (tz_enforced) {
        const uint64_t e = tagEntry(way, set);
        const bool line_secure = !(e & kFlagNonSecure);
        if (line_secure) {
            // Hardware blocks non-secure debug access to secure lines;
            // reading requires flipping the security attribute, which
            // erases the line (Section 8).
            if (violation)
                *violation = true;
            return 0;
        }
    }
    return scrambleWord(data_.readWord64(dataOffset(way, set) + word * 8));
}

uint64_t
Cache::debugReadTagEntry(size_t way, size_t set) const
{
    if (way >= geom_.ways || set >= geom_.sets())
        panic("Cache ", name_, ": tag debug read out of range");
    return tagEntry(way, set);
}

MemoryImage
Cache::dumpWay(size_t way, bool tz_enforced) const
{
    const size_t words_per_line = geom_.line_bytes / 8;
    std::vector<uint8_t> out;
    out.reserve(geom_.sets() * geom_.line_bytes);
    for (size_t s = 0; s < geom_.sets(); ++s) {
        for (size_t w = 0; w < words_per_line; ++w) {
            const uint64_t v = debugReadDataWord(way, s, w, tz_enforced);
            for (int b = 0; b < 8; ++b)
                out.push_back(static_cast<uint8_t>(v >> (8 * b)));
        }
    }
    return MemoryImage(std::move(out));
}

MemoryImage
Cache::dumpAll(bool tz_enforced) const
{
    std::vector<uint8_t> out;
    out.reserve(geom_.size_bytes);
    for (size_t way = 0; way < geom_.ways; ++way) {
        MemoryImage img = dumpWay(way, tz_enforced);
        out.insert(out.end(), img.bytes().begin(), img.bytes().end());
    }
    return MemoryImage(std::move(out));
}

bool
Cache::probeHit(uint64_t addr) const
{
    return findWay(split(addr)) != SIZE_MAX;
}

} // namespace voltboot
