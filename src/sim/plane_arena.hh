/**
 * @file
 * Arena-backed bit-packed word planes.
 *
 * The retention hot path models millions of one-bit cells; the natural
 * storage is a structure-of-arrays of contiguous `uint64_t` words where
 * bit i of the plane is cell i, so one word op (or one AVX-512
 * register, via sim/cell_hash_batch) advances 64-512 cells at a time.
 * Two pieces live here:
 *
 *  - PlaneArena: a bump allocator handing out zeroed, cache-line-
 *    aligned word spans from large blocks. Planes are never freed
 *    individually; the arena releases every block at once when it is
 *    destroyed. This is what lets a MemoryArray (or a cached
 *    FingerprintPlanes) carve all of its planes out of one contiguous
 *    reservation and account for them with a single byte count.
 *  - BitPlane: a non-owning view of one such span plus its logical bit
 *    length, with the word/byte/bit accessors the kernels and the
 *    byte-facing MemoryArray API are built from.
 *
 * Lifetime rule: a BitPlane is a *view*; it is valid exactly as long as
 * the PlaneArena it was allocated from. Structures that hand out planes
 * (MemoryArray, FingerprintPlanes) therefore embed their arena and move
 * as a unit; the fingerprint cache shares whole FingerprintPlanes via
 * shared_ptr so a cached plane can never outlive its arena.
 *
 * Layout convention (shared with the kernels): byte i of a plane
 * occupies word bits [8*(i%8), 8*(i%8)+8) of word i/8, i.e. cell index
 * == global bit index == 8*byte + bit, regardless of host endianness.
 * On little-endian hosts the word array's in-memory bytes ARE the byte
 * array, which is what makes snapshot()/fill() single memcpy/fill
 * passes. Bits past sizeBits() in the final word are kept zero by every
 * mutator (the tail invariant) so word-granular consumers never see
 * garbage lanes.
 */

#ifndef VOLTBOOT_SIM_PLANE_ARENA_HH
#define VOLTBOOT_SIM_PLANE_ARENA_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

namespace voltboot
{

/** Non-owning view of a bit-packed cell plane (see file comment). */
class BitPlane
{
  public:
    BitPlane() = default;
    BitPlane(uint64_t *words, uint64_t nbits) : words_(words), nbits_(nbits)
    {}

    /** Number of 64-bit words a plane of @p nbits cells needs. */
    static constexpr size_t
    wordsFor(uint64_t nbits)
    {
        return static_cast<size_t>((nbits + 63) / 64);
    }

    uint64_t sizeBits() const { return nbits_; }
    size_t sizeBytes() const { return static_cast<size_t>(nbits_ / 8); }
    size_t sizeWords() const { return wordsFor(nbits_); }
    bool empty() const { return nbits_ == 0; }

    uint64_t *words() { return words_; }
    const uint64_t *words() const { return words_; }
    uint64_t word(size_t w) const { return words_[w]; }

    /** Mask of the valid bits in the final word (all-ones when the
     * plane is a whole number of words). */
    uint64_t
    tailMask() const
    {
        const unsigned rem = static_cast<unsigned>(nbits_ % 64);
        return rem == 0 ? ~uint64_t{0} : (uint64_t{1} << rem) - 1;
    }

    bool
    bit(uint64_t i) const
    {
        return (words_[i / 64] >> (i % 64)) & 1;
    }

    void
    setBit(uint64_t i, bool v)
    {
        const uint64_t m = uint64_t{1} << (i % 64);
        words_[i / 64] = (words_[i / 64] & ~m) |
                         (static_cast<uint64_t>(v) << (i % 64));
    }

    uint8_t
    byteAt(size_t addr) const
    {
        return static_cast<uint8_t>(words_[addr / 8] >>
                                    (8 * (addr % 8)));
    }

    void
    setByte(size_t addr, uint8_t v)
    {
        const unsigned sh = 8 * (addr % 8);
        uint64_t &w = words_[addr / 8];
        w = (w & ~(uint64_t{0xff} << sh)) | (uint64_t{v} << sh);
    }

    /** Copy @p n plane bytes starting at byte @p addr into @p out.
     * Word-granular on little-endian hosts (single memcpy). */
    void
    readBytes(size_t addr, uint8_t *out, size_t n) const
    {
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(out,
                        reinterpret_cast<const uint8_t *>(words_) + addr,
                        n);
        } else {
            for (size_t i = 0; i < n; ++i)
                out[i] = byteAt(addr + i);
        }
    }

    /** Store @p n bytes at byte offset @p addr. */
    void
    writeBytes(size_t addr, const uint8_t *data, size_t n)
    {
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(reinterpret_cast<uint8_t *>(words_) + addr, data,
                        n);
        } else {
            for (size_t i = 0; i < n; ++i)
                setByte(addr + i, data[i]);
        }
    }

    /** Export the whole plane as a byte vector (word-at-a-time). */
    std::vector<uint8_t>
    toBytes() const
    {
        std::vector<uint8_t> out(sizeBytes());
        readBytes(0, out.data(), out.size());
        return out;
    }

    /** Fill every byte with @p value, one word store per 8 bytes;
     * restores the tail invariant. */
    void
    fillBytes(uint8_t value)
    {
        uint64_t w = value;
        w |= w << 8;
        w |= w << 16;
        w |= w << 32;
        const size_t nwords = sizeWords();
        for (size_t i = 0; i < nwords; ++i)
            words_[i] = w;
        if (nwords)
            words_[nwords - 1] &= tailMask();
    }

    /** All bits zero. */
    void
    clear()
    {
        std::memset(words_, 0, sizeWords() * sizeof(uint64_t));
    }

    /** All valid bits one (tail invariant preserved). */
    void
    setAll()
    {
        const size_t nwords = sizeWords();
        for (size_t i = 0; i < nwords; ++i)
            words_[i] = ~uint64_t{0};
        if (nwords)
            words_[nwords - 1] &= tailMask();
    }

    /** Word-for-word copy from a same-sized plane. */
    void
    copyFrom(const BitPlane &src)
    {
        std::memcpy(words_, src.words_, sizeWords() * sizeof(uint64_t));
    }

    /** Number of set bits across the plane. */
    uint64_t
    popcount() const
    {
        uint64_t n = 0;
        const size_t nwords = sizeWords();
        for (size_t i = 0; i < nwords; ++i)
            n += std::popcount(words_[i]);
        return n;
    }

  private:
    uint64_t *words_ = nullptr;
    uint64_t nbits_ = 0;
};

/**
 * Bump allocator for word planes. Allocations are zeroed, 64-byte
 * aligned, and live until the arena is destroyed.
 * Move-only: planes hold raw pointers into the arena's blocks, and the
 * blocks survive a move, so views stay valid when the owning structure
 * is moved (e.g. FingerprintPlanes into the cache).
 */
class PlaneArena
{
  public:
    PlaneArena() = default;
    PlaneArena(PlaneArena &&) = default;
    PlaneArena &operator=(PlaneArena &&) = default;
    PlaneArena(const PlaneArena &) = delete;
    PlaneArena &operator=(const PlaneArena &) = delete;

    /** Words an allocWords(@p nwords) call actually consumes: requests
     * are rounded up to a whole cache line so every span starts 64-byte
     * aligned. */
    static constexpr size_t
    alignWords(size_t nwords)
    {
        return (nwords + 7) & ~size_t{7};
    }

    /**
     * Ensure the next allocations up to @p nwords total fit one block.
     * Callers that know their full plane budget (a MemoryArray's
     * stored-bits + loss planes, a FingerprintPlanes triple) reserve
     * the sum of the alignWords() of each span so the arena holds
     * exactly one tight block.
     */
    void reserve(size_t nwords);

    /** Zeroed span of @p nwords words, 64-byte aligned. */
    uint64_t *allocWords(size_t nwords);

    /** Zeroed plane of @p nbits cells. */
    BitPlane
    allocBits(uint64_t nbits)
    {
        return BitPlane(allocWords(BitPlane::wordsFor(nbits)), nbits);
    }

    /** Total bytes backing the arena's blocks (the footprint). */
    size_t bytesReserved() const;
    /** Bytes actually handed out to planes. */
    size_t
    bytesUsed() const
    {
        return used_words_ * sizeof(uint64_t);
    }
    size_t blockCount() const { return blocks_.size(); }

  private:
    struct Deleter
    {
        Deleter() : mapped_bytes(0) {}
        explicit Deleter(size_t mapped) : mapped_bytes(mapped) {}
        void operator()(uint64_t *p) const;
        /** Nonzero for a block mapped from the OS: its length. */
        size_t mapped_bytes;
    };
    struct Block
    {
        std::unique_ptr<uint64_t[], Deleter> words;
        size_t capacity = 0;
        size_t used = 0;
    };

    /** Floor for fresh blocks so many tiny planes don't each pay a
     * heap allocation (512 words = 4 KiB). */
    static constexpr size_t kMinBlockWords = 512;
    /** Blocks this big or bigger (whole arrays' planes, not pages') are
     * mapped from the OS and, on release, pooled for reuse at the same
     * size. From the malloc heap they would leave die-sized holes that
     * later dies fit into only by luck, so peak RSS would depend on
     * heap layout, not on live data. */
    static constexpr size_t kMapBlockBytes = size_t{256} << 10;

    Block &growBlock(size_t at_least_words);

    std::vector<Block> blocks_;
    size_t used_words_ = 0;
};

} // namespace voltboot

#endif // VOLTBOOT_SIM_PLANE_ARENA_HH
