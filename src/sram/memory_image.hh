/**
 * @file
 * Bit-level memory images and the analysis primitives used throughout the
 * paper's evaluation: Hamming distance, ones-density, per-block error
 * profiles (Figure 10), visual bitmaps (Figures 3/7/8/9) and pattern
 * search (the "grep the i-cache" step of Section 7.1.2).
 */

#ifndef VOLTBOOT_SRAM_MEMORY_IMAGE_HH
#define VOLTBOOT_SRAM_MEMORY_IMAGE_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace voltboot
{

/** An immutable snapshot of memory contents taken during an attack. */
class MemoryImage
{
  public:
    MemoryImage() = default;
    explicit MemoryImage(std::vector<uint8_t> bytes)
        : bytes_(std::move(bytes))
    {}

    /** Construct filled with @p value. */
    static MemoryImage filled(size_t size, uint8_t value);

    const std::vector<uint8_t> &bytes() const { return bytes_; }
    size_t sizeBytes() const { return bytes_.size(); }
    size_t sizeBits() const { return bytes_.size() * 8; }
    bool empty() const { return bytes_.empty(); }
    uint8_t byteAt(size_t i) const { return bytes_.at(i); }

    /** Bit value at bit index @p bit (LSB-first within each byte). */
    bool bitAt(size_t bit) const;

    /** A sub-range [offset, offset+length) of the image. */
    MemoryImage slice(size_t offset, size_t length) const;

    /** Number of bits set across the image. */
    size_t popcount() const;

    /** Fraction of bits set (~0.5 for an uninitialised SRAM image). */
    double onesDensity() const;

    /** Shannon entropy of the byte distribution, in bits per byte. */
    double byteEntropy() const;

    /** Number of differing bits between two equal-sized images. */
    static size_t hammingDistance(const MemoryImage &a, const MemoryImage &b);

    /** Hamming distance normalised by total bits (0 = identical). */
    static double fractionalHamming(const MemoryImage &a,
                                    const MemoryImage &b);

    /**
     * Hamming distance per @p granularity_bits block — the Figure 10
     * error-location profile. The last partial block (if any) is included.
     */
    static std::vector<size_t> blockHamming(const MemoryImage &a,
                                            const MemoryImage &b,
                                            size_t granularity_bits);

    /**
     * Byte offsets of every occurrence of @p needle (may overlap) —
     * used to grep an i-cache dump for known machine code.
     */
    std::vector<size_t> findAll(std::span<const uint8_t> needle) const;

    /** True if @p needle occurs at least once. */
    bool contains(std::span<const uint8_t> needle) const;

    /**
     * Render the bit image as a PBM (portable bitmap, P1) of the given
     * width in bits; height derives from the image size. This is how the
     * cache/iRAM figures are produced.
     */
    std::string toPbm(size_t width_bits) const;

    /** Classic 16-byte-per-line hex dump (debugging aid). */
    std::string hexdump(size_t max_bytes = 256) const;

  private:
    std::vector<uint8_t> bytes_;
};

} // namespace voltboot

#endif // VOLTBOOT_SRAM_MEMORY_IMAGE_HH
