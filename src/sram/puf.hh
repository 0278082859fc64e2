/**
 * @file
 * SRAM power-up-state applications: PUF and TRNG.
 *
 * Section 5.2.4 explains why vendors ship SoCs whose SRAM powers up
 * uninitialised — the startup state has security applications: physical
 * unclonable functions (Holcomb et al.) and true random number
 * generation. That design choice is one of Volt Boot's enablers (no
 * reset hardware exists to clear retained data), so this module makes
 * the trade-off concrete and measurable: the same metastable-cell
 * physics that gives a usable PUF/TRNG is what a boot-time reset
 * countermeasure would destroy.
 */

#ifndef VOLTBOOT_SRAM_PUF_HH
#define VOLTBOOT_SRAM_PUF_HH

#include <cstdint>
#include <vector>

#include "sram/memory_array.hh"
#include "sram/memory_image.hh"

namespace voltboot
{

/** Quality metrics of an SRAM PUF over a set of observations. */
struct PufMetrics
{
    /** Mean fractional HD between repeated power-ups of one chip
     * (lower = more reliable; ~metastable_fraction / 2). */
    double intra_chip_hd = 0.0;
    /** Mean fractional HD between different chips (ideal 0.5). */
    double inter_chip_hd = 0.0;
    /** Fraction of ones across observations (ideal 0.5). */
    double uniformity = 0.0;
};

/**
 * An SRAM power-up PUF over a MemoryArray.
 *
 * Enrollment captures a reference fingerprint (with majority voting over
 * several power-ups to mask metastable cells); authentication power-
 * cycles the array and accepts when the fractional HD to the reference
 * is below a threshold sized between the intra- and inter-chip
 * distributions.
 */
class SramPuf
{
  public:
    /**
     * @param array       The SRAM whose power-up state is the PUF.
     * @param vote_rounds Power-ups used for majority-vote enrollment.
     * @param threshold   Accept when fractional HD < threshold.
     */
    SramPuf(MemoryArray &array, unsigned vote_rounds = 5,
            double threshold = 0.25)
        : array_(array), vote_rounds_(vote_rounds), threshold_(threshold)
    {}

    /** Capture one raw power-up observation (power cycles the array). */
    MemoryImage observe();

    /** Enroll: build the majority-voted reference fingerprint. */
    void enroll();

    bool enrolled() const { return !reference_.empty(); }
    const MemoryImage &reference() const { return reference_img_; }

    /**
     * Authenticate the chip: fresh power-up, compare to the reference.
     * @param out_hd Receives the measured fractional HD if non-null.
     */
    bool authenticate(double *out_hd = nullptr);

  private:
    MemoryArray &array_;
    unsigned vote_rounds_;
    double threshold_;
    std::vector<uint8_t> reference_;
    MemoryImage reference_img_;
};

/**
 * TRNG harvesting the metastable cells of SRAM power-up state.
 *
 * Enrollment identifies cells that flip across power-ups; extraction
 * reads only those cells on each power-up and Von Neumann-debiases
 * consecutive pairs into output bits.
 */
class SramTrng
{
  public:
    explicit SramTrng(MemoryArray &array) : array_(array) {}

    /** Find metastable cells by differencing @p rounds power-ups. */
    void calibrate(unsigned rounds = 6);

    size_t noisyCellCount() const { return noisy_cells_.size(); }

    /**
     * Harvest up to @p bits random bits (may power-cycle the array
     * multiple times). Returns the debiased bitstream.
     */
    std::vector<bool> harvest(size_t bits);

    /** Monobit frequency statistic: |#1 - #0| / n (small is good). */
    static double bias(const std::vector<bool> &bits);

    /** Serial correlation between adjacent bits (near 0 is good). */
    static double serialCorrelation(const std::vector<bool> &bits);

  private:
    MemoryArray &array_;
    std::vector<uint64_t> noisy_cells_;
};

/** Survey PUF quality across a population of simulated chips. */
PufMetrics measurePufMetrics(size_t array_bytes, size_t chips,
                             unsigned observations_per_chip,
                             uint64_t seed_base = 0x90f);

} // namespace voltboot

#endif // VOLTBOOT_SRAM_PUF_HH
