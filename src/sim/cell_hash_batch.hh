/**
 * @file
 * Batched per-cell hashing and mask derivation for the retention fast
 * kernels.
 *
 * The threshold kernels in src/sram/ spend their time deriving
 * CellRng::bits(cell, channel) for runs of consecutive cells. The
 * splitmix64 chains of neighbouring cells are independent, so they map
 * directly onto 64-bit vector lanes; on x86-64 hosts with AVX-512DQ
 * (vpmullq: eight 64-bit multiplies per instruction) the batched path
 * computes eight chains at once. Lane arithmetic is identical mod 2^64
 * to the scalar path, so results are bit-exact with CellRng::bits —
 * hosts without the extension (or builds configured with
 * -DVOLTBOOT_DISABLE_AVX512=ON) take the scalar loop and produce the
 * same values.
 *
 * Beyond raw hash batches, this header derives the *word masks* the
 * bit-sliced SoA plane kernels consume directly: one call classifies up
 * to 64 cells against a ThresholdBand (or extracts 64 power-up bits)
 * into a single uint64_t, with no per-cell scatter loop on the caller's
 * side. On AVX-512 the compare itself happens in the vector domain
 * (compare-to-mask), so a 64-cell word costs eight compare
 * instructions.
 */

#ifndef VOLTBOOT_SIM_CELL_HASH_BATCH_HH
#define VOLTBOOT_SIM_CELL_HASH_BATCH_HH

#include <cstdint>

#include "sim/rng.hh"

namespace voltboot
{

/**
 * out[i] = rng.bits(keys[i], channel) for arbitrary (non-consecutive)
 * key values, bit-exact with per-cell CellRng::bits on every host —
 * used for metastable re-roll draws, whose per-cell key is
 * hashCombine(cell, nonce).
 */
void cellBitsBatchIndexed(const CellRng &rng, const uint64_t *keys,
                          uint64_t channel, unsigned n, uint64_t *out);

/**
 * Word-parallel threshold classification for n <= 64 consecutive
 * cells: returns a mask whose bit i is set iff
 * rng.rawUniform(cell0 + i, channel) >= band_lo. *in_band gets the
 * mask of cells whose raw value lands inside [band_lo, band_hi) —
 * the guard band the caller must resolve with the exact scalar
 * predicate. Bits at or above n are zero in both masks.
 */
uint64_t cellBandMaskBatch(const CellRng &rng, uint64_t cell0,
                           uint64_t channel, unsigned n,
                           uint64_t band_lo, uint64_t band_hi,
                           uint64_t *in_band);

/**
 * Power-up-bit extraction for n <= 64 consecutive cells: bit i of the
 * result is rng.bits(cell0 + i, channel) & 1. This is the fingerprint
 * plane derivation reduced to one mask op per 8 cells.
 */
uint64_t cellLsbMaskBatch(const CellRng &rng, uint64_t cell0,
                          uint64_t channel, unsigned n);

/** True when the wide-lane path is compiled in and the CPU supports
 * it (diagnostics/benchmarks; callers never need to check). */
bool cellHashBatchAccelerated();

} // namespace voltboot

#endif // VOLTBOOT_SIM_CELL_HASH_BATCH_HH
