#include "sim/cell_hash_batch.hh"

#include "telemetry/counters.hh"

#if defined(__x86_64__) && defined(__GNUC__) && \
    !defined(VOLTBOOT_DISABLE_AVX512)
#include <immintrin.h>
#define VOLTBOOT_X86_WIDE_LANES 1
#else
#define VOLTBOOT_X86_WIDE_LANES 0
#endif

namespace voltboot
{

namespace
{

#if VOLTBOOT_X86_WIDE_LANES

bool
wideLanesSupported()
{
    static const bool ok = __builtin_cpu_supports("avx512f") &&
                           __builtin_cpu_supports("avx512dq");
    return ok;
}

/** splitmix64 in eight 64-bit lanes (identical mod 2^64 per lane). */
__attribute__((target("avx512f,avx512dq"))) inline __m512i
splitmixLanes(__m512i x)
{
    const __m512i inc = _mm512_set1_epi64(
        static_cast<long long>(0x9e3779b97f4a7c15ULL));
    const __m512i m1 = _mm512_set1_epi64(
        static_cast<long long>(0xbf58476d1ce4e5b9ULL));
    const __m512i m2 = _mm512_set1_epi64(
        static_cast<long long>(0x94d049bb133111ebULL));
    x = _mm512_add_epi64(x, inc);
    x = _mm512_mullo_epi64(
        _mm512_xor_si512(x, _mm512_srli_epi64(x, 30)), m1);
    x = _mm512_mullo_epi64(
        _mm512_xor_si512(x, _mm512_srli_epi64(x, 27)), m2);
    return _mm512_xor_si512(x, _mm512_srli_epi64(x, 31));
}

/** Broadcast constants of the bits() chain for a fixed (base, channel). */
struct ChainConsts
{
    __m512i chan_k;
    __m512i base_v;
    __m512i base_k;
};

__attribute__((target("avx512f,avx512dq"))) inline ChainConsts
chainConsts(uint64_t base, uint64_t channel)
{
    constexpr uint64_t kInc = 0x9e3779b97f4a7c15ULL;
    ChainConsts c;
    c.chan_k =
        _mm512_set1_epi64(static_cast<long long>(channel + kInc));
    c.base_v = _mm512_set1_epi64(static_cast<long long>(base));
    c.base_k = _mm512_set1_epi64(
        static_cast<long long>(kInc + (base << 6) + (base >> 2)));
    return c;
}

/**
 * Eight bits() chains per call. The scalar chain is
 *
 *   inner  = splitmix64(cell ^ (channel + K + (cell<<6) + (cell>>2)))
 *   outer  = splitmix64(base ^ (inner + K + (base<<6) + (base>>2)))
 *   result = splitmix64(outer)
 *
 * with K the splitmix increment; every step is add/xor/shift/mullo,
 * identical mod 2^64 in 64-bit lanes.
 */
__attribute__((target("avx512f,avx512dq"))) inline __m512i
bitsLanes(const ChainConsts &c, __m512i cell)
{
    // hashCombine(cell, channel)
    __m512i t = _mm512_xor_si512(
        cell,
        _mm512_add_epi64(
            c.chan_k, _mm512_add_epi64(_mm512_slli_epi64(cell, 6),
                                       _mm512_srli_epi64(cell, 2))));
    const __m512i inner = splitmixLanes(t);
    // hashCombine(base, inner)
    t = _mm512_xor_si512(c.base_v, _mm512_add_epi64(inner, c.base_k));
    return splitmixLanes(splitmixLanes(t));
}

__attribute__((target("avx512f,avx512dq"))) void
cellBitsIndexedAvx512(uint64_t base, const uint64_t *keys,
                      uint64_t channel, unsigned n, uint64_t *out)
{
    const ChainConsts c = chainConsts(base, channel);
    unsigned i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i cell = _mm512_loadu_si512(keys + i);
        _mm512_storeu_si512(out + i, bitsLanes(c, cell));
    }
    for (; i < n; ++i)
        out[i] = splitmix64(
            hashCombine(base, hashCombine(keys[i], channel)));
}

__attribute__((target("avx512f,avx512dq"))) uint64_t
cellBandMaskAvx512(uint64_t base, uint64_t cell0, uint64_t channel,
                   unsigned n, uint64_t band_lo, uint64_t band_hi,
                   uint64_t *in_band)
{
    const ChainConsts c = chainConsts(base, channel);
    const __m512i lo_v =
        _mm512_set1_epi64(static_cast<long long>(band_lo));
    const __m512i hi_v =
        _mm512_set1_epi64(static_cast<long long>(band_hi));
    const __m512i step = _mm512_set1_epi64(8);
    __m512i cell = _mm512_add_epi64(
        _mm512_set1_epi64(static_cast<long long>(cell0)),
        _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
    uint64_t ge = 0, band = 0;
    unsigned i = 0;
    for (; i + 8 <= n; i += 8, cell = _mm512_add_epi64(cell, step)) {
        const __m512i raw = _mm512_srli_epi64(bitsLanes(c, cell), 11);
        const __mmask8 ge8 =
            _mm512_cmp_epu64_mask(raw, lo_v, _MM_CMPINT_NLT);
        const __mmask8 lt_hi8 =
            _mm512_cmp_epu64_mask(raw, hi_v, _MM_CMPINT_LT);
        ge |= static_cast<uint64_t>(ge8) << i;
        band |= static_cast<uint64_t>(ge8 & lt_hi8) << i;
    }
    for (; i < n; ++i) {
        const uint64_t raw =
            splitmix64(hashCombine(base, hashCombine(cell0 + i,
                                                     channel))) >>
            11;
        ge |= static_cast<uint64_t>(raw >= band_lo) << i;
        band |= static_cast<uint64_t>(raw >= band_lo && raw < band_hi)
                << i;
    }
    *in_band = band;
    return ge;
}

__attribute__((target("avx512f,avx512dq"))) uint64_t
cellLsbMaskAvx512(uint64_t base, uint64_t cell0, uint64_t channel,
                  unsigned n)
{
    const ChainConsts c = chainConsts(base, channel);
    const __m512i one = _mm512_set1_epi64(1);
    const __m512i step = _mm512_set1_epi64(8);
    __m512i cell = _mm512_add_epi64(
        _mm512_set1_epi64(static_cast<long long>(cell0)),
        _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
    uint64_t mask = 0;
    unsigned i = 0;
    for (; i + 8 <= n; i += 8, cell = _mm512_add_epi64(cell, step)) {
        const __mmask8 lsb =
            _mm512_test_epi64_mask(bitsLanes(c, cell), one);
        mask |= static_cast<uint64_t>(lsb) << i;
    }
    for (; i < n; ++i)
        mask |= (splitmix64(hashCombine(
                     base, hashCombine(cell0 + i, channel))) &
                 1)
                << i;
    return mask;
}

#endif // VOLTBOOT_X86_WIDE_LANES

} // namespace

bool
cellHashBatchAccelerated()
{
#if VOLTBOOT_X86_WIDE_LANES
    return wideLanesSupported();
#else
    return false;
#endif
}

void
cellBitsBatchIndexed(const CellRng &rng, const uint64_t *keys,
                     uint64_t channel, unsigned n, uint64_t *out)
{
    telemetry::noteHashBatch(n);
#if VOLTBOOT_X86_WIDE_LANES
    if (wideLanesSupported()) {
        cellBitsIndexedAvx512(rng.hashBase(), keys, channel, n, out);
        return;
    }
#endif
    for (unsigned i = 0; i < n; ++i)
        out[i] = rng.bits(keys[i], channel);
}

uint64_t
cellBandMaskBatch(const CellRng &rng, uint64_t cell0, uint64_t channel,
                  unsigned n, uint64_t band_lo, uint64_t band_hi,
                  uint64_t *in_band)
{
    telemetry::noteHashBatch(n);
#if VOLTBOOT_X86_WIDE_LANES
    if (wideLanesSupported())
        return cellBandMaskAvx512(rng.hashBase(), cell0, channel, n,
                                  band_lo, band_hi, in_band);
#endif
    uint64_t ge = 0, band = 0;
    for (unsigned i = 0; i < n; ++i) {
        const uint64_t raw = rng.rawUniform(cell0 + i, channel);
        ge |= static_cast<uint64_t>(raw >= band_lo) << i;
        band |= static_cast<uint64_t>(raw >= band_lo && raw < band_hi)
                << i;
    }
    *in_band = band;
    return ge;
}

uint64_t
cellLsbMaskBatch(const CellRng &rng, uint64_t cell0, uint64_t channel,
                 unsigned n)
{
    telemetry::noteHashBatch(n);
#if VOLTBOOT_X86_WIDE_LANES
    if (wideLanesSupported())
        return cellLsbMaskAvx512(rng.hashBase(), cell0, channel, n);
#endif
    uint64_t mask = 0;
    for (unsigned i = 0; i < n; ++i)
        mask |= (rng.bits(cell0 + i, channel) & 1) << i;
    return mask;
}

} // namespace voltboot
