/**
 * @file
 * Tests for the error-correcting AES key reconstruction, including the
 * end-to-end DRAM cold boot scenario it enables (the classic attack the
 * paper's on-chip schemes were built to stop).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <span>

#include "crypto/aes.hh"
#include "crypto/key_corrector.hh"
#include "crypto/key_finder.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "soc/soc.hh"

namespace voltboot
{
namespace
{

std::vector<uint8_t>
testKey(size_t bytes, uint64_t seed = 42)
{
    Rng rng(seed);
    std::vector<uint8_t> key(bytes);
    for (auto &b : key)
        b = static_cast<uint8_t>(rng.next());
    return key;
}

std::vector<uint8_t>
corrupt(std::vector<uint8_t> data, double ber, uint64_t seed)
{
    Rng rng(seed);
    for (auto &b : data)
        for (int bit = 0; bit < 8; ++bit)
            if (rng.uniform() < ber)
                b ^= 1u << bit;
    return data;
}

TEST(KeyCorrector, CleanScheduleNeedsNoWork)
{
    const auto key = testKey(16);
    const auto sched = Aes::expandKey(key);
    KeyCorrector corrector;
    const auto r = corrector.correct(sched, 16);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->key, key);
    EXPECT_EQ(r->key_bits_flipped, 0u);
    EXPECT_EQ(r->residual_bit_errors, 0u);
}

TEST(KeyCorrector, RepairsErrorsInDerivedBytes)
{
    const auto key = testKey(16, 7);
    auto sched = Aes::expandKey(key);
    // Corrupt only derived bytes: the observed key bytes are intact, so
    // correction reduces to verification.
    for (size_t i = 20; i < sched.size(); i += 13)
        sched[i] ^= 0x10;
    KeyCorrector corrector;
    const auto r = corrector.correct(sched, 16);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->key, key);
}

TEST(KeyCorrector, RepairsErrorsInTheKeyBytesThemselves)
{
    const auto key = testKey(16, 9);
    auto sched = Aes::expandKey(key);
    // Flip three bits inside the master-key bytes.
    sched[1] ^= 0x04;
    sched[7] ^= 0x80;
    sched[15] ^= 0x01;
    KeyCorrector corrector;
    const auto r = corrector.correct(sched, 16);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->key, key);
    EXPECT_EQ(r->key_bits_flipped, 3u);
    // The residual is the window's own three corrupted key-byte bits:
    // the reconstructed (true) key disagrees with them by construction.
    EXPECT_EQ(r->residual_bit_errors, 3u);
}

class CorrectorBerSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(CorrectorBerSweep, RecoversAtLowBer)
{
    const double ber = GetParam();
    const auto key = testKey(16, 11);
    int recovered = 0;
    const int trials = 8;
    KeyCorrector corrector;
    for (int t = 0; t < trials; ++t) {
        const auto noisy =
            corrupt(Aes::expandKey(key), ber, 100 + t);
        const auto r = corrector.correct(noisy, 16);
        recovered += r && r->key == key;
    }
    // <=1% BER: the greedy search should almost always converge.
    EXPECT_GE(recovered, trials - 1) << "at BER " << ber;
}

INSTANTIATE_TEST_SUITE_P(LowBer, CorrectorBerSweep,
                         ::testing::Values(0.001, 0.005, 0.01));

TEST(KeyCorrector, GivesUpOnGarbage)
{
    Rng rng(5);
    std::vector<uint8_t> junk(176);
    for (auto &b : junk)
        b = static_cast<uint8_t>(rng.next());
    KeyCorrector corrector;
    EXPECT_FALSE(corrector.correct(junk, 16).has_value());
}

TEST(KeyCorrector, GarbageBailsDeterministicallyBeforeSearching)
{
    // Random data sits at ~50% residual fraction — the bistable-SRAM
    // cold-boot regime. The noise gate must recognise it in one pass
    // and report a structured reason instead of burning the iteration
    // budget on schedule expansions.
    Rng rng(5);
    std::vector<uint8_t> junk(176);
    for (auto &b : junk)
        b = static_cast<uint8_t>(rng.next());
    EXPECT_GT(KeyCorrector::linearResidualFraction(junk, 16), 0.40);

    KeyCorrector corrector;
    const auto attempt = corrector.attempt(junk, 16);
    EXPECT_FALSE(attempt.key.has_value());
    EXPECT_EQ(attempt.gave_up, GiveUpReason::ErrorFloor);
    EXPECT_EQ(attempt.iterations, 0u);
    // One distance eval to report the residual; no local search.
    EXPECT_LE(attempt.distance_evals, 1u);
}

TEST(KeyCorrector, ResidualFractionTracksChannelNoise)
{
    const auto key = testKey(16, 17);
    const auto clean = Aes::expandKey(key);
    EXPECT_EQ(KeyCorrector::linearResidualFraction(clean, 16), 0.0);
    // A true schedule at BER p violates ~3p of its relation bits.
    const auto noisy = corrupt(clean, 0.02, 4242);
    const double frac = KeyCorrector::linearResidualFraction(noisy, 16);
    EXPECT_GT(frac, 0.01);
    EXPECT_LT(frac, 0.15);
}

TEST(KeyCorrector, AttemptReportsSuccessWithNoReason)
{
    const auto key = testKey(16, 19);
    auto sched = Aes::expandKey(key);
    sched[2] ^= 0x08;
    KeyCorrector corrector;
    const auto attempt = corrector.attempt(sched, 16);
    ASSERT_TRUE(attempt.key.has_value());
    EXPECT_EQ(attempt.key->key, key);
    EXPECT_EQ(attempt.gave_up, GiveUpReason::None);
    EXPECT_GT(attempt.distance_evals, 0u);
}

TEST(KeyCorrector, ResidualWordRelationsHoldOnIdealSchedules)
{
    // Every relation word set must be XOR-exact on a clean schedule,
    // for all three key sizes.
    for (size_t kb : {16u, 24u, 32u}) {
        const auto sched = Aes::expandKey(testKey(kb, 23));
        const unsigned nk = static_cast<unsigned>(kb / 4);
        for (unsigned i : scheduleResidualWords(kb)) {
            uint32_t w[3];
            std::memcpy(&w[0], sched.data() + 4 * i, 4);
            std::memcpy(&w[1], sched.data() + 4 * (i - 1), 4);
            std::memcpy(&w[2], sched.data() + 4 * (i - nk), 4);
            EXPECT_EQ(w[0] ^ w[1] ^ w[2], 0u)
                << "key bytes " << kb << " word " << i;
        }
    }
}

TEST(KeyCorrector, RejectsBadPriorSizes)
{
    const auto sched = Aes::expandKey(testKey(16, 29));
    KeyCorrector corrector;
    const std::vector<float> wrong(64, 0.1f);
    EXPECT_THROW(corrector.attempt(sched, 16, wrong), FatalError);
}

TEST(KeyCorrector, Handles256BitKeys)
{
    const auto key = testKey(32, 13);
    auto sched = Aes::expandKey(key);
    sched[3] ^= 0x40; // one key-byte error
    sched[60] ^= 0x02;
    KeyCorrector corrector;
    const auto r = corrector.correct(sched, 32);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->key, key);
}

TEST(RobustKeyScanner, FirstRoundMismatchMatchesFullExpansion)
{
    // Seeded windows: clean schedules, schedules at a few error rates,
    // and random bytes. The one-round prefilter must give exactly what
    // comparing against a whole expanded schedule gives.
    for (size_t kb : {16u, 24u, 32u}) {
        for (uint64_t seed = 0; seed < 200; ++seed) {
            SCOPED_TRACE(testing::Message() << kb << " B key, seed " << seed);
            std::vector<uint8_t> window =
                Aes::expandKey(testKey(kb, 1000 + seed));
            const double bers[] = {0.0, 0.01, 0.1, 0.5};
            window = corrupt(std::move(window), bers[seed % 4], seed);
            const std::vector<uint8_t> ideal =
                Aes::expandKey(std::span(window).first(kb));
            size_t errors = 0;
            for (size_t i = kb; i < kb + 16; ++i)
                errors += std::popcount(
                    static_cast<uint8_t>(window[i] ^ ideal[i]));
            EXPECT_EQ(RobustKeyScanner::firstRoundMismatch(window, kb),
                      static_cast<double>(errors) / (16.0 * 8.0));
        }
    }
    std::vector<uint8_t> window(240, 0x5a);
    EXPECT_THROW(RobustKeyScanner::firstRoundMismatch(window, 20),
                 FatalError);
}

TEST(KeyCorrector, RejectsBadSizes)
{
    std::vector<uint8_t> window(240, 0);
    KeyCorrector corrector;
    EXPECT_THROW(corrector.correct(window, 20), FatalError);
    std::vector<uint8_t> tiny(100, 0);
    EXPECT_THROW(corrector.correct(tiny, 16), FatalError);
}

// --- the classic DRAM cold boot, end to end on our substrate ---

/** Run the Halderman scenario at @p celsius; return true if the key was
 * recovered from the post-transplant DRAM image. */
bool
dramColdBoot(double celsius, Seconds off_time)
{
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();

    // Victim: a disk-encryption key schedule sits in DRAM (the normal,
    // pre-TRESOR world).
    const auto key = testKey(16, 21);
    const auto sched = Aes::expandKey(key);
    soc.dramArray().write(0x40000, sched);

    // Chill, cut power for the transplant window, repower (the attacker
    // machine), dump the DRAM.
    soc.setAmbient(Temperature::celsius(celsius));
    soc.powerCycle(off_time);
    std::vector<uint8_t> window(176 + 64);
    soc.dramArray().read(0x40000, window);

    // Scan with correction: decayed master-key bytes defeat the plain
    // scanner, so the robust path pre-filters on first-round consistency
    // and repairs candidates.
    RobustKeyScanner scanner{KeyCorrector{}};
    const auto hit = scanner.best(MemoryImage(window), 16);
    return hit && hit->corrected.key == key;
}

TEST(DramColdBoot, SucceedsWhenChilled)
{
    // -50 degC, 10 s transplant: the classic attack works on DRAM.
    EXPECT_TRUE(dramColdBoot(-50.0, Seconds(10.0)));
}

TEST(DramColdBoot, SucceedsAtRoomTempForFastSwaps)
{
    // Room temperature with a sub-second swap also works — DRAM's
    // retention is just that long.
    EXPECT_TRUE(dramColdBoot(25.0, Seconds::milliseconds(200)));
}

TEST(DramColdBoot, FailsWhenWarmAndSlow)
{
    // A slow warm swap decays too much for even the corrector.
    EXPECT_FALSE(dramColdBoot(25.0, Seconds(30.0)));
}

} // namespace
} // namespace voltboot
