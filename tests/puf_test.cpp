/**
 * @file
 * Tests for the SRAM PUF and TRNG built on power-up state — the
 * Section 5.2.4 applications that keep vendors from resetting SRAM at
 * boot (and thereby enable Volt Boot).
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "sram/puf.hh"

namespace voltboot
{
namespace
{

TEST(SramPuf, EnrollAndAuthenticateSameChip)
{
    SramArray array("chip", 2048, 0xCAFE, 1);
    SramPuf puf(array);
    puf.enroll();
    ASSERT_TRUE(puf.enrolled());
    double hd = 1.0;
    EXPECT_TRUE(puf.authenticate(&hd));
    // Intra-chip noise stays well below the threshold.
    EXPECT_LT(hd, 0.15);
    EXPECT_GT(hd, 0.01); // metastable cells keep it nonzero
}

TEST(SramPuf, RejectsADifferentChip)
{
    SramArray genuine("a", 2048, 0xCAFE, 1);
    SramPuf puf(genuine);
    puf.enroll();

    // A clone with different silicon tries to pass with its own
    // power-up state.
    SramArray clone("b", 2048, 0xD00D, 1);
    SramPuf clone_puf(clone);
    const MemoryImage impostor = clone_puf.observe();
    const double hd =
        MemoryImage::fractionalHamming(impostor, puf.reference());
    EXPECT_GT(hd, 0.4); // near the ideal 0.5 inter-chip distance
}

TEST(SramPuf, MajorityVotingBeatsSingleObservation)
{
    // The voted reference should be closer to subsequent observations
    // than any single observation is to another.
    SramArray array("chip", 4096, 0xBEEF, 1);
    SramPuf puf(array, /*vote_rounds=*/7);
    const MemoryImage first = puf.observe();
    double single_total = 0;
    for (int i = 0; i < 5; ++i)
        single_total += MemoryImage::fractionalHamming(puf.observe(), first);
    const double single = single_total / 5;
    puf.enroll();
    double voted_total = 0;
    for (int i = 0; i < 5; ++i) {
        double hd;
        puf.authenticate(&hd);
        voted_total += hd;
    }
    EXPECT_LT(voted_total / 5, single);
}

TEST(SramPuf, AuthenticateRequiresEnrollment)
{
    SramArray array("chip", 256, 1, 1);
    SramPuf puf(array);
    EXPECT_THROW(puf.authenticate(), FatalError);
}

TEST(PufMetrics, PopulationStatistics)
{
    const PufMetrics m = measurePufMetrics(1024, 6, 4);
    // Intra-chip: ~metastable/2 = 0.09 with the calibrated fraction.
    EXPECT_GT(m.intra_chip_hd, 0.04);
    EXPECT_LT(m.intra_chip_hd, 0.14);
    // Inter-chip: close to ideal 0.5.
    EXPECT_NEAR(m.inter_chip_hd, 0.5, 0.03);
    EXPECT_NEAR(m.uniformity, 0.5, 0.03);
}

TEST(SramTrng, CalibratesToMetastableFraction)
{
    SramArray array("chip", 4096, 0xF00D, 1);
    SramTrng trng(array);
    trng.calibrate(8);
    const double fraction =
        static_cast<double>(trng.noisyCellCount()) / array.sizeBits();
    // With 8 rounds most metastable cells show themselves at least once
    // (strongly biased ones may not), so the count approaches but stays
    // below the configured metastable fraction of 0.27.
    EXPECT_GT(fraction, 0.17);
    EXPECT_LT(fraction, 0.27);
}

TEST(SramTrng, HarvestedBitsLookRandom)
{
    SramArray array("chip", 8192, 0x7217, 1);
    SramTrng trng(array);
    trng.calibrate(8);
    const auto bits = trng.harvest(4000);
    ASSERT_EQ(bits.size(), 4000u);
    EXPECT_LT(SramTrng::bias(bits), 0.05);
    EXPECT_LT(std::abs(SramTrng::serialCorrelation(bits)), 0.05);
}

TEST(SramTrng, HarvestRequiresCalibration)
{
    SramArray array("chip", 256, 1, 2);
    SramTrng trng(array);
    EXPECT_THROW(trng.harvest(8), FatalError);
}

TEST(SramTrng, DifferentHarvestsDiffer)
{
    SramArray array("chip", 4096, 0xAB, 1);
    SramTrng trng(array);
    trng.calibrate(8);
    const auto a = trng.harvest(256);
    const auto b = trng.harvest(256);
    EXPECT_NE(a, b);
}

} // namespace
} // namespace voltboot
