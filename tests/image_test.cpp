/**
 * @file
 * Tests for MemoryImage: Hamming metrics, block profiles, pattern search,
 * element recovery and image export.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "sram/memory_image.hh"

namespace voltboot
{
namespace
{

TEST(MemoryImage, PopcountAndDensity)
{
    MemoryImage img({0xFF, 0x00, 0x0F});
    EXPECT_EQ(img.popcount(), 12u);
    EXPECT_DOUBLE_EQ(img.onesDensity(), 12.0 / 24.0);
}

TEST(MemoryImage, BitAtIsLsbFirst)
{
    MemoryImage img({0x01, 0x80});
    EXPECT_TRUE(img.bitAt(0));
    EXPECT_FALSE(img.bitAt(1));
    EXPECT_FALSE(img.bitAt(8));
    EXPECT_TRUE(img.bitAt(15));
    EXPECT_THROW(img.bitAt(16), PanicError);
}

TEST(MemoryImage, HammingDistance)
{
    MemoryImage a({0xFF, 0x00});
    MemoryImage b({0x0F, 0x00});
    EXPECT_EQ(MemoryImage::hammingDistance(a, b), 4u);
    EXPECT_DOUBLE_EQ(MemoryImage::fractionalHamming(a, b), 0.25);
    EXPECT_EQ(MemoryImage::hammingDistance(a, a), 0u);
}

TEST(MemoryImage, HammingRequiresEqualSizes)
{
    MemoryImage a({1, 2}), b({1});
    EXPECT_THROW(MemoryImage::hammingDistance(a, b), PanicError);
}

TEST(MemoryImage, BlockHammingProfile)
{
    // 4 blocks of 8 bytes: errors only in block 2.
    std::vector<uint8_t> x(32, 0), y(32, 0);
    y[16] = 0xFF;
    y[17] = 0x01;
    const auto profile = MemoryImage::blockHamming(
        MemoryImage(x), MemoryImage(y), 64);
    ASSERT_EQ(profile.size(), 4u);
    EXPECT_EQ(profile[0], 0u);
    EXPECT_EQ(profile[1], 0u);
    EXPECT_EQ(profile[2], 9u);
    EXPECT_EQ(profile[3], 0u);
}

TEST(MemoryImage, BlockHammingRejectsBadGranularity)
{
    MemoryImage a({0}), b({0});
    EXPECT_THROW(MemoryImage::blockHamming(a, b, 7), FatalError);
    EXPECT_THROW(MemoryImage::blockHamming(a, b, 0), FatalError);
}

TEST(MemoryImage, FindAllLocatesPatterns)
{
    MemoryImage img({1, 2, 3, 1, 2, 3, 1, 2});
    const std::vector<uint8_t> needle{1, 2, 3};
    const auto hits = img.findAll(needle);
    EXPECT_EQ(hits, (std::vector<size_t>{0, 3}));
    EXPECT_TRUE(img.contains(needle));
    const std::vector<uint8_t> absent{9, 9};
    EXPECT_FALSE(img.contains(absent));
}

TEST(MemoryImage, FindAllHandlesOverlaps)
{
    MemoryImage img({7, 7, 7, 7});
    const std::vector<uint8_t> needle{7, 7};
    EXPECT_EQ(img.findAll(needle).size(), 3u);
}

TEST(MemoryImage, SliceAndEntropy)
{
    MemoryImage img({0, 0, 0, 0, 1, 2, 3, 4});
    const MemoryImage tail = img.slice(4, 4);
    EXPECT_EQ(tail.bytes(), (std::vector<uint8_t>{1, 2, 3, 4}));
    EXPECT_THROW(img.slice(6, 4), PanicError);
    EXPECT_DOUBLE_EQ(MemoryImage::filled(16, 0xAA).byteEntropy(), 0.0);
    EXPECT_EQ(tail.byteEntropy(), 2.0); // four distinct bytes
}

TEST(MemoryImage, PbmExport)
{
    MemoryImage img({0x03}); // bits 0,1 set
    const std::string pbm = img.toPbm(8);
    EXPECT_EQ(pbm.rfind("P1\n8 1\n", 0), 0u);
    EXPECT_NE(pbm.find("1 1 0 0 0 0 0 0"), std::string::npos);
}

TEST(MemoryImage, HexdumpTruncates)
{
    MemoryImage img(std::vector<uint8_t>(64, 0xCD));
    const std::string dump = img.hexdump(16);
    EXPECT_NE(dump.find("cd cd"), std::string::npos);
    EXPECT_NE(dump.find("more bytes"), std::string::npos);
}

TEST(MemoryImage, EmptyImageIsSane)
{
    MemoryImage img;
    EXPECT_TRUE(img.empty());
    EXPECT_DOUBLE_EQ(img.onesDensity(), 0.0);
    EXPECT_DOUBLE_EQ(img.byteEntropy(), 0.0);
    const std::vector<uint8_t> needle{1};
    EXPECT_FALSE(img.contains(needle));
}

} // namespace
} // namespace voltboot
