/**
 * @file
 * Tests for the crypto module: AES correctness against the FIPS-197
 * reference vectors, key expansion structure, the key-schedule scanner,
 * and the TRESOR/CaSE on-chip victim models.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "crypto/aes.hh"
#include "crypto/key_finder.hh"
#include "crypto/onchip_crypto.hh"
#include "mem/cache.hh"
#include "mem/memory_system.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "soc/soc.hh"

namespace voltboot
{
namespace
{

std::vector<uint8_t>
fromHex(const std::string &hex)
{
    std::vector<uint8_t> out;
    for (size_t i = 0; i + 1 < hex.size(); i += 2)
        out.push_back(static_cast<uint8_t>(
            std::stoul(hex.substr(i, 2), nullptr, 16)));
    return out;
}

// FIPS-197 Appendix C known-answer vectors.
TEST(Aes, Fips197Aes128Vector)
{
    const auto key = fromHex("000102030405060708090a0b0c0d0e0f");
    const auto pt = fromHex("00112233445566778899aabbccddeeff");
    const auto want = fromHex("69c4e0d86a7b0430d8cdb78070b4c55a");
    Aes aes(key);
    std::array<uint8_t, 16> block;
    std::memcpy(block.data(), pt.data(), 16);
    aes.encryptBlock(block);
    EXPECT_EQ(std::vector<uint8_t>(block.begin(), block.end()), want);
    aes.decryptBlock(block);
    EXPECT_EQ(std::vector<uint8_t>(block.begin(), block.end()), pt);
}

TEST(Aes, Fips197Aes192Vector)
{
    const auto key =
        fromHex("000102030405060708090a0b0c0d0e0f1011121314151617");
    const auto pt = fromHex("00112233445566778899aabbccddeeff");
    const auto want = fromHex("dda97ca4864cdfe06eaf70a0ec0d7191");
    Aes aes(key);
    std::array<uint8_t, 16> block;
    std::memcpy(block.data(), pt.data(), 16);
    aes.encryptBlock(block);
    EXPECT_EQ(std::vector<uint8_t>(block.begin(), block.end()), want);
}

TEST(Aes, Fips197Aes256Vector)
{
    const auto key = fromHex("000102030405060708090a0b0c0d0e0f"
                             "101112131415161718191a1b1c1d1e1f");
    const auto pt = fromHex("00112233445566778899aabbccddeeff");
    const auto want = fromHex("8ea2b7ca516745bfeafc49904b496089");
    Aes aes(key);
    std::array<uint8_t, 16> block;
    std::memcpy(block.data(), pt.data(), 16);
    aes.encryptBlock(block);
    EXPECT_EQ(std::vector<uint8_t>(block.begin(), block.end()), want);
    aes.decryptBlock(block);
    EXPECT_EQ(std::vector<uint8_t>(block.begin(), block.end()), pt);
}

TEST(Aes, ScheduleSizes)
{
    EXPECT_EQ(Aes::expandKey(std::vector<uint8_t>(16, 0)).size(), 176u);
    EXPECT_EQ(Aes::expandKey(std::vector<uint8_t>(24, 0)).size(), 208u);
    EXPECT_EQ(Aes::expandKey(std::vector<uint8_t>(32, 0)).size(), 240u);
    EXPECT_THROW(Aes::expandKey(std::vector<uint8_t>(17, 0)), FatalError);
}

TEST(Aes, ScheduleStartsWithMasterKey)
{
    std::vector<uint8_t> key(16);
    for (int i = 0; i < 16; ++i)
        key[i] = static_cast<uint8_t>(i * 7 + 1);
    const auto sched = Aes::expandKey(key);
    EXPECT_TRUE(std::equal(key.begin(), key.end(), sched.begin()));
}

TEST(Aes, EcbRoundTrip)
{
    Rng rng(99);
    std::vector<uint8_t> key(32), data(256);
    for (auto &b : key)
        b = static_cast<uint8_t>(rng.next());
    for (auto &b : data)
        b = static_cast<uint8_t>(rng.next());
    Aes aes(key);
    EXPECT_EQ(aes.decryptEcb(aes.encryptEcb(data)), data);
    EXPECT_NE(aes.encryptEcb(data), data);
    EXPECT_THROW(aes.encryptEcb(std::vector<uint8_t>(15, 0)), FatalError);
}

class AesKeySweep : public ::testing::TestWithParam<size_t>
{
};

TEST_P(AesKeySweep, EncryptDecryptIsIdentity)
{
    Rng rng(GetParam());
    std::vector<uint8_t> key(GetParam());
    for (auto &b : key)
        b = static_cast<uint8_t>(rng.next());
    Aes aes(key);
    std::array<uint8_t, 16> block;
    for (auto &b : block)
        b = static_cast<uint8_t>(rng.next());
    const auto orig = block;
    aes.encryptBlock(block);
    aes.decryptBlock(block);
    EXPECT_EQ(block, orig);
}

INSTANTIATE_TEST_SUITE_P(KeySizes, AesKeySweep,
                         ::testing::Values(16, 24, 32));

// --- KeyFinder ---

MemoryImage
dumpWithSchedule(const std::vector<uint8_t> &key, size_t offset,
                 size_t total = 4096, uint64_t noise_seed = 5)
{
    Rng rng(noise_seed);
    std::vector<uint8_t> bytes(total);
    for (auto &b : bytes)
        b = static_cast<uint8_t>(rng.next());
    const auto sched = Aes::expandKey(key);
    std::copy(sched.begin(), sched.end(), bytes.begin() + offset);
    return MemoryImage(std::move(bytes));
}

TEST(KeyFinder, FindsCleanAes128Schedule)
{
    const std::vector<uint8_t> key =
        fromHex("2b7e151628aed2a6abf7158809cf4f3c");
    const MemoryImage dump = dumpWithSchedule(key, 1024);
    KeyFinder finder;
    const auto best = finder.best(dump);
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->offset, 1024u);
    EXPECT_EQ(best->key, key);
    EXPECT_EQ(best->bit_errors, 0u);
}

TEST(KeyFinder, FindsAes256Schedule)
{
    const std::vector<uint8_t> key = fromHex(
        "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
    const MemoryImage dump = dumpWithSchedule(key, 512);
    KeyFinderConfig cfg;
    cfg.aes128 = false;
    cfg.aes256 = true;
    KeyFinder finder(cfg);
    const auto best = finder.best(dump);
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->offset, 512u);
    EXPECT_EQ(best->key, key);
}

TEST(KeyFinder, NoFalsePositivesInRandomNoise)
{
    Rng rng(1234);
    std::vector<uint8_t> bytes(64 * 1024);
    for (auto &b : bytes)
        b = static_cast<uint8_t>(rng.next());
    KeyFinderConfig cfg;
    cfg.max_error_fraction = 0.0; // exact schedules only
    KeyFinder finder(cfg);
    EXPECT_TRUE(finder.scan(MemoryImage(std::move(bytes))).empty());
}

TEST(KeyFinder, ToleratesModestBitErrors)
{
    const std::vector<uint8_t> key =
        fromHex("2b7e151628aed2a6abf7158809cf4f3c");
    MemoryImage clean = dumpWithSchedule(key, 256);
    // Flip bits in the derived part of the schedule at ~2% BER (a mild
    // cold-boot-style corruption). The master key bytes stay intact so
    // recovery is exact.
    std::vector<uint8_t> bytes = clean.bytes();
    Rng rng(77);
    for (size_t i = 256 + 16; i < 256 + 176; ++i)
        for (int bit = 0; bit < 8; ++bit)
            if (rng.chance(0.02))
                bytes[i] ^= 1u << bit;
    KeyFinderConfig cfg;
    cfg.max_error_fraction = 0.10;
    KeyFinder finder(cfg);
    const auto best = finder.best(MemoryImage(std::move(bytes)));
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->key, key);
    EXPECT_GT(best->bit_errors, 0u);
}

TEST(KeyFinder, HeavyCorruptionDefeatsTheScan)
{
    // A 50%-wrong dump (the cold boot result on SRAM) yields nothing.
    const std::vector<uint8_t> key =
        fromHex("2b7e151628aed2a6abf7158809cf4f3c");
    MemoryImage clean = dumpWithSchedule(key, 256);
    std::vector<uint8_t> bytes = clean.bytes();
    Rng rng(78);
    for (auto &b : bytes)
        for (int bit = 0; bit < 8; ++bit)
            if (rng.chance(0.5))
                b ^= 1u << bit;
    KeyFinder finder; // 10% tolerance
    EXPECT_FALSE(finder.best(MemoryImage(std::move(bytes))).has_value());
}

TEST(KeyFinder, ScheduleBitErrorsIsZeroForIdealWindow)
{
    const std::vector<uint8_t> key(16, 0x42);
    const auto sched = Aes::expandKey(key);
    EXPECT_EQ(KeyFinder::scheduleBitErrors(sched, 16), 0u);
}

// --- On-chip crypto victims ---

TEST(TresorCipher, KeyLivesOnlyInVectorRegisters)
{
    Soc soc(SocConfig::bcm2837());
    soc.powerOn();
    const std::vector<uint8_t> key =
        fromHex("2b7e151628aed2a6abf7158809cf4f3c");
    TresorCipher tresor(soc.cpu(0), key);
    EXPECT_EQ(tresor.scheduleBytes(), 176u);

    // Encryption through the register-resident schedule matches plain AES.
    std::array<uint8_t, 16> a{}, b{};
    for (int i = 0; i < 16; ++i)
        a[i] = b[i] = static_cast<uint8_t>(i);
    tresor.encryptBlock(a);
    Aes(key).encryptBlock(b);
    EXPECT_EQ(a, b);

    // The schedule is literally in the v-register backing SRAM.
    const auto sched = Aes::expandKey(key);
    std::vector<uint8_t> regs(176);
    soc.vRegs(0).read(0, regs);
    EXPECT_EQ(regs, sched);
}

TEST(TresorCipher, RejectsOversizedSchedule)
{
    Soc soc(SocConfig::bcm2837());
    soc.powerOn();
    // 32 * 16 = 512 bytes available; AES-256 (240) fits fine.
    const std::vector<uint8_t> key(32, 1);
    TresorCipher t(soc.cpu(0), key);
    EXPECT_EQ(t.scheduleBytes(), 240u);
}

TEST(CaseExecution, StagesAndLocksPlaintextInCache)
{
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();
    Cache &l1d = soc.memory().l1d(0);
    l1d.invalidateAll();
    l1d.setEnabled(true);

    const std::vector<uint8_t> key =
        fromHex("000102030405060708090a0b0c0d0e0f");
    std::vector<uint8_t> binary(512);
    for (size_t i = 0; i < binary.size(); ++i)
        binary[i] = static_cast<uint8_t>(0xE0 + i % 16);

    const uint64_t base = soc.config().dram_base + 0x40000;
    CaseExecution cas(l1d, base, binary, key);

    // Crypto works from the locked lines.
    std::array<uint8_t, 16> blk{}, ref{};
    cas.encryptBlock(blk);
    Aes(key).encryptBlock(ref);
    EXPECT_EQ(blk, ref);

    // Nothing secret reached DRAM: the schedule exists only in cache.
    const auto sched = Aes::expandKey(key);
    std::vector<uint8_t> dram_window(4096);
    soc.dramArray().read(0x40000, dram_window);
    const MemoryImage dram_img(std::move(dram_window));
    EXPECT_FALSE(dram_img.contains(
        std::span<const uint8_t>(sched.data(), 32)));

    // And the lines survive an eviction storm (they are locked).
    for (uint64_t a = 0; a < 512 * 1024; a += 64)
        l1d.read64(soc.config().dram_base + 0x100000 + (a % 0x80000),
                   true);
    EXPECT_TRUE(l1d.probeHit(base));
    EXPECT_TRUE(l1d.probeHit(cas.scheduleAddress()));
}

TEST(CaseExecution, RequiresEnabledCache)
{
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();
    Cache &l1d = soc.memory().l1d(0);
    l1d.setEnabled(false);
    const std::vector<uint8_t> key(16, 0);
    const std::vector<uint8_t> binary(64, 0);
    EXPECT_THROW(CaseExecution(l1d, 0x40000, binary, key), FatalError);
}

} // namespace
} // namespace voltboot
