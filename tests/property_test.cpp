/**
 * @file
 * Property-based tests pitting components against independent reference
 * models:
 *
 *  - the cache hierarchy against a flat golden memory, under long random
 *    access sequences interleaved with maintenance operations;
 *  - the assembler against its disassembler (round-trip on random
 *    instruction streams);
 *  - the attack's end-to-end determinism (same seed, same dump);
 *  - the grid-spec and CSV-row parsers against seed-driven truncations
 *    and byte flips of valid input (a diagnostic or a clean parse).
 */

#include <gtest/gtest.h>

#include <map>

#include "campaign/campaign_result.hh"
#include "campaign/sweep_grid.hh"
#include "core/attack.hh"
#include "isa/assembler.hh"
#include "mem/cache.hh"
#include "mem/memory_system.hh"
#include "os/baremetal.hh"
#include "os/workloads.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "soc/soc.hh"

namespace voltboot
{
namespace
{

/** Cache + SRAM backing + flat DRAM, plus a golden std::map model. */
class GoldenHarness
{
  public:
    explicit GoldenHarness(CacheGeometry geom, uint64_t seed)
        : geom_(geom), data_("d", geom.size_bytes, seed, 1),
          tags_("t", Cache::tagRamBytes(geom), seed, 2),
          mem_("m", 1 << 20, seed, 3), region_(mem_, 0),
          cache_("c", geom, data_, tags_, &region_)
    {
        data_.powerUp(Volt(0.8));
        tags_.powerUp(Volt(0.8));
        mem_.powerUp(Volt(1.1));
        // Give memory a known base state and mirror it in the model.
        for (uint64_t a = 0; a + 8 <= mem_.sizeBytes(); a += 8) {
            const uint64_t v = splitmix64(seed ^ a);
            mem_.writeWord64(a, v);
        }
        cache_.invalidateAll();
        cache_.setEnabled(true);
    }

    uint64_t
    goldenRead(uint64_t addr)
    {
        auto it = model_.find(addr);
        if (it != model_.end())
            return it->second;
        return splitmix64(seed() ^ addr);
    }

    void goldenWrite(uint64_t addr, uint64_t v) { model_[addr] = v; }
    uint64_t seed() const { return seed_; }

    CacheGeometry geom_;
    SramArray data_, tags_;
    DramArray mem_;
    MemoryRegion region_;
    Cache cache_;
    std::map<uint64_t, uint64_t> model_;
    uint64_t seed_ = 0;
};

class CacheGoldenSweep
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, uint64_t>>
{
};

TEST_P(CacheGoldenSweep, RandomOpsMatchFlatModel)
{
    const auto [size, ways, seed] = GetParam();
    GoldenHarness h(CacheGeometry{size, ways, 64}, seed);
    h.seed_ = seed;
    // Re-seed the golden model's backing view.
    for (uint64_t a = 0; a + 8 <= h.mem_.sizeBytes(); a += 8)
        h.goldenWrite(a, splitmix64(seed ^ a));

    Rng rng(seed * 31 + 7);
    const uint64_t addr_space = 256 * 1024; // 8x larger than any cache
    for (int op = 0; op < 20000; ++op) {
        const uint64_t addr = (rng.below(addr_space / 8)) * 8;
        switch (rng.below(8)) {
          case 0:
          case 1:
          case 2: { // read
            ASSERT_EQ(h.cache_.read64(addr, true), h.goldenRead(addr))
                << "op " << op << " addr " << addr;
            break;
          }
          case 3:
          case 4:
          case 5: { // write
            const uint64_t v = rng.next();
            h.cache_.write64(addr, v, true);
            h.goldenWrite(addr, v);
            break;
          }
          case 6: { // clean+invalidate a line
            h.cache_.cleanInvalidate(addr);
            break;
          }
          default: { // zero a line (both worlds)
            h.cache_.zeroLine(addr);
            const uint64_t line = addr & ~63ull;
            for (uint64_t a = line; a < line + 64; a += 8)
                h.goldenWrite(a, 0);
            break;
          }
        }
    }
    // Final flush: everything dirty lands in memory; compare wholesale.
    h.cache_.cleanAll();
    for (uint64_t a = 0; a < addr_space; a += 8)
        ASSERT_EQ(h.mem_.readWord64(a), h.goldenRead(a)) << "addr " << a;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheGoldenSweep,
    ::testing::Values(std::make_tuple(4096, 1, 1ull),
                      std::make_tuple(8192, 2, 2ull),
                      std::make_tuple(32768, 2, 3ull),
                      std::make_tuple(32768, 4, 4ull),
                      std::make_tuple(16384, 8, 5ull)));

/** Random well-formed instruction generator for round-trip fuzzing. */
std::string
randomProgram(Rng &rng, size_t lines)
{
    std::ostringstream os;
    auto reg = [&] { return "x" + std::to_string(rng.below(31)); };
    auto vreg = [&] { return "v" + std::to_string(rng.below(32)); };
    for (size_t i = 0; i < lines; ++i) {
        switch (rng.below(12)) {
          case 0:
            os << "    nop\n";
            break;
          case 1:
            os << "    movz " << reg() << ", #" << rng.below(0x10000)
               << ", lsl #" << 16 * rng.below(4) << "\n";
            break;
          case 2:
            os << "    movk " << reg() << ", #" << rng.below(0x10000)
               << "\n";
            break;
          case 3:
            os << "    add " << reg() << ", " << reg() << ", #"
               << rng.below(0x1000) << "\n";
            break;
          case 4:
            os << "    sub " << reg() << ", " << reg() << ", " << reg()
               << "\n";
            break;
          case 5:
            os << "    eor " << reg() << ", " << reg() << ", " << reg()
               << "\n";
            break;
          case 6:
            os << "    ldr " << reg() << ", [" << reg() << ", #"
               << rng.below(512) * 8 << "]\n";
            break;
          case 7:
            os << "    str " << reg() << ", [" << reg() << "]\n";
            break;
          case 8:
            os << "    cmp " << reg() << ", #" << rng.below(0x1000)
               << "\n";
            break;
          case 9:
            os << "    vdup " << vreg() << ", #" << rng.below(256)
               << "\n";
            break;
          case 10:
            os << "    vread " << reg() << ", " << vreg() << "["
               << rng.below(2) << "]\n";
            break;
          default:
            os << "    lsl " << reg() << ", " << reg() << ", #"
               << rng.below(64) << "\n";
            break;
        }
    }
    os << "    hlt\n";
    return os.str();
}

class AssemblerFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(AssemblerFuzz, DisassembleReassembleIsIdentity)
{
    Rng rng(GetParam());
    const std::string source = randomProgram(rng, 200);
    const Program first = Assembler::assemble(source);

    // Disassemble every word and reassemble the listing; the encodings
    // must survive the round trip exactly.
    std::ostringstream listing;
    for (uint32_t w : first.words)
        listing << "    " << disassemble(w) << "\n";
    const Program second = Assembler::assemble(listing.str());
    ASSERT_EQ(second.words.size(), first.words.size());
    for (size_t i = 0; i < first.words.size(); ++i)
        ASSERT_EQ(second.words[i], first.words[i])
            << "insn " << i << ": " << disassemble(first.words[i])
            << " vs " << disassemble(second.words[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssemblerFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/** @p text cut at a random length and/or with up to three random bit
 * flips, as a damaged file or a mistyped spec would arrive. */
std::string
mutate(Rng &rng, std::string text)
{
    if (rng.below(2))
        text.resize(rng.below(text.size() + 1));
    for (uint64_t n = rng.below(4); n > 0 && !text.empty(); --n)
        text[rng.below(text.size())] ^=
            static_cast<char>(1u << rng.below(8));
    return text;
}

class GridSpecMutation : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(GridSpecMutation, ParsesCleanlyOrFailsWithADiagnostic)
{
    // Every axis kind: strings, enums, doubles, counts, flags and the
    // replicas count, with a comment and a newline. Mutated grids are
    // parsed and decoded, never run.
    const std::string valid =
        "# mutation base\nboard=pi3,pi4,imx53;target=dcache,iram;"
        "attack=voltboot,glitch,key-recovery;temp=25,-80.5;off-ms=5;"
        "glitch-depth=0.5;dumps=2;prior=1;key=0,1;seeds=3\n";
    ASSERT_EQ(SweepGrid::parse(valid).size(), 216u);
    Rng rng(GetParam());
    unsigned parsed = 0, rejected = 0;
    for (int i = 0; i < 400; ++i) {
        const std::string spec = mutate(rng, valid);
        SCOPED_TRACE(spec);
        try {
            const SweepGrid grid = SweepGrid::parse(spec);
            ASSERT_GT(grid.size(), 0u);
            EXPECT_EQ(grid.at(grid.size() - 1).index, grid.size() - 1);
            EXPECT_EQ(SweepGrid::parse(grid.describe()).describe(),
                      grid.describe());
            ++parsed;
        } catch (const FatalError &) {
            ++rejected;
        }
    }
    // The mutations reach both outcomes.
    EXPECT_GT(parsed, 40u);
    EXPECT_GT(rejected, 40u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridSpecMutation,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

class CsvRowMutation : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(CsvRowMutation, SplitsAnyRowWithoutInventingBytes)
{
    Rng rng(GetParam());
    for (int i = 0; i < 200; ++i) {
        // Random cells over the bytes that force quoting.
        std::vector<std::string> cells(1 + rng.below(6));
        std::string row;
        for (std::string &cell : cells) {
            for (uint64_t n = rng.below(12); n > 0; --n)
                cell += "ab ,\"\n\r"[rng.below(7)];
            row += (&cell == &cells.front() ? "" : ",") + csvEscape(cell);
        }
        ASSERT_EQ(splitCsvRow(row), cells) << row;

        const std::string damaged = mutate(rng, row);
        const std::vector<std::string> split = splitCsvRow(damaged);
        ASSERT_FALSE(split.empty());
        size_t bytes = 0;
        for (const std::string &cell : split)
            bytes += cell.size();
        EXPECT_LE(bytes, damaged.size()) << damaged;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRowMutation,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/**
 * Power-state machine fuzz: random legal sequences of power operations
 * must never crash, and two invariants must hold throughout —
 * (1) a domain held at nominal voltage never loses data;
 * (2) any content surviving operations is either the written pattern or
 *     the power-up resolution, never garbage from out of the model.
 */
class PowerStateFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(PowerStateFuzz, RandomOperationSequences)
{
    Rng rng(GetParam());
    SramArray a("fuzz", 1024, GetParam(), 1);
    a.powerUp(Volt(0.8));
    a.fill(0x5A);
    bool held_high = true; // never dipped below drv_max since last fill

    for (int op = 0; op < 200; ++op) {
        switch (rng.below(6)) {
          case 0: // power cycle, random off-time and temperature
            if (a.powerState() != PowerState::Off)
                a.powerDown();
            a.powerUp(Volt(0.8),
                      Seconds::milliseconds(rng.uniform() * 100),
                      Temperature::celsius(-120 + rng.uniform() * 150));
            held_high = false;
            break;
          case 1: // probe-held retention at nominal
            if (a.powerState() == PowerState::Powered) {
                a.retainAt(Volt(0.8));
                a.resumePowered(Volt(0.8));
            }
            break;
          case 2: // droop to a random level
            if (a.powerState() == PowerState::Powered) {
                const double v = rng.uniform();
                a.droopTo(Volt(v));
                if (v < 0.56)
                    held_high = false;
            }
            break;
          case 3: // rewrite the pattern
            if (a.powerState() == PowerState::Powered) {
                a.fill(0x5A);
                held_high = true;
            }
            break;
          case 4: // reads must never throw while powered
            if (a.powerState() == PowerState::Powered)
                (void)a.readWord64((rng.below(128)) * 8);
            break;
          default: // unpowered dwell
            if (a.powerState() != PowerState::Off) {
                a.powerDown();
                a.powerUp(Volt(0.8), Seconds::microseconds(1),
                          Temperature::celsius(-120));
            }
            break;
        }
        if (a.powerState() == PowerState::Powered && held_high) {
            // Invariant (1): nothing above the DRV ceiling flips.
            for (size_t i = 0; i < 16; ++i)
                ASSERT_EQ(a.readByte(i * 64), 0x5A) << "op " << op;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PowerStateFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(Determinism, SameSeedSameAttackDump)
{
    auto run = [] {
        Soc soc(SocConfig::bcm2711());
        soc.powerOn();
        BareMetalRunner runner(soc);
        runner.runOn(0, workloads::patternStore(0x40000, 4096, 0xA7));
        VoltBootAttack attack(soc);
        attack.execute();
        return attack.dumpL1(0, L1Ram::DData).bytes();
    };
    EXPECT_EQ(run(), run());
}

TEST(Determinism, DifferentChipSeedsDifferentFingerprints)
{
    auto fingerprint = [](uint64_t seed) {
        SocConfig cfg = SocConfig::bcm2711();
        cfg.chip_seed = seed;
        Soc soc(cfg);
        soc.powerOn();
        return soc.memory().l1d(0).dumpAll().bytes();
    };
    EXPECT_NE(fingerprint(1), fingerprint(2));
}

} // namespace
} // namespace voltboot
