/**
 * @file
 * Proof-of-exactness tests for the threshold-transformed retention
 * kernels: the fast and reference paths must be *byte-identical* on
 * every scenario — array transitions, full attacks, whole campaigns —
 * and the integer thresholds must classify every raw hash value exactly
 * as the scalar transcendental predicates do. Also guards the paper's
 * calibration anchor points through the fast kernel.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/trial_runner.hh"
#include "core/attack.hh"
#include "os/baremetal.hh"
#include "os/workloads.hh"
#include "sim/rng.hh"
#include "soc/soc.hh"
#include "sram/fingerprint_cache.hh"
#include "sram/memory_array.hh"
#include "sram/retention_kernel.hh"
#include "sram/retention_model.hh"
#include "telemetry/counters.hh"

namespace voltboot
{
namespace
{

/** RAII kernel selection (restores the previous choice on scope exit). */
struct KernelGuard
{
    explicit KernelGuard(RetentionKernel k) : saved(retentionKernel())
    {
        setRetentionKernel(k);
    }
    ~KernelGuard() { setRetentionKernel(saved); }
    RetentionKernel saved;
};

// --- Threshold exactness against the scalar predicates ---

TEST(ThresholdTransform, DecayBandClassifiesExactlyOutsideGuard)
{
    const RetentionModel m(RetentionConfig::sram6t(), CellRng(0xfeed, 1));
    const struct { double off_ms, temp_c; } cases[] = {
        {20.0, -110.0}, {5.0, -80.0}, {2.0, -40.0}, {0.001, 25.0},
    };
    for (const auto &c : cases) {
        const Seconds off = Seconds::milliseconds(c.off_ms);
        const Temperature t = Temperature::celsius(c.temp_c);
        const auto band = m.decaySurvivalBand(off, t);
        const auto scalar = [&](uint64_t raw) {
            CellParams p{};
            p.retention_z = CellRng::gaussianFromUniform(
                CellRng::uniformFromRaw(raw));
            return m.survivesUnpowered(p, off, t);
        };
        // Dense scan just outside both band edges: classification
        // there must be exact.
        for (uint64_t d = 1; d <= 4096; ++d) {
            if (band.lo >= d)
                ASSERT_FALSE(scalar(band.lo - d))
                    << "off=" << c.off_ms << "ms temp=" << c.temp_c
                    << " raw=" << band.lo - d;
            if (band.hi + d <= CellRng::kRawUniformBuckets &&
                band.hi + d - 1 < CellRng::kRawUniformBuckets)
                ASSERT_TRUE(scalar(band.hi + d - 1))
                    << "off=" << c.off_ms << "ms temp=" << c.temp_c
                    << " raw=" << band.hi + d - 1;
        }
        // Real cells: band classification (scalar inside the band)
        // must agree with the full cellParams()-based evaluation.
        for (uint64_t cell = 0; cell < 20000; ++cell) {
            const bool ref =
                m.survivesUnpowered(m.cellParams(cell), off, t);
            const uint64_t raw = m.rng().rawUniform(
                cell, RetentionModel::ChannelRetention);
            const bool fast = raw >= band.hi ||
                              (raw >= band.lo && scalar(raw));
            ASSERT_EQ(ref, fast) << "cell " << cell;
        }
    }
}

TEST(ThresholdTransform, DroopBandClassifiesExactlyOutsideGuard)
{
    const RetentionModel m(RetentionConfig::sram6t(), CellRng(0xfeed, 2));
    // Including the drv_min/drv_max clamp edges and just inside them.
    for (double mv : {50.0, 51.0, 100.0, 250.0, 400.0, 549.0, 550.0}) {
        const Volt v = Volt::millivolts(mv);
        const auto band = m.droopLossBand(v);
        const auto scalar_survives = [&](uint64_t raw) {
            CellParams p{};
            p.drv = m.drvFromZ(CellRng::gaussianFromUniform(
                CellRng::uniformFromRaw(raw)));
            return m.survivesAtVoltage(p, v);
        };
        for (uint64_t d = 1; d <= 4096; ++d) {
            if (band.lo >= d)
                ASSERT_TRUE(scalar_survives(band.lo - d))
                    << "mv=" << mv << " raw=" << band.lo - d;
            if (band.hi + d - 1 < CellRng::kRawUniformBuckets)
                ASSERT_FALSE(scalar_survives(band.hi + d - 1))
                    << "mv=" << mv << " raw=" << band.hi + d - 1;
        }
        for (uint64_t cell = 0; cell < 20000; ++cell) {
            const bool ref = m.survivesAtVoltage(m.cellParams(cell), v);
            const uint64_t raw =
                m.rng().rawUniform(cell, RetentionModel::ChannelDrv);
            const bool fast = raw < band.lo ||
                              (raw < band.hi && scalar_survives(raw));
            ASSERT_EQ(ref, fast) << "mv=" << mv << " cell " << cell;
        }
    }
}

TEST(ThresholdTransform, UniformToNormalDeviationsStayWithinGuardSlop)
{
    // The guard band assumes the FP-evaluated raw -> z chain never
    // decreases by more than kGuardSlopZ. The risky spots are the
    // seams of Acklam's piecewise approximation and the clampOpen
    // edges; scan densely around each and coarsely across the whole
    // range, tracking the running maximum.
    const double slop = RetentionModel::kGuardSlopZ;
    const double seams[] = {1e-12, 0.02425, 0.5, 1.0 - 0.02425,
                            1.0 - 1e-12};
    for (double s : seams) {
        const uint64_t k0 = CellRng::rawUniformCountBelow(s);
        const uint64_t lo = k0 >= 4096 ? k0 - 4096 : 0;
        const uint64_t hi =
            std::min(k0 + 4096, CellRng::kRawUniformBuckets);
        double running_max = CellRng::gaussianFromUniform(
            CellRng::uniformFromRaw(lo));
        for (uint64_t k = lo + 1; k < hi; ++k) {
            const double z = CellRng::gaussianFromUniform(
                CellRng::uniformFromRaw(k));
            ASSERT_GE(z, running_max - slop) << "seam " << s << " raw "
                                             << k;
            running_max = std::max(running_max, z);
        }
    }
    const uint64_t step = CellRng::kRawUniformBuckets >> 18;
    double running_max = CellRng::gaussianFromUniform(0.0);
    for (uint64_t k = 0; k < CellRng::kRawUniformBuckets; k += step) {
        const double z =
            CellRng::gaussianFromUniform(CellRng::uniformFromRaw(k));
        ASSERT_GE(z, running_max - slop) << "raw " << k;
        running_max = std::max(running_max, z);
    }
}

TEST(ThresholdTransform, MetastableDrawThresholdIsExact)
{
    const RetentionModel m(RetentionConfig::sram6t(), CellRng(0xabc, 3));
    size_t checked = 0;
    for (uint64_t cell = 0; cell < 5000; ++cell) {
        if (!m.cellParams(cell).metastable)
            continue;
        const uint64_t thr =
            CellRng::rawUniformCountBelow(m.metastableTheta(cell));
        for (uint64_t nonce = 0; nonce < 8; ++nonce) {
            const bool fast =
                m.rng().rawUniform(
                    hashCombine(cell, nonce),
                    RetentionModel::ChannelMetastableDraw) < thr;
            ASSERT_EQ(m.metastableDraw(cell, nonce), fast)
                << "cell " << cell << " nonce " << nonce;
        }
        ++checked;
    }
    EXPECT_GT(checked, 1000u); // the scan actually hit metastable cells
}

TEST(FingerprintCache, SharesPlanesAcrossIdenticalDice)
{
    clearFingerprintCache();
    auto firstWake = [](uint64_t chip_seed) {
        SramArray a("cache", 2048, chip_seed, 7);
        a.powerUp(Volt(0.8));
        return a.snapshot();
    };
    const auto base = firstWake(0x0e57);
    auto s = fingerprintCacheStats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.entries, 0u); // a first build is remembered, not kept

    // The die recurs: its second build is admitted, byte-identical.
    EXPECT_EQ(firstWake(0x0e57), base);
    s = fingerprintCacheStats();
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_GT(s.bytes, 0u);

    // Same die again: served from the cache, byte-identical.
    EXPECT_EQ(firstWake(0x0e57), base);
    s = fingerprintCacheStats();
    EXPECT_EQ(s.misses, 2u);
    EXPECT_GE(s.hits, 1u);
    EXPECT_EQ(s.entries, 1u);

    // Different silicon: a fresh entry, different fingerprint.
    EXPECT_NE(firstWake(0x0e58), base);
    EXPECT_NE(firstWake(0x0e58), base);
    s = fingerprintCacheStats();
    EXPECT_EQ(s.misses, 4u);
    EXPECT_EQ(s.entries, 2u);

    clearFingerprintCache();
    s = fingerprintCacheStats();
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.bytes, 0u);

    // The clear forgets first builds too.
    firstWake(0x0e57);
    EXPECT_EQ(fingerprintCacheStats().entries, 0u);
    clearFingerprintCache();
}

/** Restores the process-wide cache byte budget (and empties the cache)
 * when a test exits, so capacity experiments cannot leak. */
class CacheCapacityGuard
{
public:
    CacheCapacityGuard() : saved_(fingerprintCacheStats().capacity)
    {
        clearFingerprintCache();
    }
    ~CacheCapacityGuard()
    {
        setFingerprintCacheCapacity(saved_);
        clearFingerprintCache();
    }

private:
    size_t saved_;
};

TEST(FingerprintCache, ByteBudgetEvictsLeastRecentlyUsed)
{
    CacheCapacityGuard guard;
    auto wake = [](uint64_t chip_seed) {
        SramArray a("budget", 2048, chip_seed, 7);
        a.powerUp(Volt(0.8));
        return a.snapshot();
    };
    // A die is kept from its second build on.
    auto admit = [&](uint64_t chip_seed) {
        wake(chip_seed);
        wake(chip_seed);
    };
    // Measure what one die costs, then budget for roughly two.
    admit(0xb001);
    const size_t per_entry = fingerprintCacheStats().bytes;
    ASSERT_GT(per_entry, 0u);
    setFingerprintCacheCapacity(per_entry * 5 / 2);

    admit(0xb002);
    admit(0xb003); // over budget: the LRU entry (0xb001) must go
    auto s = fingerprintCacheStats();
    EXPECT_GE(s.evictions, 1u);
    EXPECT_LE(s.entries, 2u);
    EXPECT_LE(s.bytes, s.capacity);

    // The survivors are still hits; the evicted die rebuilds, is
    // admitted at once (it has recurred), and the rebuilt planes
    // resolve to the same bytes as before eviction.
    const auto before = s;
    wake(0xb003);
    EXPECT_EQ(fingerprintCacheStats().hits, before.hits + 1);
    const auto first = wake(0xb001);
    EXPECT_EQ(fingerprintCacheStats().misses, before.misses + 1);
    EXPECT_EQ(wake(0xb001), first);
    EXPECT_EQ(fingerprintCacheStats().hits, before.hits + 2);
}

TEST(FingerprintCache, SingleUseDiceAreNotCached)
{
    CacheCapacityGuard guard;
    constexpr uint64_t kDice = 40;
    for (uint64_t chip_seed = 0x5100; chip_seed < 0x5100 + kDice;
         ++chip_seed) {
        SramArray a("single", 3 * MemoryArray::kPageBytes, chip_seed, 7);
        a.powerUp(Volt(0.8));
        a.snapshot();
    }
    const auto s = fingerprintCacheStats();
    EXPECT_EQ(s.misses, 3 * kDice);
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.bytes, 0u);
}

TEST(FingerprintCache, OversizeBuildsBypassTheCache)
{
    CacheCapacityGuard guard;
    setFingerprintCacheCapacity(0); // everything is oversize
    auto wake = [](uint64_t chip_seed) {
        SramArray a("bypass", 2048, chip_seed, 7);
        a.powerUp(Volt(0.8));
        return a.snapshot();
    };
    const auto base = wake(0x0b1d);
    auto s = fingerprintCacheStats();
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.bytes, 0u);
    EXPECT_GE(s.oversize, 1u);

    // Uncached wakes are still deterministic.
    EXPECT_EQ(wake(0x0b1d), base);
    EXPECT_EQ(fingerprintCacheStats().entries, 0u);
}

// --- Golden equivalence: byte-identical scenarios ---

/** One recorded step of a scenario: the full plane state and the loss
 * bookkeeping, all of which must match across kernels. */
struct ScenarioStep
{
    std::vector<uint8_t> snapshot;
    uint64_t cells_lost;
    std::vector<uint8_t> loss_mask;

    bool operator==(const ScenarioStep &other) const = default;
};

/** A partial-decay off-time for @p model at @p temp (survival strictly
 * between @p lo and @p hi, by default 5% and 95%), found by scanning
 * the decay slope so the scenario works for any cell technology. */
Seconds
partialDecayOff(const RetentionModel &model, Temperature temp,
                double lo = 0.05, double hi = 0.95)
{
    for (double secs = 1e-9; secs < 1e8; secs *= 1.3) {
        const double p = model.expectedSurvival(Seconds(secs), temp);
        if (p > lo && p < hi)
            return Seconds(secs);
    }
    return Seconds(0.0);
}

/**
 * One eventful array life under the current kernel; returns every
 * snapshot, loss count, and loss mask along the way. Odd size
 * exercises the word-kernel tail; works for both cell technologies
 * (decay points are found on the config's own slope).
 */
std::vector<ScenarioStep>
arrayScenario(uint64_t seed, const RetentionConfig &config)
{
    std::vector<ScenarioStep> log;
    auto record = [&](const MemoryArray &a) {
        log.push_back(
            {a.snapshot(), a.lastCellsLost(), a.lastLossMask()});
    };
    MemoryArray a("golden", 1003, config, seed, 7);
    const RetentionModel model(config, CellRng(seed, 7));
    const Temperature cold = Temperature::celsius(-110);
    const Temperature warm = Temperature::celsius(85);
    a.powerUp(Volt(0.8)); // first resolve: full fingerprint
    record(a);
    a.fill(0x5A);
    a.powerDown();
    a.powerUp(Volt(0.8), partialDecayOff(model, cold), cold);
    record(a);
    a.droopTo(Volt::millivolts(300)); // partial DRV loss
    record(a);
    a.retainAt(Volt::millivolts(220)); // droop + retain
    a.resumePowered(Volt(0.8));
    record(a);
    a.powerDown();
    a.powerUp(Volt(0.8), partialDecayOff(model, warm),
              warm); // different decay point
    record(a);
    a.powerDown();
    a.powerUp(Volt(0.8), Seconds(1e9),
              Temperature::celsius(85)); // total loss: resolve-all
    record(a);
    return log;
}

void
expectScenarioMatchesReference(const RetentionConfig &config,
                               const char *config_name)
{
    for (uint64_t seed : {1ull, 2ull, 0x5eedull}) {
        KernelGuard ref(RetentionKernel::Reference);
        const auto expected = arrayScenario(seed, config);
        KernelGuard fast(RetentionKernel::Fast);
        const auto got = arrayScenario(seed, config);
        ASSERT_EQ(got.size(), expected.size());
        for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].cells_lost, expected[i].cells_lost)
                << config_name << " lastCellsLost, step " << i;
            ASSERT_EQ(got[i].loss_mask, expected[i].loss_mask)
                << config_name << " loss mask, step " << i;
            ASSERT_EQ(got[i].snapshot, expected[i].snapshot)
                << config_name << " snapshot bytes, step " << i;
        }
    }
}

TEST(GoldenEquivalence, SramTransitionsAreByteIdenticalAcrossKernels)
{
    expectScenarioMatchesReference(RetentionConfig::sram6t(), "sram6t");
}

TEST(GoldenEquivalence, DramTransitionsAreByteIdenticalAcrossKernels)
{
    expectScenarioMatchesReference(RetentionConfig::dram(), "dram");
}

TEST(GoldenEquivalence, AgedArraysForceTheReferencePathAndStillMatch)
{
    // The word kernels never consult the imprint planes, so an aged
    // array silently routed through them would resolve lost cells
    // without the imprint bias and diverge. Byte equality across
    // kernels therefore proves age() pins the array to the reference
    // path regardless of the selected kernel.
    auto agedScenario = [](RetentionKernel k) {
        KernelGuard guard(k);
        SramArray a("aged", 797, 0x11, 5);
        a.powerUp(Volt(0.8));
        a.fill(0xF0);
        a.age(10.0); // a decade of imprint: weight 1/3 toward 0xF0
        a.powerDown();
        a.powerUp(Volt(0.8), Seconds::milliseconds(20),
                  Temperature::celsius(-110));
        ScenarioStep decay{a.snapshot(), a.lastCellsLost(),
                           a.lastLossMask()};
        a.droopTo(Volt::millivolts(300));
        ScenarioStep droop{a.snapshot(), a.lastCellsLost(),
                           a.lastLossMask()};
        return std::make_pair(decay, droop);
    };
    const auto expected = agedScenario(RetentionKernel::Reference);
    const auto got = agedScenario(RetentionKernel::Fast);
    ASSERT_EQ(got.first, expected.first) << "aged decay step diverges";
    ASSERT_EQ(got.second, expected.second) << "aged droop step diverges";
}

// --- Lazy page materialization against the Reference kernel ---

/** What one step of a lazy-array life can observe: a read-out, or a
 * loss event's count and mask. */
struct LazyObservation
{
    uint64_t cells_lost;
    std::vector<uint8_t> bytes;

    bool operator==(const LazyObservation &other) const = default;
};

/** A droop voltage whose raw-hash band loses between @p lo and @p hi
 * of the cells, found by scanning the config's DRV range. */
Volt
partialDroopVolt(const RetentionModel &model, double lo, double hi)
{
    const double v0 = model.config().drv_min.volts();
    const double span = model.config().drv_max.volts() - v0;
    for (double f = 0.01; f < 1.0; f += 0.01) {
        const Volt v(v0 + f * span);
        const double lost =
            1.0 - static_cast<double>(model.droopLossBand(v).lo) /
                      CellRng::kRawUniformBuckets;
        if (lost > lo && lost < hi)
            return v;
    }
    return Volt(v0 + span / 2);
}

/**
 * One array life generated from @p seed under the current kernel: a
 * fixed prologue that reads pages pending with 0, 1, 2 and more than
 * MemoryArray::kMaxLossEvents logged events (checked through
 * pageInfo() when the kernel is lazy), then random powerUp, decay,
 * droop, retain/resume, fill, whole- and partial-page write, read and
 * snapshot steps. Returns every observation in order.
 */
std::vector<LazyObservation>
lazyLife(const RetentionConfig &config, size_t bytes, uint64_t seed)
{
    const bool lazy = retentionKernel() != RetentionKernel::Reference;
    MemoryArray a("lazy", bytes, config, seed, 9);
    const RetentionModel model(config, CellRng(seed, 9));
    const Volt vdd(0.8);
    const Temperature cold = Temperature::celsius(-110);
    const Seconds partial_off = partialDecayOff(model, cold);
    // Survival ~1e-9: the kernel runs per cell, yet whole pages die.
    const Temperature hot = Temperature::celsius(85);
    const Seconds page_kill_off = partialDecayOff(model, hot, 1e-11, 1e-7);
    const Volt droop_v = partialDroopVolt(model, 0.2, 0.8);
    const size_t page = MemoryArray::kPageBytes;
    const size_t last = a.pageCount() - 1;
    Rng rng(seed);
    std::vector<LazyObservation> obs;

    const auto lossEvent = [&] {
        obs.push_back({a.lastCellsLost(), a.lastLossMask()});
    };
    const auto read = [&](size_t addr, size_t n) {
        std::vector<uint8_t> out(n);
        a.read(addr, out);
        obs.push_back({0, out});
    };
    const auto readPage = [&](size_t p) {
        read(p * page, std::min(page, bytes - p * page));
    };
    const auto expectPage = [&](size_t p, bool materialized,
                                unsigned deferred, const char *where) {
        if (!lazy)
            return;
        const MemoryArray::PageInfo info = a.pageInfo(p);
        EXPECT_EQ(info.materialized, materialized)
            << where << ", page " << p;
        EXPECT_EQ(info.deferred, deferred) << where << ", page " << p;
    };
    const auto totalLoss = [&] {
        a.powerDown();
        a.powerUp(vdd, Seconds(1e9), hot);
        lossEvent();
    };
    const auto randomBytes = [&](size_t n) {
        std::vector<uint8_t> out(n);
        for (uint8_t &b : out)
            b = static_cast<uint8_t>(rng.next());
        return out;
    };
    // Partial loss events at shifting nonces: a droop, a retention
    // hold whose power-up bumps the nonce, and a cold partial decay.
    const auto partialEvent = [&](unsigned kind, double jitter) {
        const Volt v(droop_v.volts() * jitter);
        switch (kind % 3) {
          case 0:
            a.droopTo(v);
            lossEvent();
            break;
          case 1:
            a.retainAt(v);
            lossEvent();
            a.powerUp(vdd);
            break;
          default:
            a.powerDown();
            a.powerUp(vdd, Seconds(partial_off.seconds() * jitter), cold);
            lossEvent();
        }
    };

    // Pending, 0 events: the first wake.
    a.powerUp(vdd);
    lossEvent();
    expectPage(last, false, 0, "first wake");
    readPage(last);
    expectPage(last, true, 0, "after read");

    // 1 event on a written base: fill materializes without deriving,
    // a partial droop defers on every underived page.
    a.fill(0x3c);
    expectPage(0, true, 0, "fill");
    a.droopTo(droop_v);
    lossEvent();
    if (bytes > page)
        expectPage(0, false, 1, "droop on filled page");
    readPage(0);

    // 1 event on a pending wake.
    totalLoss();
    a.droopTo(droop_v);
    lossEvent();
    expectPage(last, false, 1, "droop on pending page");
    readPage(last);

    // A partial event that loses a whole page is logged like any
    // other: the page replays both events when read.
    totalLoss();
    a.droopTo(droop_v);
    lossEvent();
    a.powerDown();
    a.powerUp(vdd, page_kill_off, hot);
    lossEvent();
    expectPage(last, false, 2, "whole-page loss");
    readPage(last);

    // A write one byte short of the page, at either end, must keep the
    // pending byte it misses.
    for (size_t skip_head : {1, 0}) {
        totalLoss();
        const size_t len = std::min(page, bytes - last * page);
        a.write(last * page + skip_head, randomBytes(len - 1));
        expectPage(last, true, 0, "short write");
        readPage(last);
    }

    // More events than the log holds: the overflowing event (a decay,
    // so it changes bits) first brings the lagging page up to date,
    // then starts a new log. Deepening droops keep every event visible.
    totalLoss();
    const unsigned cap = MemoryArray::kMaxLossEvents;
    for (unsigned i = 0; i < cap + 2; ++i) {
        partialEvent(i + 1, 1.0 - 0.2 * i / cap);
        if (i < cap)
            expectPage(0, false, i + 1, "logging");
        else
            expectPage(0, false, i + 1 - cap, "overflowed");
    }
    obs.push_back({0, a.snapshot()});

    for (int step = 0; step < 60; ++step) {
        switch (rng.below(10)) {
          case 0:
            partialEvent(static_cast<unsigned>(rng.below(3)),
                         0.7 + 0.6 * rng.uniform());
            break;
          case 1:
            a.powerDown();
            a.powerUp(vdd, page_kill_off, hot);
            lossEvent();
            break;
          case 2:
            totalLoss();
            break;
          case 3:
            a.retainAt(Volt(droop_v.volts() * (0.8 + 0.4 * rng.uniform())));
            lossEvent();
            a.resumePowered(vdd);
            break;
          case 4:
            a.fill(static_cast<uint8_t>(rng.next()));
            break;
          case 5: { // whole page(s), at least one page covered
            const size_t p = rng.below(a.pageCount());
            const size_t n =
                std::min(page * (1 + rng.below(2)), bytes - p * page);
            a.write(p * page, randomBytes(n));
            break;
          }
          case 6: { // partial page, possibly straddling a boundary
            const size_t addr = rng.below(bytes);
            const size_t n = std::min<size_t>(1 + rng.below(64),
                                              bytes - addr);
            a.write(addr, randomBytes(n));
            // A page short of one byte at either end.
            const size_t p = rng.below(a.pageCount());
            const size_t len = std::min(page, bytes - p * page);
            a.write(p * page + rng.below(2), randomBytes(len - 1));
            break;
          }
          case 7: {
            const size_t addr = rng.below(bytes);
            read(addr, std::min<size_t>(1 + rng.below(300), bytes - addr));
            break;
          }
          case 8: {
            const size_t addr = rng.below(bytes - 8);
            const uint64_t w = a.readWord64(addr);
            obs.push_back({w, {a.readByte(rng.below(bytes))}});
            a.writeWord64(rng.below(bytes - 8), rng.next());
            a.writeByte(rng.below(bytes), static_cast<uint8_t>(w));
            break;
          }
          default:
            obs.push_back({0, a.snapshot()});
        }
    }
    obs.push_back({0, a.snapshot()});
    return obs;
}

void
expectLazyMatchesReference(const RetentionConfig &config,
                           const char *config_name)
{
    // Neither size is a whole number of pages; the second has a
    // 17-byte tail page.
    for (size_t bytes : {size_t{248}, MemoryArray::kPageBytes + 17}) {
        for (uint64_t seed : {3ull, 0x1a2full}) {
            std::vector<LazyObservation> expected;
            {
                KernelGuard ref(RetentionKernel::Reference);
                expected = lazyLife(config, bytes, seed);
            }
            KernelGuard fast(RetentionKernel::Fast);
            const auto got = lazyLife(config, bytes, seed);
            ASSERT_EQ(got.size(), expected.size());
            for (size_t i = 0; i < got.size(); ++i)
                ASSERT_EQ(got[i], expected[i])
                    << config_name << ", " << bytes << " bytes, seed "
                    << seed << ", observation " << i;
        }
    }
}

TEST(LazyMaterialization, SramPagesMatchReferenceAtEveryRead)
{
    expectLazyMatchesReference(RetentionConfig::sram6t(), "sram6t");
}

TEST(LazyMaterialization, DramPagesMatchReferenceAtEveryRead)
{
    expectLazyMatchesReference(RetentionConfig::dram(), "dram");
}

/**
 * Loss events whose count and mask are read only after later reads
 * and writes have touched the array: a whole-page write, a partial
 * write and reads of pages the event hit. Returns the read-outs and
 * each event's count and mask, read twice.
 */
std::vector<LazyObservation>
lateLossReads(const RetentionConfig &config, uint64_t seed)
{
    const size_t page = MemoryArray::kPageBytes;
    const size_t bytes = 3 * page + 100;
    MemoryArray a("late", bytes, config, seed, 11);
    const RetentionModel model(config, CellRng(seed, 11));
    const Volt vdd(0.8);
    const Temperature cold = Temperature::celsius(-110);
    std::vector<LazyObservation> obs;
    const auto lossEvent = [&] {
        for (int i = 0; i < 2; ++i)
            obs.push_back({a.lastCellsLost(), a.lastLossMask()});
    };
    const auto read = [&](size_t addr, size_t n) {
        std::vector<uint8_t> out(n);
        a.read(addr, out);
        obs.push_back({0, out});
    };
    const auto traffic = [&](uint8_t v) {
        read(page, page);
        a.write(0, std::vector<uint8_t>(page, v));
        a.write(2 * page + 7, std::vector<uint8_t>(300, v ^ 0xff));
        obs.push_back({a.readWord64(2 * page + 3), {a.readByte(bytes - 1)}});
        read(2 * page, page);
    };

    a.powerUp(vdd);
    a.fill(0x96);
    a.powerDown();
    a.powerUp(vdd, partialDecayOff(model, cold), cold);
    traffic(0x11);
    lossEvent();
    a.droopTo(partialDroopVolt(model, 0.2, 0.8));
    traffic(0x22);
    lossEvent();
    a.retainAt(partialDroopVolt(model, 0.05, 0.3));
    a.resumePowered(vdd);
    traffic(0x33);
    lossEvent();
    a.powerDown();
    a.powerUp(vdd, Seconds(1e9), cold); // total loss
    traffic(0x44);
    lossEvent();
    a.droopTo(config.drv_max); // nothing can flip
    traffic(0x55);
    lossEvent();
    obs.push_back({0, a.snapshot()});
    return obs;
}

TEST(LazyMaterialization, LossMaskReadAfterLaterTrafficMatchesReference)
{
    for (const RetentionConfig &config :
         {RetentionConfig::sram6t(), RetentionConfig::dram()}) {
        for (uint64_t seed : {5ull, 0x1a7eull}) {
            std::vector<LazyObservation> expected;
            {
                KernelGuard ref(RetentionKernel::Reference);
                expected = lateLossReads(config, seed);
            }
            KernelGuard fast(RetentionKernel::Fast);
            const auto got = lateLossReads(config, seed);
            ASSERT_EQ(got.size(), expected.size());
            for (size_t i = 0; i < got.size(); ++i)
                ASSERT_EQ(got[i], expected[i])
                    << "seed " << seed << ", observation " << i;
        }
    }
}

// --- Traffic guard: a fresh trial derives only the pages it needs ---

TEST(LazyMaterialization, FreshTrialsDeriveAFewPercentOfTheDie)
{
    CacheCapacityGuard guard;
    const size_t die_bytes = Soc(socConfigFor("pi4")).siliconBytes();
    for (AttackKind kind : {AttackKind::VoltBoot, AttackKind::ColdBoot}) {
        clearFingerprintCache();
        TrialSpec spec;
        spec.attack = kind;
        const TrialRecord rec = runTrial(spec, 0x1a2e);
        EXPECT_EQ(rec.status, TrialStatus::Ok) << toString(kind);
        const uint64_t derived = fingerprintCacheStats().derived_bytes;
        EXPECT_GT(derived, 0u) << toString(kind);
        EXPECT_LE(derived, die_bytes / 20)
            << toString(kind) << " derived " << derived << " of "
            << die_bytes << " bytes";
    }
}

TEST(LazyMaterialization, FreshTrialsHashOnlyThePagesTheyRead)
{
    // Untraced fresh-die trials at the perfbench fresh_chip settings.
    // Each power cycle decays or droops every array of the 29.4 M-cell
    // pi4 die. Deriving every loss mask at event time hashed 14.7 M to
    // 19.2 M lanes per trial; deriving them only for the pages a trial
    // reads hashes 2.6 M to 3.3 M.
    CacheCapacityGuard guard;
    TrialSpec voltboot;
    TrialSpec coldboot;
    coldboot.attack = AttackKind::ColdBoot;
    coldboot.temp_c = -80;
    coldboot.off_ms = 5;
    coldboot.seed_index = 1;
    TrialSpec recovery;
    recovery.attack = AttackKind::KeyRecovery;
    recovery.temp_c = -40;
    recovery.off_ms = 5;
    recovery.use_priors = true;
    recovery.seed_index = 2;
    for (const TrialSpec &spec : {voltboot, coldboot, recovery}) {
        telemetry::WorkerScope scope;
        const auto lanesSoFar = [] {
            return telemetry::totals().get(telemetry::Counter::HashLanes);
        };
        const uint64_t before = lanesSoFar();
        const TrialRecord rec = runTrial(spec, 0x1a2e);
        EXPECT_EQ(rec.status, TrialStatus::Ok) << toString(spec.attack);
        const uint64_t lanes = lanesSoFar() - before;
        EXPECT_GT(lanes, 0u) << toString(spec.attack);
        EXPECT_LE(lanes, 5'000'000u) << toString(spec.attack);
    }
    // Three dies, each used once: none of their pages is kept.
    EXPECT_EQ(fingerprintCacheStats().entries, 0u);
}

TEST(LazyMaterialization, VideoCoreClobberNeverDerivesL2Data)
{
    CacheCapacityGuard guard;
    const auto stage = [](Soc &soc) {
        soc.powerOn();
        BareMetalRunner runner(soc);
        runner.runOn(0, workloads::patternStore(
                            soc.config().dram_base + 0x40000, 8192, 0xAA));
    };
    {
        Soc soc(socConfigFor("pi4"));
        stage(soc);
        VoltBootAttack attack(soc, AttackConfig{});
        ASSERT_TRUE(attack.execute().rebooted_into_attacker_code);
        attack.dumpL1(0, L1Ram::DData);
        EXPECT_EQ(soc.l2Data()->pagesWithPlanes(), 0u) << "voltboot";
    }
    {
        // A partial cold decay logs a loss event on every clobbered
        // page; the next clobber drops it unread.
        Soc soc(socConfigFor("pi4"));
        stage(soc);
        ColdBootAttack attack(soc, Temperature::celsius(-40),
                              Seconds::milliseconds(5));
        ASSERT_TRUE(attack.powerCycleAndBoot());
        attack.dumpL1(0, L1Ram::DData);
        EXPECT_EQ(soc.l2Data()->pagesWithPlanes(), 0u) << "coldboot";
    }
}

/** Full Volt Boot + cold boot attack pair on pi4; returns both dumps. */
std::pair<std::vector<uint8_t>, std::vector<uint8_t>>
attackScenario()
{
    std::pair<std::vector<uint8_t>, std::vector<uint8_t>> dumps;
    {
        Soc soc(socConfigFor("pi4"));
        soc.powerOn();
        BareMetalRunner runner(soc);
        const uint64_t base = soc.config().dram_base + 0x40000;
        runner.runOn(0, workloads::patternStore(base, 8192, 0xAA));
        VoltBootAttack attack(soc, AttackConfig{});
        AttackOutcome out = attack.execute();
        EXPECT_TRUE(out.rebooted_into_attacker_code)
            << out.failure_reason;
        dumps.first = attack.dumpL1(0, L1Ram::DData).bytes();
    }
    {
        Soc soc(socConfigFor("pi4"));
        soc.powerOn();
        BareMetalRunner runner(soc);
        const uint64_t base = soc.config().dram_base + 0x40000;
        runner.runOn(0, workloads::patternStore(base, 8192, 0xAA));
        ColdBootAttack attack(soc, Temperature::celsius(-110),
                              Seconds::milliseconds(20));
        EXPECT_TRUE(attack.powerCycleAndBoot());
        dumps.second = attack.dumpL1(0, L1Ram::DData).bytes();
    }
    return dumps;
}

TEST(GoldenEquivalence, AttackAndColdBootDumpsAreByteIdentical)
{
    KernelGuard ref(RetentionKernel::Reference);
    const auto expected = attackScenario();
    KernelGuard fast(RetentionKernel::Fast);
    const auto got = attackScenario();
    ASSERT_EQ(got.first, expected.first) << "voltboot dump differs";
    ASSERT_EQ(got.second, expected.second) << "coldboot dump differs";
}

std::string
readFile(const std::filesystem::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** 64-bit FNV-1a: a compact pin for outputs too large for golden
 * files. */
uint64_t
fnv1a64(const std::string &bytes)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** A campaign's canonical outputs: JSON, CSV and, when traced, every
 * trial's JSONL trace. */
struct CampaignBytes
{
    std::string json;
    std::string csv;
    std::vector<std::string> traces;
};

CampaignBytes
runGoldenCampaign(const SweepGrid &grid, RetentionKernel kernel,
                  const std::filesystem::path &trace_dir)
{
    KernelGuard guard(kernel);
    CampaignConfig cfg;
    cfg.jobs = 2;
    cfg.seed = 0xbe;
    cfg.trace_dir = trace_dir.string();
    const CampaignResult result = Campaign(grid, cfg).run();
    CampaignBytes out{result.toJson(), result.toCsv(), {}};
    if (trace_dir.empty())
        return out;
    for (uint64_t i = 0; i < grid.size(); ++i) {
        char name[32];
        std::snprintf(name, sizeof(name), "trial_%06llu.jsonl",
                      static_cast<unsigned long long>(i));
        out.traces.push_back(readFile(trace_dir / name));
        EXPECT_FALSE(out.traces.back().empty()) << name;
    }
    return out;
}

TEST(GoldenEquivalence, CampaignJsonCsvAndTracesAreByteIdentical)
{
    // Every board against every family at the docs/ATTACKS.md sweet
    // spots, on two targets, at room temperature and at -80 C. A
    // combination a board does not support (iram on the Pis, cold boot
    // of the i.MX53 iram) records an error status, and that record is
    // compared like any other.
    const SweepGrid grid = SweepGrid::parse(
        "board=pi3,pi4,imx53;target=dcache,iram;"
        "attack=voltboot,coldboot,glitch,static-extract,voltage-coupling,"
        "key-recovery;temp=25,-80;off-ms=5;glitch-off-ns=109;"
        "glitch-width-ns=2;glitch-depth=0.5;undervolt-depth=0.45;"
        "hold-ns=400;dumps=2;seeds=1");

    const auto trace_root =
        std::filesystem::temp_directory_path() / "voltboot_golden_traces";
    std::filesystem::remove_all(trace_root);

    const CampaignBytes fast =
        runGoldenCampaign(grid, RetentionKernel::Fast, {});
    const CampaignBytes fast_traced = runGoldenCampaign(
        grid, RetentionKernel::Fast, trace_root / "fast");
    const CampaignBytes ref_traced = runGoldenCampaign(
        grid, RetentionKernel::Reference, trace_root / "reference");

    EXPECT_EQ(fast_traced.json, fast.json) << "tracing changed the JSON";
    EXPECT_EQ(fast_traced.csv, fast.csv) << "tracing changed the CSV";
    EXPECT_EQ(ref_traced.json, fast.json) << "Reference JSON";
    EXPECT_EQ(ref_traced.csv, fast.csv) << "Reference CSV";
    ASSERT_EQ(ref_traced.traces.size(), fast_traced.traces.size());
    for (size_t i = 0; i < fast_traced.traces.size(); ++i)
        EXPECT_EQ(ref_traced.traces[i], fast_traced.traces[i])
            << "Reference trial trace " << i;
    std::filesystem::remove_all(trace_root);

    // Both kernels share the trial runner, the cache model and the
    // writers, so a change there moves both sides of the comparisons
    // above. These pins do not move with it.
    size_t error_records = 0;
    for (size_t at = 0;
         (at = fast.json.find("\"status\": \"error\"", at)) !=
         std::string::npos;
         ++at)
        ++error_records;
    EXPECT_EQ(error_records, 20u);
    std::string traces;
    for (const std::string &t : fast_traced.traces)
        traces += t;
    const struct
    {
        const char *what;
        const std::string &bytes;
        size_t size;
        uint64_t fnv1a;
    } pins[] = {
        {"JSON", fast.json, 64879, 0x4282386bfde36f60ULL},
        {"CSV", fast.csv, 11457, 0xd08db207661c0bd6ULL},
        {"traces", traces, 2562511, 0xb19660b7d80b7648ULL},
    };
    for (const auto &pin : pins) {
        EXPECT_EQ(pin.bytes.size(), pin.size) << pin.what;
        EXPECT_EQ(fnv1a64(pin.bytes), pin.fnv1a)
            << pin.what << std::hex << ": actual 0x"
            << fnv1a64(pin.bytes);
    }
}

// --- Calibration anchors through the fast kernel ---

/** Empirical survival of a 64 KiB array under the current kernel,
 * measured with the complement-of-fingerprint trick. */
double
measuredSurvival(double off_ms, double temp_c)
{
    SramArray a("anchor", 65536, 0x1234, 20);
    a.powerUp(Volt(0.8));
    std::vector<uint8_t> fp = a.snapshot();
    for (size_t i = 0; i < fp.size(); ++i)
        a.writeByte(i, static_cast<uint8_t>(~fp[i]));
    a.powerDown();
    a.powerUp(Volt(0.8), Seconds::milliseconds(off_ms),
              Temperature::celsius(temp_c));
    size_t retained = 0;
    for (size_t i = 0; i < a.sizeBytes(); ++i)
        retained += std::popcount(
            static_cast<uint8_t>(a.readByte(i) ^ fp[i]));
    return static_cast<double>(retained) / a.sizeBits();
}

class FastKernelAnchor
    : public ::testing::TestWithParam<std::pair<double, double>>
{
};

TEST_P(FastKernelAnchor, EmpiricalSurvivalTracksExpectedSurvival)
{
    const auto [off_ms, temp_c] = GetParam();
    KernelGuard guard(RetentionKernel::Fast);
    const double measured = measuredSurvival(off_ms, temp_c);

    const RetentionModel model(RetentionConfig::sram6t(),
                               CellRng(0x1234, 20));
    const double p = model.expectedSurvival(
        Seconds::milliseconds(off_ms), Temperature::celsius(temp_c));
    // Metastable cells that lost state re-roll; a fraction land back on
    // the stored complement (same correction as SurvivalMonteCarlo).
    const double meta = model.config().metastable_fraction;
    const double expected =
        p + (1.0 - p) * meta * model.expectedMetastableFlipRate();
    EXPECT_NEAR(measured, expected, 0.02);

    // The paper's anchor points survive the threshold refactor.
    if (off_ms == 20.0 && temp_c == -110.0)
        EXPECT_NEAR(p, 0.80, 0.06);
    if (off_ms == 2.0 && temp_c == -40.0)
        EXPECT_LT(p, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    PaperAnchors, FastKernelAnchor,
    ::testing::Values(std::make_pair(20.0, -110.0),
                      std::make_pair(2.0, -40.0),
                      std::make_pair(5.0, -80.0)));

} // namespace
} // namespace voltboot
