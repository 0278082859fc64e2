#include "sram/memory_array.hh"

#include <bit>
#include <cmath>
#include <cstring>

#include "sim/cell_hash_batch.hh"
#include "sim/logging.hh"
#include "sram/retention_kernel.hh"
#include "telemetry/counters.hh"
#include "trace/trace.hh"

namespace voltboot
{

namespace
{

/** Valid-lane mask for a word covering @p n <= 64 cells. */
inline uint64_t
laneMask(unsigned n)
{
    return n == 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
}

/**
 * Resolve the cells of one page that @p loss marks lost (every cell
 * when @p loss is null) to their power-up state at nonce @p nonce:
 * lost stable cells take their fingerprint bit, lost metastable cells
 * re-roll. @p words and @p loss are the page's @p nwords words and
 * @p cell0 its first cell; @p planes are the page's power-up planes.
 * This is the one word-level resolve: the replay of logged loss
 * events, a pending page's wake-up and the first-wake image all run
 * through it.
 *
 * Re-roll draw keys are hashCombine(cell, nonce) — non-consecutive —
 * so they go through the gathered hash batch. At typical loss rates
 * only a few bits per word re-roll, so word-at-a-time batches would
 * run at 1-4 of 8 lanes; accumulating the re-roll set over a 16-word
 * chunk keeps the batch full and amortises the per-call cost ~16x.
 * The per-cell bias threshold comes from the bias channel, batched the
 * same way, with the double math of metastableTheta()/metastableDraw(),
 * so the integer compare against rawUniformCountBelow(theta) is
 * bit-exact with the reference draw.
 */
void
resolveLost(uint64_t *words, const uint64_t *loss, size_t nwords,
            uint64_t cell0, const FingerprintPlanes &planes,
            const RetentionModel &model, uint64_t nonce)
{
    const CellRng &rng = model.rng();
    const uint64_t *fp = planes.fingerprint.words();
    const uint64_t *ms = planes.metastable_mask.words();
    const double bias_lo = model.config().metastable_bias_min;
    const double bias_range = model.config().metastable_bias_max - bias_lo;
    constexpr size_t kChunk = 16;
    uint64_t meta_masks[kChunk];
    uint64_t rcells[kChunk * 64], rkeys[kChunk * 64];
    uint64_t rdraws[kChunk * 64], rcuts[kChunk * 64];
    for (size_t w0 = 0; w0 < nwords; w0 += kChunk) {
        const size_t wend = std::min(w0 + kChunk, nwords);
        unsigned lanes = 0;
        for (size_t w = w0; w < wend; ++w) {
            // Tail lanes of fingerprint and mask are zero, so an
            // all-ones loss word is safe on the array's last word.
            const uint64_t lost = loss ? loss[w] : ~uint64_t{0};
            meta_masks[w - w0] = 0;
            if (!lost)
                continue; // whole word survives untouched
            // Lost stable cells take their fingerprint bit; lost
            // metastable cells queue for the chunk's re-roll batch.
            words[w] = (words[w] & ~lost) | (fp[w] & lost & ~ms[w]);
            const uint64_t meta_lost = lost & ms[w];
            meta_masks[w - w0] = meta_lost;
            for (uint64_t m = meta_lost; m; m &= m - 1) {
                const int b = std::countr_zero(m);
                const uint64_t cell = cell0 + w * 64 + b;
                rcells[lanes] = cell;
                rkeys[lanes] = hashCombine(cell, nonce);
                ++lanes;
            }
        }
        if (!lanes)
            continue;
        cellBitsBatchIndexed(rng, rkeys,
                             RetentionModel::ChannelMetastableDraw,
                             lanes, rdraws);
        cellBitsBatchIndexed(rng, rcells,
                             RetentionModel::ChannelMetastableBias, lanes,
                             rcuts);
        for (unsigned i = 0; i < lanes; ++i) {
            const double theta =
                bias_lo +
                CellRng::uniformFromRaw(rcuts[i] >> 11) * bias_range;
            rcuts[i] = CellRng::rawUniformCountBelow(theta);
        }
        unsigned lane = 0;
        for (size_t w = w0; w < wend; ++w) {
            uint64_t add = 0;
            for (uint64_t m = meta_masks[w - w0]; m; m &= m - 1, ++lane) {
                const uint64_t value = (rdraws[lane] >> 11) < rcuts[lane];
                add |= value << std::countr_zero(m);
            }
            words[w] |= add;
        }
    }
}

} // namespace

const char *
toString(PowerState state)
{
    switch (state) {
      case PowerState::Powered:
        return "Powered";
      case PowerState::Retained:
        return "Retained";
      case PowerState::Off:
        return "Off";
    }
    return "?";
}

MemoryArray::MemoryArray(std::string name, size_t size_bytes,
                         const RetentionConfig &config, uint64_t chip_seed,
                         uint64_t array_id)
    : name_(std::move(name)), size_bytes_(size_bytes),
      model_(config, CellRng(chip_seed, array_id)),
      chip_seed_(chip_seed), array_id_(array_id)
{
    if (size_bytes == 0)
        fatal("MemoryArray ", name_, ": size must be nonzero");
    const uint64_t nbits = sizeBits();
    arena_.reserve(PlaneArena::alignWords(BitPlane::wordsFor(nbits)));
    bits_ = arena_.allocBits(nbits);
    pages_.resize((bits_.sizeWords() + kPageWords - 1) / kPageWords);
}

void
MemoryArray::requirePowered(const char *op) const
{
    if (state_ != PowerState::Powered)
        panic("MemoryArray ", name_, ": ", op, " while ",
              toString(state_));
}

bool
MemoryArray::agedPowerUpState(uint64_t cell, const CellParams &p,
                              uint64_t nonce) const
{
    const bool base = model_.powerUpState(cell, p, nonce);
    if (imprint_.empty())
        return base;
    const double s = imprint_[cell];
    if (s == 0.0)
        return base;
    // Imprint drift: with weight w = |s| / (|s| + 20 years), the cell
    // powers up to the imprinted value instead of its intrinsic state.
    const double w = std::abs(s) / (std::abs(s) + 20.0);
    const bool imprinted = s > 0.0;
    const double u = model_.rng().uniform(
        hashCombine(cell, nonce), RetentionModel::ChannelStability + 100);
    return u < w ? imprinted : base;
}

template <typename SurvivesFn>
void
MemoryArray::applyLoss(SurvivesFn survives)
{
    // Invocation-granularity counts: one add per pass, never per cell.
    telemetry::add(telemetry::Counter::KernelReference);
    telemetry::add(telemetry::Counter::CellsProcessed, sizeBits());
    materializeAll();
    const uint64_t nonce = power_up_count_;
    eager_loss_mask_.assign(size_bytes_, 0);
    uint64_t lost = 0;
    for (size_t byte = 0; byte < size_bytes_; ++byte) {
        const uint8_t v = bits_.byteAt(byte);
        uint8_t out = 0, loss8 = 0;
        for (int bit = 0; bit < 8; ++bit) {
            const uint64_t cell = byte * 8 + bit;
            const CellParams p = model_.cellParams(cell);
            bool value;
            if (survives(p)) {
                value = (v >> bit) & 1;
            } else {
                value = agedPowerUpState(cell, p, nonce);
                loss8 |= 1u << bit;
                ++lost;
            }
            out |= static_cast<uint8_t>(value) << bit;
        }
        bits_.setByte(byte, out);
        eager_loss_mask_[byte] = loss8;
    }
    last_loss_ = LastLoss::Eager;
    last_cells_lost_ = lost;
}

void
MemoryArray::age(double years)
{
    requirePowered("age");
    if (years <= 0.0)
        fatal("MemoryArray ", name_, ": aging needs positive duration");
    materializeAll();
    if (imprint_.empty())
        imprint_.assign(sizeBits(), 0.0f);
    for (size_t byte = 0; byte < size_bytes_; ++byte) {
        const uint8_t v = bits_.byteAt(byte);
        for (int bit = 0; bit < 8; ++bit) {
            const float delta =
                ((v >> bit) & 1) ? static_cast<float>(years)
                                 : -static_cast<float>(years);
            imprint_[byte * 8 + bit] += delta;
        }
    }
}

double
MemoryArray::imprintYears(uint64_t bit) const
{
    if (imprint_.empty() || bit >= imprint_.size())
        return 0.0;
    return imprint_[bit];
}

const FingerprintPlanes &
MemoryArray::pagePlanes(size_t p) const
{
    Page &page = pages_[p];
    if (!page.planes) {
        FingerprintKey key;
        key.chip_seed = chip_seed_;
        key.array_id = array_id_;
        key.size_bytes = size_bytes_;
        key.page = p;
        key.metastable_fraction = model_.config().metastable_fraction;
        key.metastable_bias_min = model_.config().metastable_bias_min;
        key.metastable_bias_max = model_.config().metastable_bias_max;
        page.planes = acquireFingerprintPlanes(
            key, [&] { return buildFingerprintPlanes(p); });
    }
    return *page.planes;
}

FingerprintPlanes
MemoryArray::buildFingerprintPlanes(size_t p) const
{
    FingerprintPlanes planes;
    const uint64_t cell0 = pageCell0(p);
    const uint64_t nbits = pageBits(p);
    planes.arena.reserve(
        3 * PlaneArena::alignWords(BitPlane::wordsFor(nbits)));
    planes.fingerprint = planes.arena.allocBits(nbits);
    planes.metastable_mask = planes.arena.allocBits(nbits);
    planes.initial_bits = planes.arena.allocBits(nbits);

    // Only the power-up and stability channels matter here; deriving
    // them directly (and turning the stability compare into an integer
    // threshold on the raw hash — exact, see CellRng::
    // rawUniformCountBelow) skips the two inverse-normal-CDF
    // evaluations cellParams() would burn per cell. The stable/
    // metastable split is hoisted once into these planes; power-up
    // re-rolls later touch only words with metastable bits. Each word
    // of either plane is one mask-derivation call (eight AVX-512
    // compares on wide hosts, see sim/cell_hash_batch).
    const CellRng &rng = model_.rng();
    const uint64_t meta_min_raw = CellRng::rawUniformCountBelow(
        model_.config().metastable_fraction);
    uint64_t *fp = planes.fingerprint.words();
    uint64_t *ms = planes.metastable_mask.words();
    const size_t nwords = planes.fingerprint.sizeWords();
    for (size_t w = 0; w < nwords; ++w) {
        const unsigned n =
            static_cast<unsigned>(std::min<uint64_t>(64, nbits - w * 64));
        fp[w] = cellLsbMaskBatch(rng, cell0 + w * 64,
                                 RetentionModel::ChannelPowerUp, n);
        // Metastable iff the raw stability hash is below the fraction
        // threshold: complement of the >= mask, valid lanes only.
        uint64_t in_band;
        const uint64_t ge = cellBandMaskBatch(
            rng, cell0 + w * 64, RetentionModel::ChannelStability, n,
            meta_min_raw, meta_min_raw, &in_band);
        ms[w] = ~ge & laneMask(n);
    }
    // First-power-on contents: the fingerprint with every metastable
    // cell at its nonce-1 draw. Trials all start from this exact state,
    // so sharing it turns their first wake of the page into a memcpy.
    resolveLost(planes.initial_bits.words(), nullptr, nwords, cell0,
                planes, model_, /*nonce=*/1);
    return planes;
}

size_t
MemoryArray::pageWords(size_t p) const
{
    return std::min(kPageWords, bits_.sizeWords() - pageWord0(p));
}

uint64_t
MemoryArray::pageBits(size_t p) const
{
    return std::min<uint64_t>(kPageWords * 64, sizeBits() - pageCell0(p));
}

void
MemoryArray::materializePending(size_t p) const
{
    Page &page = pages_[p];
    uint64_t *words = bits_.words() + pageWord0(p);
    const size_t nwords = pageWords(p);
    const uint64_t cell0 = pageCell0(p);
    if (page.wake_nonce == 1) {
        // The page's first wake is precomputed in the shared planes.
        std::memcpy(words, pagePlanes(p).initial_bits.words(),
                    nwords * sizeof(uint64_t));
    } else if (page.wake_nonce) {
        resolveLost(words, nullptr, nwords, cell0, pagePlanes(p), model_,
                    page.wake_nonce);
    }
    // Replay the logged events in order, exactly as they would have
    // been applied at event time. An event that spared the page needs
    // neither its planes nor a resolve.
    uint64_t loss[kPageWords];
    for (size_t i = page.applied; i < events_.size(); ++i) {
        const LossEvent &e = events_[i];
        if (pageLossMask(e, p, loss))
            resolveLost(words, loss, nwords, cell0, pagePlanes(p), model_,
                        e.nonce);
    }
    page.wake_nonce = 0;
    page.applied = static_cast<uint32_t>(events_.size());
    telemetry::drainHashStats();
}

void
MemoryArray::materializeRange(size_t addr, size_t n) const
{
    if (n == 0)
        return;
    for (size_t p = addr / kPageBytes; p <= (addr + n - 1) / kPageBytes;
         ++p)
        materialize(p);
}

void
MemoryArray::materializeAll() const
{
    for (size_t p = 0; p < pages_.size(); ++p)
        materialize(p);
}

void
MemoryArray::discardPage(size_t p)
{
    pages_[p].wake_nonce = 0;
    pages_[p].applied = static_cast<uint32_t>(events_.size());
}

MemoryArray::PageInfo
MemoryArray::pageInfo(size_t page) const
{
    const Page &pg = pages_.at(page);
    const unsigned lag = static_cast<unsigned>(events_.size() - pg.applied);
    return {!pg.wake_nonce && !lag, lag};
}

size_t
MemoryArray::pagesWithPlanes() const
{
    size_t n = 0;
    for (const Page &page : pages_)
        n += page.planes != nullptr;
    return n;
}

bool
MemoryArray::fastKernelEnabled() const
{
    // Aging imprint modulates every power-up draw per cell, so aged
    // arrays always take the reference path.
    return imprint_.empty() &&
           retentionKernel() != RetentionKernel::Reference;
}

void
MemoryArray::logLoss(const LossEvent &event)
{
    // Invocation granularity: one pass per event. Cells count where
    // their mask words are derived (pageLossMask).
    telemetry::add(cellHashBatchAccelerated()
                       ? telemetry::Counter::KernelAvx512
                       : telemetry::Counter::KernelScalar);
    if (events_.size() == kMaxLossEvents) {
        // Rare: bring every page that lags the log up to date, then
        // start a new one. resolveAllToPowerUp() re-bases every page
        // at applied 0, so every page pending since a wake lags too:
        // the whole array's planes are derived here.
        for (size_t p = 0; p < pages_.size(); ++p)
            if (pages_[p].applied != events_.size())
                materializePending(p);
        events_.clear();
        for (Page &page : pages_)
            page.applied = 0;
    }
    events_.push_back(event);
    last_loss_ = LastLoss::Logged;
    last_cells_lost_.reset();
}

bool
MemoryArray::scalarDies(const LossEvent &e, uint64_t cell) const
{
    const CellParams p = model_.cellParams(cell);
    return e.loss_at_or_above
               ? !model_.survivesAtVoltage(p, e.v_min)
               : !model_.survivesUnpowered(p, e.off_time, e.temp);
}

uint64_t
MemoryArray::pageLossMask(const LossEvent &e, size_t p, uint64_t *out) const
{
    telemetry::add(telemetry::Counter::CellsProcessed, pageBits(p));
    const CellRng &rng = model_.rng();
    const uint64_t nbits = sizeBits();
    const size_t w0 = pageWord0(p);
    const size_t nwords = pageWords(p);
    uint64_t any = 0;
    for (size_t i = 0; i < nwords; ++i) {
        const uint64_t cell0 = (w0 + i) * 64;
        const unsigned n =
            static_cast<unsigned>(std::min<uint64_t>(64, nbits - cell0));
        // The whole 64-cell word classifies in one mask derivation:
        // one integer compare per cell settles everything outside
        // the guard band, and the expected number of in-band cells
        // per transition is ~band_width / 2^53 * size_bits ~ 1e-3,
        // so the scalar fallback never shows up in profiles.
        uint64_t in_band;
        const uint64_t ge = cellBandMaskBatch(rng, cell0, e.channel, n,
                                              e.band.lo, e.band.hi,
                                              &in_band);
        uint64_t loss = e.loss_at_or_above ? ge : (~ge & laneMask(n));
        for (uint64_t gb = in_band; gb; gb &= gb - 1) {
            const int b = std::countr_zero(gb);
            const uint64_t m = uint64_t{1} << b;
            loss = (loss & ~m) |
                   (static_cast<uint64_t>(scalarDies(e, cell0 + b)) << b);
        }
        out[i] = loss;
        any |= loss;
    }
    return any;
}

uint64_t
MemoryArray::lastCellsLost() const
{
    switch (last_loss_) {
      case LastLoss::None:
        return 0;
      case LastLoss::All:
        return sizeBits();
      case LastLoss::Eager:
      case LastLoss::Logged:
        break;
    }
    if (!last_cells_lost_) {
        // A logged event: one counting pass over its hashes.
        uint64_t loss[kPageWords];
        uint64_t lost = 0;
        for (size_t p = 0; p < pages_.size(); ++p) {
            if (!pageLossMask(events_.back(), p, loss))
                continue;
            for (size_t w = 0; w < pageWords(p); ++w)
                lost += std::popcount(loss[w]);
        }
        last_cells_lost_ = lost;
        telemetry::drainHashStats();
    }
    return *last_cells_lost_;
}

std::vector<uint8_t>
MemoryArray::lastLossMask() const
{
    switch (last_loss_) {
      case LastLoss::None:
        return std::vector<uint8_t>(size_bytes_, 0);
      case LastLoss::All:
        return std::vector<uint8_t>(size_bytes_, 0xff);
      case LastLoss::Eager:
        return eager_loss_mask_;
      case LastLoss::Logged:
        break;
    }
    std::vector<uint64_t> words(bits_.sizeWords());
    for (size_t p = 0; p < pages_.size(); ++p)
        pageLossMask(events_.back(), p, words.data() + pageWord0(p));
    telemetry::drainHashStats();
    return BitPlane(words.data(), sizeBits()).toBytes();
}

void
MemoryArray::traceTransition(PowerState from, PowerState to, Volt v) const
{
    trace::instant("sram", "sram_state",
                   {{"array", name_},
                    {"from", toString(from)},
                    {"to", toString(to)},
                    {"supply_v", v.volts()}});
}

void
MemoryArray::resolveAllToPowerUp()
{
    if (!imprint_.empty()) {
        // Aged arrays need the per-cell path: imprint drift modulates
        // every power-up draw, so the cached fingerprint is invalid.
        applyLoss([](const CellParams &) { return false; });
        return;
    }
    last_loss_ = LastLoss::All;
    // Every page's contents are now its power-up resolve at this nonce
    // (>= 1: the array is never resolved before its first powerUp),
    // whatever the log held.
    const uint64_t nonce = power_up_count_;
    for (Page &page : pages_) {
        page.wake_nonce = nonce;
        page.applied = 0;
    }
    events_.clear();
    if (fastKernelEnabled()) {
        // Pending pages wake when first touched.
        telemetry::add(cellHashBatchAccelerated()
                           ? telemetry::Counter::KernelAvx512
                           : telemetry::Counter::KernelScalar);
        return;
    }
    // Reference: resolve every cell now, metastable draws per cell.
    telemetry::add(telemetry::Counter::KernelReference);
    telemetry::add(telemetry::Counter::CellsProcessed, sizeBits());
    for (size_t p = 0; p < pages_.size(); ++p) {
        const FingerprintPlanes &planes = pagePlanes(p);
        const size_t byte0 = p * kPageBytes;
        std::memcpy(bits_.words() + pageWord0(p),
                    planes.fingerprint.words(),
                    pageWords(p) * sizeof(uint64_t));
        const size_t bytes = std::min(kPageBytes, size_bytes_ - byte0);
        for (size_t i = 0; i < bytes; ++i) {
            const uint8_t msb = planes.metastable_mask.byteAt(i);
            if (!msb)
                continue;
            uint8_t v = bits_.byteAt(byte0 + i);
            for (int bit = 0; bit < 8; ++bit) {
                if (!((msb >> bit) & 1))
                    continue;
                const uint64_t cell = (byte0 + i) * 8 + bit;
                const bool value = model_.metastableDraw(cell, nonce);
                v = (v & ~(1u << bit)) |
                    (static_cast<uint8_t>(value) << bit);
            }
            bits_.setByte(byte0 + i, v);
        }
        pages_[p].wake_nonce = 0;
    }
}

void
MemoryArray::powerUp(Volt v, Seconds off_time, Temperature temp)
{
    if (state_ == PowerState::Powered)
        panic("MemoryArray ", name_, ": powerUp while already Powered");

    ++power_up_count_;
    if (state_ == PowerState::Retained) {
        // Held through the power cycle: nothing decays, but cells whose
        // DRV exceeds the retention voltage were already lost at
        // retainAt() time. Just resume.
        state_ = PowerState::Powered;
        supply_ = v;
        if (trace::enabled())
            traceTransition(PowerState::Retained, PowerState::Powered, v);
        return;
    }

    last_loss_ = LastLoss::None;
    if (!ever_powered_) {
        // First ever power-on: every cell resolves to its power-up state.
        resolveAllToPowerUp();
        ever_powered_ = true;
    } else {
        // Array-level fast paths bound the per-cell work: when the
        // expected survival is essentially 0 or 1 no individual cell can
        // deviate from it beyond the lognormal's far tail.
        const double p_survive = model_.expectedSurvival(off_time, temp);
        if (p_survive < 1e-12) {
            resolveAllToPowerUp();
        } else if (p_survive <= 1.0 - 1e-12) {
            if (fastKernelEnabled()) {
                // Survive iff the raw retention hash is at/above the
                // band, i.e. lose iff below it.
                logLoss({power_up_count_, RetentionModel::ChannelRetention,
                         model_.decaySurvivalBand(off_time, temp),
                         /*loss_at_or_above=*/false, off_time, temp,
                         Volt(0.0)});
            } else {
                applyLoss([&](const CellParams &p) {
                    return model_.survivesUnpowered(p, off_time, temp);
                });
            }
        }
        // Otherwise everything survives; contents untouched.
    }
    state_ = PowerState::Powered;
    supply_ = v;
    if (trace::enabled()) {
        traceTransition(PowerState::Off, PowerState::Powered, v);
        trace::instant("sram", "sram_decay",
                       {{"array", name_},
                        {"off_s", off_time.seconds()},
                        {"temp_c", temp.celsiusDegrees()},
                        {"cells_flipped", lastCellsLost()},
                        {"size_bits", sizeBits()}});
    }
}

void
MemoryArray::powerDown()
{
    if (state_ == PowerState::Off)
        return;
    const PowerState from = state_;
    state_ = PowerState::Off;
    supply_ = Volt(0.0);
    if (trace::enabled())
        traceTransition(from, PowerState::Off, Volt(0.0));
}

void
MemoryArray::retainAt(Volt v)
{
    if (state_ == PowerState::Off)
        panic("MemoryArray ", name_,
              ": cannot retain an already-unpowered array");
    // Cells that need more than the retention voltage lose state now.
    droopTo(v);
    const PowerState from = state_;
    state_ = PowerState::Retained;
    supply_ = v;
    ever_powered_ = true;
    if (trace::enabled())
        traceTransition(from, PowerState::Retained, v);
}

void
MemoryArray::droopTo(Volt v_min)
{
    if (state_ == PowerState::Off)
        panic("MemoryArray ", name_, ": droop while Off");
    last_loss_ = LastLoss::None;
    if (v_min >= model_.config().drv_max) {
        // Above every possible DRV: nothing can flip.
    } else if (v_min <= model_.config().drv_min) {
        resolveAllToPowerUp();
    } else if (fastKernelEnabled()) {
        // A cell dies iff its raw DRV hash is at/above the band
        // (higher hash => higher DRV).
        logLoss({power_up_count_, RetentionModel::ChannelDrv,
                 model_.droopLossBand(v_min), /*loss_at_or_above=*/true,
                 Seconds(0.0), Temperature(0.0), v_min});
    } else {
        applyLoss([&](const CellParams &p) {
            return model_.survivesAtVoltage(p, v_min);
        });
    }
    if (trace::enabled()) {
        trace::instant("sram", "sram_droop",
                       {{"array", name_},
                        {"v_min", v_min.volts()},
                        {"cells_flipped", lastCellsLost()},
                        {"size_bits", sizeBits()}});
    }
}

void
MemoryArray::resumePowered(Volt v)
{
    if (state_ != PowerState::Retained)
        panic("MemoryArray ", name_, ": resumePowered while ",
              toString(state_));
    state_ = PowerState::Powered;
    supply_ = v;
    if (trace::enabled())
        traceTransition(PowerState::Retained, PowerState::Powered, v);
}

uint8_t
MemoryArray::readByte(size_t addr) const
{
    requirePowered("readByte");
    if (addr >= size_bytes_)
        panic("MemoryArray ", name_, ": read out of range: ", addr);
    materialize(addr / kPageBytes);
    return bits_.byteAt(addr);
}

void
MemoryArray::writeByte(size_t addr, uint8_t value)
{
    requirePowered("writeByte");
    if (addr >= size_bytes_)
        panic("MemoryArray ", name_, ": write out of range: ", addr);
    materialize(addr / kPageBytes);
    bits_.setByte(addr, value);
}

void
MemoryArray::read(size_t addr, std::span<uint8_t> out) const
{
    requirePowered("read");
    if (addr + out.size() > size_bytes_)
        panic("MemoryArray ", name_, ": block read out of range");
    materializeRange(addr, out.size());
    bits_.readBytes(addr, out.data(), out.size());
}

void
MemoryArray::write(size_t addr, std::span<const uint8_t> data)
{
    requirePowered("write");
    if (addr + data.size() > size_bytes_)
        panic("MemoryArray ", name_, ": block write out of range");
    if (data.empty())
        return;
    const size_t end = addr + data.size();
    for (size_t p = addr / kPageBytes; p <= (end - 1) / kPageBytes; ++p) {
        // A page the write covers whole is never derived.
        const size_t lo = p * kPageBytes;
        if (addr <= lo && end >= std::min(lo + kPageBytes, size_bytes_))
            discardPage(p);
        else
            materialize(p);
    }
    bits_.writeBytes(addr, data.data(), data.size());
}

uint64_t
MemoryArray::readWord64(size_t addr) const
{
    requirePowered("readWord64");
    if (addr + 8 > size_bytes_)
        panic("MemoryArray ", name_, ": word read out of range: ", addr);
    materializeRange(addr, 8);
    uint64_t v;
    bits_.readBytes(addr, reinterpret_cast<uint8_t *>(&v), 8);
    return v;
}

void
MemoryArray::writeWord64(size_t addr, uint64_t value)
{
    requirePowered("writeWord64");
    if (addr + 8 > size_bytes_)
        panic("MemoryArray ", name_, ": word write out of range: ", addr);
    materializeRange(addr, 8);
    bits_.writeBytes(addr, reinterpret_cast<const uint8_t *>(&value), 8);
}

std::vector<uint8_t>
MemoryArray::snapshot() const
{
    if (state_ == PowerState::Off)
        panic("MemoryArray ", name_,
              ": snapshot of an unpowered array is physically meaningless");
    materializeAll();
    return bits_.toBytes();
}

void
MemoryArray::fill(uint8_t value)
{
    requirePowered("fill");
    for (size_t p = 0; p < pages_.size(); ++p)
        discardPage(p);
    bits_.fillBytes(value);
}

} // namespace voltboot
