/**
 * @file
 * Byte-addressable simulated memory arrays with retention physics.
 *
 * A MemoryArray owns the stored bits plus a power-state machine:
 *
 *   Powered  -- normal operation at a supply voltage;
 *   Retained -- externally held at some voltage (the Volt Boot probe) while
 *               the rest of the system power-cycles;
 *   Off      -- unpowered; state decays with time and temperature.
 *
 * Transitions apply the RetentionModel per cell. Cells that lose state
 * resolve to their power-up fingerprint (PUF-like, stable per chip seed,
 * with a metastable fraction that re-rolls every power-up).
 *
 * Internally the array is a bit-sliced structure-of-arrays: the stored
 * bits, the per-event loss mask, and the shared power-up planes
 * (fingerprint, metastable mask) are contiguous uint64_t word planes
 * carved out of PlaneArenas (see sim/plane_arena.hh), so the fast
 * kernels advance 64 cells per word op — or 512 per AVX-512 register
 * via sim/cell_hash_batch — and DRAM-scale arrays (hundreds of MB of
 * modeled cells) stay cache- and bandwidth-friendly. The byte API
 * below (readByte/write/snapshot/...) is a thin view over the packed
 * plane; on little-endian hosts block transfers are memcpys.
 *
 * Silicon is derived lazily, one 4 KiB page (512 words) at a time.
 * A page is *materialized* when its stored words are real, or
 * *pending*: its contents are then a pure function of the array's
 * state — a base (the power-up resolve at some nonce, or the stored
 * words as last written) plus a short log of loss events deferred
 * since then, each recorded as its nonce and the page's words of the
 * event's loss mask. Reads, snapshot(), age() and partial-page writes
 * materialize the pages they touch (fetching or deriving the page's
 * power-up planes and replaying the log); a write that covers a whole
 * page, and fill(), materialize it without deriving anything. Loss
 * masks are still computed for every cell at event time, so
 * lastLossMask() and lastCellsLost() are exact. The Reference kernel
 * and aged arrays never leave a page pending. Pages are materialized
 * from const readers, so a MemoryArray must not be shared across
 * threads without external synchronisation (campaign trials each own
 * their Soc).
 */

#ifndef VOLTBOOT_SRAM_MEMORY_ARRAY_HH
#define VOLTBOOT_SRAM_MEMORY_ARRAY_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/plane_arena.hh"
#include "sim/rng.hh"
#include "sim/units.hh"
#include "sram/fingerprint_cache.hh"
#include "sram/retention_model.hh"

namespace voltboot
{

/** Power state of a memory array. */
enum class PowerState
{
    Powered,  ///< Supplied by its domain at nominal voltage.
    Retained, ///< Held by an external source (e.g., Volt Boot probe).
    Off,      ///< Unpowered; contents decay.
};

/** Convert a PowerState to a human-readable name. */
const char *toString(PowerState state);

/**
 * A byte-addressable array of simulated 6T-SRAM (or DRAM) cells.
 *
 * The array is always constructed Off with undefined content; the first
 * powerUp() fills it with the chip's power-up fingerprint, mirroring real
 * silicon where "SRAMs boot up into random states where approximately 50%
 * of the bits are 1s".
 */
class MemoryArray
{
  public:
    /**
     * @param name        Human-readable identifier (e.g. "core0.L1D.data").
     * @param size_bytes  Capacity in bytes.
     * @param config      Cell technology parameters.
     * @param chip_seed   Identifies the simulated die; the same seed always
     *                    yields identical silicon.
     * @param array_id    Distinguishes arrays within one chip.
     */
    MemoryArray(std::string name, size_t size_bytes,
                const RetentionConfig &config, uint64_t chip_seed,
                uint64_t array_id);

    const std::string &name() const { return name_; }
    size_t sizeBytes() const { return size_bytes_; }
    size_t sizeBits() const { return size_bytes_ * 8; }
    PowerState powerState() const { return state_; }
    Volt supplyVoltage() const { return supply_; }
    const RetentionModel &model() const { return model_; }

    /**
     * Power the array on at voltage @p v after having been Off for
     * @p off_time at temperature @p temp. Cells whose retention time
     * exceeds off_time keep their bits; the rest resolve to power-up
     * state. The very first power-up initialises every cell.
     */
    void powerUp(Volt v, Seconds off_time, Temperature temp);

    /** Convenience: first power-on (everything resolves to fingerprint). */
    void
    powerUp(Volt v)
    {
        powerUp(v, Seconds(1e9), Temperature::celsius(25.0));
    }

    /** Remove power. Contents will decay until the next powerUp(). */
    void powerDown();

    /**
     * Enter the Retained state at voltage @p v (a probe or an always-on
     * rail holds the array through a power cycle). Cells whose DRV exceeds
     * @p v lose state immediately.
     */
    void retainAt(Volt v);

    /**
     * Apply a transient voltage droop of the supply down to @p v_min (for
     * a few microseconds, long enough for marginal cells to flip). Valid
     * in Powered or Retained states.
     */
    void droopTo(Volt v_min);

    /** Resume normal powered operation from the Retained state. */
    void resumePowered(Volt v);

    /** Read/write bytes. Asserts the array is Powered. */
    uint8_t readByte(size_t addr) const;
    void writeByte(size_t addr, uint8_t value);
    void read(size_t addr, std::span<uint8_t> out) const;
    void write(size_t addr, std::span<const uint8_t> data);
    uint64_t readWord64(size_t addr) const;
    void writeWord64(size_t addr, uint64_t value);

    /**
     * Raw snapshot of the stored bits regardless of power state —
     * this is what a debug port (RAMINDEX / JTAG) sees after reboot.
     * Exported word-at-a-time from the packed plane. Reading an Off
     * array is a modelling error (real SRAM cannot be read without
     * power) and panics.
     */
    std::vector<uint8_t> snapshot() const;

    /** Fill with a repeated byte pattern (test/bench helper). One word
     * store per 8 bytes. */
    void fill(uint8_t value);

    /** Cell parameters for bit index @p bit (diagnostics/tests). */
    CellParams cellParams(uint64_t bit) const { return model_.cellParams(bit); }

    /** Number of power-up events so far (metastable-cell nonce). */
    uint64_t powerUpCount() const { return power_up_count_; }

    /** Cells resolved to their power-up state by the most recent loss
     * event (decay past retention time, droop below DRV, or a full
     * power-up resolution). Diagnostics / trace reporting. */
    uint64_t lastCellsLost() const { return last_cells_lost_; }

    /**
     * The loss mask of the most recent loss event, exported as packed
     * bytes (bit i == cell i lost). popcount equals lastCellsLost().
     * Diagnostics/tests; identical across kernels.
     */
    std::vector<uint8_t> lastLossMask() const { return loss_.toBytes(); }

    /**
     * Circuit aging / data imprinting (the Section 9.2 attack family):
     * holding a value for years of powered operation shifts the cell's
     * analog balance so its *power-up* state leans toward the stored
     * value. age() accrues @p years of imprint on the current contents;
     * subsequent power-up resolutions are biased accordingly. The drift
     * half-life is ~20 years: a decade of imprint yields only "modest"
     * recovery, matching the literature's characterisation.
     */
    void age(double years);

    /** Signed imprint-years on bit @p bit (positive leans 1). */
    double imprintYears(uint64_t bit) const;

    /** Array bytes per lazily derived page (512 words of cells). */
    static constexpr size_t kPageBytes = 4096;
    /** Loss events a pending page defers before it materializes. */
    static constexpr unsigned kMaxDeferredLoss = 4;

    size_t pageCount() const { return pages_.size(); }

    /** Lazy-derivation state of one page (diagnostics/tests). */
    struct PageInfo
    {
        bool materialized; ///< Stored words are real.
        unsigned deferred; ///< Loss events logged since the base.
    };
    PageInfo pageInfo(size_t page) const;

    /** Pages whose power-up planes this array has fetched from the
     * fingerprint cache or derived (diagnostics/tests). */
    size_t pagesWithPlanes() const;

  private:
    static constexpr size_t kPageWords = kPageBytes / 8;

    /** A loss event deferred on a pending page: its power-up nonce and
     * the slot of log_words_ holding the page's loss-mask words. */
    struct DeferredLoss
    {
        uint64_t nonce;
        uint32_t slot;
    };
    struct Page
    {
        /** Nonzero: the base contents are the power-up resolve at this
         * nonce. Zero: the base is the page's stored words. */
        uint64_t wake_nonce = 0;
        unsigned deferred = 0;
        DeferredLoss log[kMaxDeferredLoss];
        /** This page's power-up planes, once needed. */
        std::shared_ptr<const FingerprintPlanes> planes;

        bool materialized() const { return !wake_nonce && !deferred; }
    };

    void requirePowered(const char *op) const;
    /** Reference kernel: resolve every cell that fails @p survives to
     * its power-up state, evaluating the full per-cell parameter
     * derivation (splitmix chains + inverse normal CDF) per cell. */
    template <typename SurvivesFn>
    void applyLoss(SurvivesFn survives);
    /**
     * Fast kernel: same result as applyLoss, but survival is one
     * integer compare of the cell's raw uniform hash on @p channel
     * against the threshold band (a cell at/above the band dies iff
     * @p loss_at_or_above; the rare hash inside the band is resolved by
     * @p scalarDies, the exact per-cell predicate). The loss bitmask is
     * derived 64 cells at a time straight into the loss word plane
     * (AVX-512 compare-to-mask where available, see
     * sim/cell_hash_batch) and applied with word ops against the
     * fingerprint/metastable planes — no per-cell scatter anywhere.
     * Requires imprint_ empty.
     */
    template <typename ScalarDiesFn>
    void applyLossFast(uint64_t channel,
                       RetentionModel::ThresholdBand band,
                       bool loss_at_or_above, ScalarDiesFn scalarDies);
    /** Every cell resolves to its power-up state: the fast kernel
     * marks every page pending at the current nonce; the Reference
     * kernel resolves every cell now. */
    void resolveAllToPowerUp();
    /** True when the threshold kernels may run (runtime selection says
     * fast and no aging imprint modulates power-up draws). */
    bool fastKernelEnabled() const;
    /** Page @p p's power-up planes (fingerprint, metastable mask,
     * first-power-on contents), acquired from the process-wide cache
     * on first use and derived on a miss. */
    const FingerprintPlanes &pagePlanes(size_t p) const;
    /** Derive page @p p's power-up planes from scratch. */
    FingerprintPlanes buildFingerprintPlanes(size_t p) const;
    /** Page @p p's first word and cell, and its word and cell counts
     * (only the last page may be short). */
    size_t pageWord0(size_t p) const { return p * kPageWords; }
    uint64_t
    pageCell0(size_t p) const
    {
        return uint64_t{pageWord0(p)} * 64;
    }
    size_t pageWords(size_t p) const;
    uint64_t pageBits(size_t p) const;
    /** Make page @p p's stored words real. Inline: every access
     * checks, and almost every page it touches already is. */
    void
    materialize(size_t p) const
    {
        if (!pages_[p].materialized())
            materializePending(p);
    }
    void materializePending(size_t p) const;
    /** Materialize every page overlapping bytes [addr, addr + n). */
    void materializeRange(size_t addr, size_t n) const;
    void materializeAll() const;
    /** Page @p p is about to be overwritten whole: mark it materialized
     * without deriving it. */
    void discardPage(size_t p);
    /** Log loss event @p loss (page @p p's mask words, @p lost cells
     * of them set) at @p nonce against page @p p. A whole-page loss
     * re-bases the page on that wake instead; a full log materializes
     * the page and applies the event. */
    void deferLoss(size_t p, const uint64_t *loss, uint64_t lost,
                   uint64_t nonce);
    /** Return every deferred-mask slot of @p page to the free list. */
    void dropLog(Page &page) const;

    std::string name_;
    /** Backing storage for the array's own word planes. */
    PlaneArena arena_;
    /** Stored bits, one bit per cell (cell i == bit i). Pending pages'
     * words are stale until materialized, which const readers do. */
    mutable BitPlane bits_;
    /** Loss mask of the most recent loss event (same indexing). */
    BitPlane loss_;
    /** Per-page lazy-derivation state; see the file comment. Mutable
     * with bits_'s words: const readers materialize what they touch. */
    mutable std::vector<Page> pages_;
    /** Deferred loss-mask slots, kPageWords words each, and the free
     * list over them. */
    mutable std::vector<uint64_t> log_words_;
    mutable std::vector<uint32_t> free_slots_;
    size_t size_bytes_ = 0;
    RetentionModel model_;
    /** Emit a "sram_state" trace event for the @p from -> @p to edge. */
    void traceTransition(PowerState from, PowerState to, Volt v) const;

    PowerState state_ = PowerState::Off;
    Volt supply_{0.0};
    uint64_t power_up_count_ = 0;
    uint64_t last_cells_lost_ = 0;
    bool ever_powered_ = false;
    /** Die identity, the fingerprint-cache key. */
    uint64_t chip_seed_ = 0;
    uint64_t array_id_ = 0;
    /** Signed imprint-years per cell; empty until age() is first used. */
    std::vector<float> imprint_;
    /** Resolve @p cell's power-up state including any imprint drift. */
    bool agedPowerUpState(uint64_t cell, const CellParams &p,
                          uint64_t nonce) const;
};

/** An SRAM array with 6T-cell defaults. */
class SramArray : public MemoryArray
{
  public:
    SramArray(std::string name, size_t size_bytes, uint64_t chip_seed,
              uint64_t array_id,
              const RetentionConfig &config = RetentionConfig::sram6t())
        : MemoryArray(std::move(name), size_bytes, config, chip_seed,
                      array_id)
    {}
};

/** A DRAM array: same framework, capacitor-grade retention constants. */
class DramArray : public MemoryArray
{
  public:
    DramArray(std::string name, size_t size_bytes, uint64_t chip_seed,
              uint64_t array_id,
              const RetentionConfig &config = RetentionConfig::dram())
        : MemoryArray(std::move(name), size_bytes, config, chip_seed,
                      array_id)
    {}
};

} // namespace voltboot

#endif // VOLTBOOT_SRAM_MEMORY_ARRAY_HH
