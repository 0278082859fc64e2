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
 * Silicon is derived lazily, one 4 KiB page (512 words) at a time,
 * and so are loss events. A page is *materialized* when its stored
 * words are real, or *pending*: its contents are then a pure function
 * of the array's state — a base (the power-up resolve at some nonce,
 * or the stored words as last written) plus the partial loss events
 * logged since. On the Fast kernel a partial decay or droop costs
 * O(1): it appends its parameters (nonce, hash channel, threshold
 * band, loss direction and the scalar predicate's inputs) to one
 * array-wide log and touches no cell. Reads, snapshot(), age() and
 * partial-page writes materialize the pages they touch: the page
 * derives its own mask words for each event it has not applied and
 * fetches or derives its power-up planes only once a mask word is
 * nonzero. A write that covers a whole page, and fill(), catch the
 * page up without deriving anything. A full power-up resolve clears
 * the log and re-bases every page on its wake. lastCellsLost() and
 * lastLossMask() derive the last event's mask on demand (one counting
 * pass, cached), so only traced runs and callers that ask pay for it.
 * The Reference kernel and aged arrays apply every event eagerly, per
 * cell, and never leave a page pending. Pages are materialized from
 * const readers, so a MemoryArray must not be shared across threads
 * without external synchronisation (campaign trials each own their
 * Soc).
 */

#ifndef VOLTBOOT_SRAM_MEMORY_ARRAY_HH
#define VOLTBOOT_SRAM_MEMORY_ARRAY_HH

#include <cstdint>
#include <memory>
#include <optional>
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
     * power-up resolution). After a logged partial event the first
     * call runs one counting pass over the event's hashes and caches
     * the count. Diagnostics / trace reporting. */
    uint64_t lastCellsLost() const;

    /**
     * The loss mask of the most recent loss event, exported as packed
     * bytes (bit i == cell i lost). popcount equals lastCellsLost().
     * Derived on demand after a logged event. Diagnostics/tests;
     * identical across kernels.
     */
    std::vector<uint8_t> lastLossMask() const;

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
    /** Partial loss events the log holds. The event that would
     * exceed it first materializes every page still lagging the log,
     * then starts a new log. */
    static constexpr unsigned kMaxLossEvents = 64;

    size_t pageCount() const { return pages_.size(); }

    /** Lazy-derivation state of one page (diagnostics/tests). */
    struct PageInfo
    {
        bool materialized; ///< Stored words are real.
        unsigned deferred; ///< Logged events the page has not applied.
    };
    PageInfo pageInfo(size_t page) const;

    /** Pages whose power-up planes this array has fetched from the
     * fingerprint cache or derived (diagnostics/tests). */
    size_t pagesWithPlanes() const;

  private:
    static constexpr size_t kPageWords = kPageBytes / 8;

    /** One logged partial loss event: enough to derive any cell's
     * loss bit. A cell is lost iff its raw hash on `channel` is
     * at/above the band (droop, `loss_at_or_above`) or below it
     * (decay); a hash inside the band takes the exact per-cell
     * predicate on the recorded off_time/temp or v_min. */
    struct LossEvent
    {
        uint64_t nonce;
        uint64_t channel;
        RetentionModel::ThresholdBand band;
        bool loss_at_or_above;
        Seconds off_time;
        Temperature temp;
        Volt v_min;
    };
    struct Page
    {
        /** Nonzero: the base contents are the power-up resolve at this
         * nonce. Zero: the base is the page's stored words. */
        uint64_t wake_nonce = 0;
        /** Index in events_ of the first event the page has not
         * applied. */
        uint32_t applied = 0;
        /** This page's power-up planes, once needed. */
        std::shared_ptr<const FingerprintPlanes> planes;
    };
    /** What the most recent loss event lost. */
    enum class LastLoss : uint8_t
    {
        None,   ///< No cell.
        All,    ///< Every cell.
        Logged, ///< The cells of events_.back() (Fast kernel).
        Eager,  ///< The cells of eager_loss_mask_ (Reference kernel).
    };

    void requirePowered(const char *op) const;
    /** Reference kernel: resolve every cell that fails @p survives to
     * its power-up state, evaluating the full per-cell parameter
     * derivation (splitmix chains + inverse normal CDF) per cell. */
    template <typename SurvivesFn>
    void applyLoss(SurvivesFn survives);
    /**
     * Fast kernel: same result as applyLoss, logged instead of applied
     * (see LossEvent and the file comment). Requires imprint_ empty.
     */
    void logLoss(const LossEvent &event);
    /** Whether @p e loses @p cell, by the exact per-cell predicate
     * (the in-band fallback). */
    bool scalarDies(const LossEvent &e, uint64_t cell) const;
    /**
     * Page @p p's words of the loss mask of @p e into @p out: one
     * integer compare of each cell's raw hash against the band, 64
     * cells per mask derivation (AVX-512 compare-to-mask where
     * available, see sim/cell_hash_batch), with the rare in-band hash
     * resolved by scalarDies(). Returns the OR of the words: zero when
     * the event spared the page. Page replay, the counting pass and
     * lastLossMask() all derive through here.
     */
    uint64_t pageLossMask(const LossEvent &e, size_t p, uint64_t *out) const;
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
        const Page &page = pages_[p];
        if (page.wake_nonce || page.applied != events_.size())
            materializePending(p);
    }
    void materializePending(size_t p) const;
    /** Materialize every page overlapping bytes [addr, addr + n). */
    void materializeRange(size_t addr, size_t n) const;
    void materializeAll() const;
    /** Page @p p is about to be overwritten whole: mark it materialized
     * without deriving it. */
    void discardPage(size_t p);

    std::string name_;
    /** Backing storage for the array's own word planes. */
    PlaneArena arena_;
    /** Stored bits, one bit per cell (cell i == bit i). Pending pages'
     * words are stale until materialized, which const readers do. */
    mutable BitPlane bits_;
    /** Per-page lazy-derivation state; see the file comment. Mutable
     * with bits_'s words: const readers materialize what they touch. */
    mutable std::vector<Page> pages_;
    /** Partial loss events logged since the last full resolve. */
    std::vector<LossEvent> events_;
    size_t size_bytes_ = 0;
    RetentionModel model_;
    /** Emit a "sram_state" trace event for the @p from -> @p to edge. */
    void traceTransition(PowerState from, PowerState to, Volt v) const;

    PowerState state_ = PowerState::Off;
    Volt supply_{0.0};
    uint64_t power_up_count_ = 0;
    LastLoss last_loss_ = LastLoss::None;
    /** The loss count of the last Eager event, or of the last Logged
     * event once counted; None and All follow from last_loss_. */
    mutable std::optional<uint64_t> last_cells_lost_;
    /** The last event's mask, when last_loss_ is Eager. */
    std::vector<uint8_t> eager_loss_mask_;
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
