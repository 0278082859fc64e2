/**
 * @file
 * Sweep grids: the cartesian parameter space of an attack campaign.
 *
 * A SweepGrid names one value list per experimental axis — board, target
 * memory, attack kind, ambient temperature, power-off time, probe
 * current, probe impedance, key planting, chip-seed index — and
 * enumerates the cartesian product lazily: trial @c i is decoded from
 * its index with div/mod arithmetic, so a billion-trial grid costs the
 * same memory as a one-trial grid. Grids parse from a compact
 * `key=v1,v2;key=...` spec string (see docs/CAMPAIGN.md) and re-render
 * canonically so a campaign's results always carry an exact description
 * of the space they cover.
 */

#ifndef VOLTBOOT_CAMPAIGN_SWEEP_GRID_HH
#define VOLTBOOT_CAMPAIGN_SWEEP_GRID_HH

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

namespace voltboot
{

/** Which attack an individual trial mounts. */
enum class AttackKind
{
    VoltBoot,        ///< Probe the SRAM domain, power-cycle, extract.
    ColdBoot,        ///< No probe: chill, power-cycle, extract (Section 3).
    Glitch,          ///< Crowbar the core rail mid-signature-check.
    StaticExtract,   ///< Undervolt below brown-out, freeze, read out.
    VoltageCoupling, ///< CPA on rail dips coupled from AES activity.
    KeyRecovery,     ///< Cold-boot dumps through the keyfind engine.
};

/** Which memory the trial extracts and scores. */
enum class TargetRam
{
    DCache, ///< L1 data RAM of core 0.
    ICache, ///< L1 instruction RAM of core 0.
    Regs,   ///< Vector register file of core 0.
    Iram,   ///< On-chip iRAM (i.MX535 only, dumped over JTAG).
    Tlb,    ///< DTLB entry RAM of core 0.
    Btb,    ///< BTB entry RAM of core 0.
};

/** An attack family's canonical grid/record spelling. */
struct AttackName
{
    AttackKind kind;
    const char *name;
};

/** Every AttackKind with its spelling, in enum order: the one table
 * toString, attackFromString and the --list-axes help are built from. */
inline constexpr AttackName kAttackNames[] = {
    {AttackKind::VoltBoot, "voltboot"},
    {AttackKind::ColdBoot, "coldboot"},
    {AttackKind::Glitch, "glitch"},
    {AttackKind::StaticExtract, "static-extract"},
    {AttackKind::VoltageCoupling, "voltage-coupling"},
    {AttackKind::KeyRecovery, "key-recovery"},
};

const char *toString(AttackKind kind);
const char *toString(TargetRam target);
AttackKind attackFromString(const std::string &name);
TargetRam targetFromString(const std::string &name);

/** One fully-specified trial: a point of the sweep grid. */
struct TrialSpec
{
    uint64_t index = 0; ///< Position in the grid's enumeration order.
    std::string board = "pi4";
    TargetRam target = TargetRam::DCache;
    AttackKind attack = AttackKind::VoltBoot;
    double temp_c = 25.0;
    double off_ms = 500.0;
    double current_a = 3.0;        ///< Probe current limit (Volt Boot).
    double impedance_mohm = 50.0;  ///< Probe source impedance.
    bool plant_key = false;        ///< Plant + scan an AES-128 schedule.
    uint64_t seed_index = 0;       ///< Chip-seed axis value.

    /** Glitch pulse knobs (Glitch trials only; 0 = no pulse). */
    double glitch_off_ns = 0.0;   ///< Offset from victim entry.
    double glitch_width_ns = 0.0; ///< Pulse duration.
    double glitch_depth_v = 0.0;  ///< Excursion below nominal.

    /** Static-undervolt knobs (StaticExtract trials; 0 = no ramp). */
    double undervolt_depth_v = 0.0; ///< Static sag below nominal.
    double hold_ns = 0.0;           ///< Hold time at the floor.
    double readout_rate = 0.0;      ///< Frozen readout B/us (0 = inf).

    /** CPA knob (VoltageCoupling trials; 0 = full block window). */
    double cpa_window_ns = 0.0;

    /** Key-recovery knobs (KeyRecovery trials only). */
    uint64_t dump_count = 1; ///< Power-cycle dumps fused per trial.
    bool use_priors = false; ///< Guide correction by DRV decay priors.
};

/**
 * The cartesian product of per-axis value lists.
 *
 * Enumeration order is fixed and documented: the board axis varies
 * slowest and the chip-seed index fastest, with the axes in between in
 * declaration order below. Trial indices are therefore stable
 * identifiers for a given grid spec, independent of job count or
 * scheduling.
 */
class SweepGrid
{
  public:
    std::vector<std::string> boards{"pi4"};
    std::vector<TargetRam> targets{TargetRam::DCache};
    std::vector<AttackKind> attacks{AttackKind::VoltBoot};
    std::vector<double> temps_c{25.0};
    std::vector<double> offs_ms{500.0};
    std::vector<double> currents_a{3.0};
    std::vector<double> impedances_mohm{50.0};
    std::vector<bool> plant_key{false};
    /** Chip-seed indices 0..seed_count-1 (the replication axis). */
    uint64_t seed_count = 1;

    /** Glitch pulse axes; a single 0 keeps glitch-free grids'
     * enumeration (and trial indices) untouched. Vary faster than
     * impedance-mohm and slower than the key axis. */
    std::vector<double> glitch_offs_ns{0.0};
    std::vector<double> glitch_widths_ns{0.0};
    std::vector<double> glitch_depths_v{0.0};

    /** Static-undervolt and CPA axes; single-element defaults keep
     * existing grids' trial indices untouched. Vary faster than the
     * glitch axes and slower than the key axis. */
    std::vector<double> undervolt_depths_v{0.0};
    std::vector<double> holds_ns{0.0};
    std::vector<double> readout_rates{0.0};
    std::vector<double> cpa_windows_ns{0.0};

    /** Key-recovery axes; single-element defaults keep existing grids'
     * trial indices untouched. Vary faster than cpa-window-ns and
     * slower than the key axis. */
    std::vector<uint64_t> dump_counts{1};
    std::vector<bool> use_priors{false};

    /** Number of trials in the grid (product of axis sizes). */
    uint64_t size() const;

    /** Decode trial @p index into its parameter point. */
    TrialSpec at(uint64_t index) const;

    /**
     * Parse a `key=v1,v2;...` spec (';' or newline separated, '#'
     * comments allowed). Unknown keys, empty value lists and malformed
     * numbers are fatal(). Keys: board, target, attack, temp, off-ms,
     * current, impedance-mohm, glitch-off-ns, glitch-width-ns,
     * glitch-depth, undervolt-depth, hold-ns, readout-rate,
     * cpa-window-ns, dumps, prior, key, seeds.
     */
    static SweepGrid parse(const std::string &spec);

    /** Canonical re-rendering of the spec (stable across parses). */
    std::string describe() const;

    /** Human-readable table of every axis: spec key, unit, default and
     * accepted values (the `sweep --list-axes` text). */
    static std::string axesHelp();

    /** Lazy forward iterator over TrialSpecs. */
    class const_iterator
    {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = TrialSpec;
        using difference_type = std::ptrdiff_t;

        const_iterator(const SweepGrid *grid, uint64_t index)
            : grid_(grid), index_(index)
        {}

        TrialSpec operator*() const { return grid_->at(index_); }
        const_iterator &operator++() { ++index_; return *this; }
        const_iterator operator++(int)
        { const_iterator old = *this; ++index_; return old; }
        bool operator==(const const_iterator &o) const
        { return index_ == o.index_; }
        bool operator!=(const const_iterator &o) const
        { return index_ != o.index_; }

      private:
        const SweepGrid *grid_;
        uint64_t index_;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size()}; }
};

} // namespace voltboot

#endif // VOLTBOOT_CAMPAIGN_SWEEP_GRID_HH
