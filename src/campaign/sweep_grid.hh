/**
 * @file
 * Sweep grids: the cartesian parameter space of an attack campaign.
 *
 * A SweepGrid names one value list per experimental axis (the rows of
 * kGridAxes in campaign/schema.hh: board, target memory, attack kind,
 * ambient temperature, power-off time, probe and attack knobs, chip-seed
 * index) and enumerates the cartesian product lazily: trial @c i is
 * decoded from its index with div/mod arithmetic, so a billion-trial
 * grid costs the same memory as a one-trial grid. Grids parse from a compact
 * `key=v1,v2;key=...` spec string (see docs/CAMPAIGN.md) and re-render
 * canonically so a campaign's results always carry an exact description
 * of the space they cover.
 */

#ifndef VOLTBOOT_CAMPAIGN_SWEEP_GRID_HH
#define VOLTBOOT_CAMPAIGN_SWEEP_GRID_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "campaign/schema.hh"

namespace voltboot
{

/**
 * The cartesian product of per-axis value lists, one list per
 * kGridAxes row.
 *
 * Enumeration order is fixed and documented: the board axis varies
 * slowest and the chip-seed index fastest, with the axes in between in
 * kGridAxes order. Trial indices are therefore stable identifiers for
 * a given grid spec, independent of job count or scheduling.
 */
class SweepGrid
{
  public:
    /** Every axis at its default: a one-trial grid. */
    SweepGrid();

    /** Number of trials in the grid (product of axis sizes). */
    uint64_t size() const;

    /** Decode trial @p index into its parameter point. */
    TrialSpec at(uint64_t index) const;

    /**
     * Parse a `key=v1,v2;...` spec (';' or newline separated, '#'
     * comments allowed; keys are the kGridAxes keys). Unknown keys,
     * empty value lists, malformed numbers and values an axis's
     * validation rule rejects are fatal().
     */
    static SweepGrid parse(const std::string &spec);

    /** Replace the value list of axis @p key by the comma-separated
     * @p values, with parse()'s checks. A list that would take the grid
     * past 2^64 - 1 trials is fatal() and leaves the axis at its
     * default. */
    void set(const std::string &key, const std::string &values);

    /** Number of values on axis kGridAxes[@p axis]. */
    uint64_t axisSize(size_t axis) const;

    /** Canonical re-rendering of the spec (stable across parses). */
    std::string describe() const;

    /** Human-readable table of every axis: spec key, unit, default and
     * accepted values (the `sweep --list-axes` text). */
    static std::string axesHelp();

    /** Lazy iterator over TrialSpecs, for range-for. */
    struct const_iterator
    {
        const SweepGrid *grid;
        uint64_t index;

        TrialSpec operator*() const { return grid->at(index); }
        const_iterator &operator++() { ++index; return *this; }
        bool operator==(const const_iterator &) const = default;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size()}; }

  private:
    /** One value list per kGridAxes row, in the member's type; a
     * replicas axis holds its count as its one value. */
    std::array<std::vector<FieldValue>, std::size(kGridAxes)> values_;
};

} // namespace voltboot

#endif // VOLTBOOT_CAMPAIGN_SWEEP_GRID_HH
