/**
 * @file
 * The campaign schema: every sweep-grid axis and every trial-record
 * field, each declared once.
 *
 * Two descriptor tables drive everything that names an axis or a
 * field. kGridAxes feeds SweepGrid (value lists, enumeration order,
 * parse, describe, the `sweep --list-axes` text) and the CLI's live
 * progress axes; kRecordFields feeds CampaignResult's JSON and CSV
 * writers and the report layer's sweep reader. Adding an axis or a
 * record field is one table row plus the struct member it reads.
 */

#ifndef VOLTBOOT_CAMPAIGN_SCHEMA_HH
#define VOLTBOOT_CAMPAIGN_SCHEMA_HH

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

#include "sim/logging.hh"
#include "telemetry/counters.hh"

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

/** How one trial ended. */
enum class TrialStatus
{
    Ok,           ///< Extraction ran; metrics are valid.
    AttackFailed, ///< The attack itself failed (probe/boot); no dump.
    Error,        ///< The trial threw; detail carries the message.
    Skipped,      ///< Campaign aborted before this trial started.
};

/** An enum value's canonical grid/record spelling. */
template <class E>
struct EnumName
{
    E kind;
    const char *name;
};

/** Every value of each schema enum with its spelling, in enum order. */
inline constexpr EnumName<AttackKind> kAttackNames[] = {
    {AttackKind::VoltBoot, "voltboot"},
    {AttackKind::ColdBoot, "coldboot"},
    {AttackKind::Glitch, "glitch"},
    {AttackKind::StaticExtract, "static-extract"},
    {AttackKind::VoltageCoupling, "voltage-coupling"},
    {AttackKind::KeyRecovery, "key-recovery"},
};
inline constexpr EnumName<TargetRam> kTargetNames[] = {
    {TargetRam::DCache, "dcache"}, {TargetRam::ICache, "icache"},
    {TargetRam::Regs, "regs"},     {TargetRam::Iram, "iram"},
    {TargetRam::Tlb, "tlb"},       {TargetRam::Btb, "btb"},
};
inline constexpr EnumName<TrialStatus> kStatusNames[] = {
    {TrialStatus::Ok, "ok"},
    {TrialStatus::AttackFailed, "attack_failed"},
    {TrialStatus::Error, "error"},
    {TrialStatus::Skipped, "skipped"},
};

/** The name table of each schema enum, found by overload. */
constexpr std::span<const EnumName<AttackKind>> enumNames(AttackKind)
{ return kAttackNames; }
constexpr std::span<const EnumName<TargetRam>> enumNames(TargetRam)
{ return kTargetNames; }
constexpr std::span<const EnumName<TrialStatus>> enumNames(TrialStatus)
{ return kStatusNames; }

/** The spelling of @p value. */
template <class E>
const char *
toString(E value)
    requires requires { enumNames(value); }
{
    for (const EnumName<E> &n : enumNames(value))
        if (n.kind == value)
            return n.name;
    panic("bad enum value ", static_cast<int>(value));
}

/** The value spelled @p name; nullopt when none is. */
template <class E>
std::optional<E>
enumFromName(std::string_view name)
{
    for (const EnumName<E> &n : enumNames(E{}))
        if (name == n.name)
            return n.kind;
    return std::nullopt;
}

/** Every spelling of @p E, '|'-joined ("ok|attack_failed|..."). */
template <class E>
std::string
enumNameList()
{
    std::string out;
    for (const EnumName<E> &n : enumNames(E{}))
        out += std::string(out.empty() ? "" : "|") + n.name;
    return out;
}

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

/** Outcome and metrics of a single trial. */
struct TrialRecord
{
    TrialSpec spec;
    TrialStatus status = TrialStatus::Skipped;
    std::string detail;     ///< Failure reason / exception text.
    uint64_t chip_seed = 0; ///< The derived silicon seed actually used.

    bool probe_attached = false;
    bool booted = false;

    uint64_t dump_bytes = 0;
    /** Fraction of dump bits matching ground truth (1.0 = perfect,
     * ~0.5 = nothing retained). Valid only when status == Ok. */
    double accuracy = 0.0;
    double bit_error_rate = 0.0;

    bool key_planted = false;
    bool key_found = false;
    bool key_exact = false;

    /** Glitch trials: number of faults the pulse injected. */
    uint64_t glitch_faults = 0;
    /** Glitch trials: comma-joined effect names, in boundary order
     * (e.g. "skip,opcode_corrupt" — note the embedded commas). */
    std::string glitch_effect;
    /** Glitch trials: the signature check passed without a valid tag. */
    bool glitch_bypassed = false;

    /** StaticExtract trials: the clock froze below brown-out. */
    bool se_frozen = false;
    /** StaticExtract trials: the victim finished its zeroize wipe. */
    bool se_zeroized = false;
    /** StaticExtract trials: fraction of the dump the slow readout
     * path observed inside the hold window. */
    double se_read_fraction = 0.0;
    /** VoltageCoupling trials: key bytes whose winning CPA guess
     * cleared the confidence threshold. */
    uint64_t cpa_recovered = 0;

    /** KeyRecovery trials: keyfind engine outcome (deterministic). */
    uint64_t kr_scan_hits = 0;      ///< Exact-scan schedule hits.
    uint64_t kr_corrected_hits = 0; ///< Correction-scan hits.
    /** Residual schedule bit errors of the best hit (0 when none). */
    uint64_t kr_bit_errors = 0;
    /** Key bits the corrector flipped for the best corrected hit. */
    uint64_t kr_key_bits_flipped = 0;
    /** Local-search iterations the correction stage spent in total. */
    uint64_t kr_correction_iterations = 0;
    /** Bits that disagreed across the trial's fused dumps. */
    uint64_t kr_disagreeing_bits = 0;

    /** Wall-clock cost; timing only, never in canonical output. */
    double duration_s = 0.0;
    /** Wall seconds the trial spent in each telemetry::Phase (timing
     * only; 0 for phases its family never enters). */
    std::array<double, telemetry::kPhaseCount> phase_wall_s{};
    /** The trial overran CampaignConfig::trial_timeout (timing only). */
    bool timed_out = false;
};

/** A schema value: one alternative per type a TrialSpec or
 * TrialRecord member in the tables below has. */
using FieldValue = std::variant<uint64_t, double, bool, std::string,
                                TargetRam, AttackKind, TrialStatus>;

template <class Owner, class Value>
struct MemberRefOf;
template <class Owner, class... T>
struct MemberRefOf<Owner, std::variant<T...>>
{
    using type = std::variant<T &(*)(Owner &)...>;
};

/** A member of @p Owner as an accessor returning a reference to it;
 * the alternative held names the member's type, i.e. its value kind.
 * The accessors take a mutable owner so one table serves reads and
 * writes. */
template <class Owner>
using MemberRef = typename MemberRefOf<Owner, FieldValue>::type;

/** The value of @p ref's member of @p owner. */
template <class Owner>
FieldValue
readMember(const MemberRef<Owner> &ref, const Owner &owner)
{
    return std::visit(
        [&](auto get) -> FieldValue { return get(const_cast<Owner &>(owner)); },
        ref);
}

/** Store @p value, which holds the member's type, in the member. */
template <class Owner>
void
writeMember(const MemberRef<Owner> &ref, Owner &owner, FieldValue value)
{
    std::visit([&]<class T>(T &(*get)(Owner &)) {
        get(owner) = std::get<T>(std::move(value));
    }, ref);
}

/** Canonical text of @p value: numbers in shortest round-trip form,
 * booleans as 1/0, enums by name, strings verbatim. The grid
 * description and the CSV cells (before quoting) are this text. */
std::string plainText(const FieldValue &value);

/** @p value as a JSON literal: plainText() for numbers, true/false
 * for booleans, quoted strings for text and enum names. */
std::string jsonText(const FieldValue &value);

/** One sweep-grid axis. */
struct GridAxis
{
    const char *key;  ///< Spec key: `temp=25,-40`.
    const char *unit; ///< Unit column of `sweep --list-axes`.
    /** The TrialSpec member a trial's value lands in. Its type is the
     * axis's value kind and its default is the axis's default. */
    MemberRef<TrialSpec> member;
    /** The member's name: also the record field echoing the value,
     * when kRecordFields has one. */
    const char *name;
    /** Values column of `sweep --list-axes`; nullptr lists the
     * spellings of the member's enum. */
    const char *help;
    /** Validation: counts below this are rejected. */
    uint64_t min = 0;
    /** The spec value is a count n (default 1) and trials take the
     * member values 0..n-1: the chip-seed replication axis. */
    bool replicas = false;
};

#define VOLTBOOT_AXIS(key, unit, member, ...)                            \
    {key, unit, [](TrialSpec &s) -> auto & { return s.member; }, #member, \
     __VA_ARGS__}

/**
 * Every grid axis, in enumeration order: the first row varies slowest
 * and the last fastest, so trial indices are stable for a given spec.
 * An axis added later must keep a one-value default so existing grids
 * keep their trial indices.
 */
inline constexpr GridAxis kGridAxes[] = {
    VOLTBOOT_AXIS("board", "-", board, "pi3|pi4|imx53"),
    VOLTBOOT_AXIS("target", "-", target, nullptr),
    VOLTBOOT_AXIS("attack", "-", attack, nullptr),
    VOLTBOOT_AXIS("temp", "degC", temp_c, "ambient temperature list"),
    VOLTBOOT_AXIS("off-ms", "ms", off_ms, "power-off time list"),
    VOLTBOOT_AXIS("current", "A", current_a, "probe current-limit list"),
    VOLTBOOT_AXIS("impedance-mohm", "mohm", impedance_mohm,
                  "probe source impedance list"),
    VOLTBOOT_AXIS("glitch-off-ns", "ns", glitch_off_ns,
                  "pulse offset from victim entry"),
    VOLTBOOT_AXIS("glitch-width-ns", "ns", glitch_width_ns,
                  "pulse width (0 = no pulse)"),
    VOLTBOOT_AXIS("glitch-depth", "V", glitch_depth_v,
                  "droop below nominal (0 = no pulse)"),
    VOLTBOOT_AXIS("undervolt-depth", "V", undervolt_depth_v,
                  "static sag below nominal (0 = no ramp)"),
    VOLTBOOT_AXIS("hold-ns", "ns", hold_ns,
                  "undervolt hold time at the floor"),
    VOLTBOOT_AXIS("readout-rate", "B/us", readout_rate,
                  "frozen readout bandwidth (0 = unlimited)"),
    VOLTBOOT_AXIS("cpa-window-ns", "ns", cpa_window_ns,
                  "CPA correlation window (0 = full block)"),
    VOLTBOOT_AXIS("dumps", "count", dump_count,
                  "power-cycle dumps fused per key-recovery trial", 1),
    VOLTBOOT_AXIS("prior", "0|1", use_priors,
                  "guide key correction by DRV decay priors"),
    // No record field: records report key_planted, an outcome.
    VOLTBOOT_AXIS("key", "0|1", plant_key,
                  "plant + scan an AES-128 schedule"),
    VOLTBOOT_AXIS("seeds", "count", seed_index,
                  "chip-seed replication axis", 1, true),
};

#undef VOLTBOOT_AXIS

/** When a record field joined the voltboot-campaign-v1 schema. */
enum class Since
{
    V1,     ///< An original key: the sweep reader requires it.
    PostV1, ///< Added later: optional, absent means the default.
};

/** One trial-record field. */
struct RecordField
{
    const char *name; ///< JSON key and CSV column: the member's name.
    MemberRef<TrialRecord> member;
    Since since;
    bool csv_last = false; ///< The CSV puts it after every other column.
};

#define VOLTBOOT_FIELD(member, since, ...)                               \
    {#member, [](TrialRecord &r) -> auto & { return r.member; },         \
     Since::since, __VA_ARGS__}
#define VOLTBOOT_SPEC_FIELD(member, since)                               \
    {#member, [](TrialRecord &r) -> auto & { return r.spec.member; },    \
     Since::since}

/** Every canonical record field, in JSON key order. The CSV uses the
 * same order with the csv_last column moved to the end. Timing-only
 * members (duration_s, phase_wall_s, timed_out) are not fields. */
inline constexpr RecordField kRecordFields[] = {
    VOLTBOOT_SPEC_FIELD(index, V1),
    VOLTBOOT_SPEC_FIELD(board, V1),
    VOLTBOOT_SPEC_FIELD(target, V1),
    VOLTBOOT_SPEC_FIELD(attack, V1),
    VOLTBOOT_SPEC_FIELD(temp_c, V1),
    VOLTBOOT_SPEC_FIELD(off_ms, V1),
    VOLTBOOT_SPEC_FIELD(current_a, V1),
    VOLTBOOT_SPEC_FIELD(impedance_mohm, V1),
    VOLTBOOT_SPEC_FIELD(seed_index, V1),
    VOLTBOOT_SPEC_FIELD(glitch_off_ns, PostV1),
    VOLTBOOT_SPEC_FIELD(glitch_width_ns, PostV1),
    VOLTBOOT_SPEC_FIELD(glitch_depth_v, PostV1),
    VOLTBOOT_SPEC_FIELD(undervolt_depth_v, PostV1),
    VOLTBOOT_SPEC_FIELD(hold_ns, PostV1),
    VOLTBOOT_SPEC_FIELD(readout_rate, PostV1),
    VOLTBOOT_SPEC_FIELD(cpa_window_ns, PostV1),
    VOLTBOOT_SPEC_FIELD(dump_count, PostV1),
    VOLTBOOT_SPEC_FIELD(use_priors, PostV1),
    VOLTBOOT_FIELD(chip_seed, V1),
    VOLTBOOT_FIELD(status, V1),
    // Free text last in the CSV, so a trailing quoted cell holds it.
    VOLTBOOT_FIELD(detail, V1, true),
    VOLTBOOT_FIELD(probe_attached, V1),
    VOLTBOOT_FIELD(booted, V1),
    VOLTBOOT_FIELD(dump_bytes, V1),
    VOLTBOOT_FIELD(accuracy, V1),
    VOLTBOOT_FIELD(bit_error_rate, V1),
    VOLTBOOT_FIELD(key_planted, V1),
    VOLTBOOT_FIELD(key_found, V1),
    VOLTBOOT_FIELD(key_exact, V1),
    VOLTBOOT_FIELD(glitch_faults, PostV1),
    VOLTBOOT_FIELD(glitch_effect, PostV1),
    VOLTBOOT_FIELD(glitch_bypassed, PostV1),
    VOLTBOOT_FIELD(se_frozen, PostV1),
    VOLTBOOT_FIELD(se_zeroized, PostV1),
    VOLTBOOT_FIELD(se_read_fraction, PostV1),
    VOLTBOOT_FIELD(cpa_recovered, PostV1),
    VOLTBOOT_FIELD(kr_scan_hits, PostV1),
    VOLTBOOT_FIELD(kr_corrected_hits, PostV1),
    VOLTBOOT_FIELD(kr_bit_errors, PostV1),
    VOLTBOOT_FIELD(kr_key_bits_flipped, PostV1),
    VOLTBOOT_FIELD(kr_correction_iterations, PostV1),
    VOLTBOOT_FIELD(kr_disagreeing_bits, PostV1),
};

#undef VOLTBOOT_SPEC_FIELD
#undef VOLTBOOT_FIELD

} // namespace voltboot

#endif // VOLTBOOT_CAMPAIGN_SCHEMA_HH
