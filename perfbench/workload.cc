/**
 * @file
 * In-process workload runner for the repository benchmark.
 *
 * perfbench/run.py launches one process per run:
 *
 *     perfbench_workload --workload NAME --seed N --seconds S
 *                        --trace 0|1 --out DIR [--min-trials N]
 *
 * and this program drives the library through its public calls
 * (Campaign::run, runTrial's steps, CampaignResult::toJson/toCsv). It
 * only measures and records raw facts into DIR; every statistic, every
 * correctness check and the printed result live in run.py.
 *
 * Untraced run (--trace 0): set-up, then rounds of the workload's
 * campaigns until S seconds have passed and at least --min-trials
 * trials have completed. Writes result.json (per-round and per-trial
 * timings and outcomes, telemetry totals, peak RSS) and round0.json /
 * round0.csv (the canonical campaign output of round 0, for the digest
 * check).
 *
 * Traced run (--trace 1): each round runs the campaigns untraced and
 * then again with replayTrial() — this file's copy of runTrial()'s
 * steps with a span around every call into a layer — as the campaign
 * runner. Spans are kept in memory and written to spans.jsonl at the
 * end; result.json additionally carries the traced pass's timings,
 * counter deltas and the replay-parity verdict.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/trial_runner.hh"
#include "core/attack.hh"
#include "crypto/key_finder.hh"
#include "crypto/onchip_crypto.hh"
#include "keyfind/engine.hh"
#include "keyfind/prior.hh"
#include "os/baremetal.hh"
#include "os/workloads.hh"
#include "report/trace_reader.hh"
#include "sidechannel/coupling.hh"
#include "sidechannel/static_extract.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "soc/soc.hh"
#include "sram/fingerprint_cache.hh"
#include "sram/memory_image.hh"
#include "telemetry/counters.hh"
#include "trace/trace.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace voltboot
{
namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

uint64_t
nanosSince(Clock::time_point origin)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - origin)
            .count());
}

/**
 * One benchmark workload: the campaigns a round runs, the worker
 * count, and whether every round must land on never-seen dies.
 */
struct Workload
{
    std::string name;
    unsigned jobs = 1;
    std::vector<std::string> grids;
    /** New campaign seeds every round, so no trial reuses a die. */
    bool fresh = false;
    /** Dies brought up in set-up and reused by every round. */
    uint64_t warm_dies = 0;
};

// Both workloads run every attack family, so every traced layer is
// measured on each. Glitch and static-extract use the docs/ATTACKS.md
// worked-sweep sweet spots; the voltage-coupling trial builds no Soc
// and uses the default full-block CPA window.
//
// fresh_chip gives every grid of every round its own campaign seed, so
// no trial touches a die another trial touched. Its single-dump
// key-recovery trial costs about what a Volt Boot or cold-boot trial
// does on a fresh die; three of each of those per glitch,
// static-extract and CPA trial put both p50 and p90 inside that group
// of seven rather than on a boundary between families, where they
// would flip between the families' costs from run to run.
//
// warm_chip shares one campaign seed across its grids and rounds, so
// every trial lands on the two dies brought up in set-up.
Workload
workloadFor(const std::string &name)
{
    Workload w;
    w.name = name;
    const std::string glitch = "board=pi4;target=dcache;attack=glitch;"
                               "glitch-off-ns=109;glitch-width-ns=2;"
                               "glitch-depth=0.5;";
    const std::string static_extract =
        "board=pi4;target=dcache;attack=static-extract;"
        "undervolt-depth=0.45;hold-ns=400;";
    const std::string coupling =
        "board=pi4;target=dcache;attack=voltage-coupling;cpa-window-ns=0;";
    if (name == "fresh_chip") {
        w.fresh = true;
        w.grids = {
            "board=pi4;target=dcache;attack=voltboot;key=1;seeds=3",
            "board=pi4;target=dcache;attack=coldboot;key=1;seeds=3",
            glitch + "seeds=1",
            static_extract + "seeds=1",
            coupling + "seeds=1",
            "board=pi4;target=dcache;attack=key-recovery;temp=-40;"
            "off-ms=5;dumps=1;prior=1;seeds=1",
        };
    } else if (name == "warm_chip") {
        w.jobs = 2;
        w.warm_dies = 2;
        w.grids = {
            "board=pi4;target=dcache;attack=voltboot,coldboot,key-recovery;"
            "temp=-40,25;off-ms=5,50,500,5000;key=1;dumps=3;prior=1;"
            "seeds=2",
            glitch + "seeds=2",
            static_extract + "seeds=2",
            coupling + "seeds=2",
        };
    } else {
        fatal("unknown workload '", name, "'");
    }
    return w;
}

/** Campaign seed of grid @p g in round @p round. */
uint64_t
campaignSeed(const Workload &w, uint64_t seed, uint64_t round, size_t g)
{
    const uint64_t base = hashCombine(seed, 0xbe4cULL);
    return w.fresh ? hashCombine(hashCombine(base, g), round) : base;
}

// ---------------------------------------------------------------------
// Spans: recorded around each call into a layer by replayTrial().

struct SpanRecord
{
    uint64_t trial = 0; ///< Trial id, unique within the run.
    const char *name = "";
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int parent = -1; ///< Index of the enclosing span in the same trial.
};

/** Spans of the trial running on this thread. */
struct TrialSpans
{
    uint64_t trial = 0;
    std::vector<SpanRecord> spans;
    std::vector<int> open;
};

thread_local TrialSpans *tl_spans = nullptr;
Clock::time_point g_origin;

std::mutex g_spans_mutex;
std::vector<SpanRecord> g_spans; // guarded by g_spans_mutex

/** Per-trial counts of the CPA path, summed over the traced run. */
std::atomic<uint64_t> g_trace_events{0};
std::atomic<uint64_t> g_jsonl_bytes{0};

/** RAII span on the current trial (no-op outside replayTrial). */
class SpanScope
{
  public:
    explicit SpanScope(const char *name)
    {
        if (!tl_spans)
            return;
        SpanRecord s;
        s.trial = tl_spans->trial;
        s.name = name;
        s.parent = tl_spans->open.empty() ? -1 : tl_spans->open.back();
        s.start_ns = nanosSince(g_origin);
        index_ = static_cast<int>(tl_spans->spans.size());
        tl_spans->spans.push_back(s);
        tl_spans->open.push_back(index_);
    }
    ~SpanScope()
    {
        if (!tl_spans)
            return;
        tl_spans->spans[index_].end_ns = nanosSince(g_origin);
        tl_spans->open.pop_back();
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    int index_ = -1;
};

/** Run @p fn inside a span named @p name and return its result. */
template <class Fn>
auto
spanned(const char *name, Fn &&fn)
{
    SpanScope scope(name);
    return fn();
}

// ---------------------------------------------------------------------
// replayTrial: runTrial()'s steps (campaign/trial_runner.cc), calling
// the same public functions, with a span around each call.

struct Victim
{
    MemoryImage truth;
    std::vector<uint8_t> planted_key;
};

Victim
stageVictim(Soc &soc, const TrialSpec &spec, Rng &rng)
{
    SpanScope span("victim_stage");
    Victim v;
    BareMetalRunner runner(soc);
    switch (spec.target) {
      case TargetRam::DCache:
        if (spec.plant_key) {
            Cache &l1d = soc.memory().l1d(0);
            l1d.invalidateAll();
            l1d.setEnabled(true);
            v.planted_key.resize(16);
            for (auto &b : v.planted_key)
                b = static_cast<uint8_t>(rng.next());
            const std::vector<uint8_t> binary(256, 0x90);
            CaseExecution cas(l1d, soc.config().dram_base + 0x40000,
                              binary, v.planted_key);
            v.truth = l1d.dumpAll();
        } else {
            runner.runOn(0, workloads::patternStore(
                                soc.config().dram_base + 0x40000,
                                soc.config().l1d.size_bytes, 0xAA));
            v.truth = soc.memory().l1d(0).dumpAll();
        }
        break;
      default:
        // Every benchmark workload targets the L1 data RAM.
        fatal("replayTrial stages dcache victims only, not ",
              toString(spec.target));
    }
    return v;
}

void
score(TrialRecord &rec, const MemoryImage &dump, const Victim &victim)
{
    SpanScope span("score");
    rec.dump_bytes = dump.sizeBytes();
    rec.bit_error_rate =
        MemoryImage::fractionalHamming(dump, victim.truth);
    rec.accuracy = 1.0 - rec.bit_error_rate;
    if (!victim.planted_key.empty()) {
        rec.key_planted = true;
        const KeyFinder finder;
        if (const auto hit = finder.best(dump)) {
            rec.key_found = true;
            rec.key_exact = hit->key == victim.planted_key;
        }
    }
    rec.status = TrialStatus::Ok;
}

void
replayCoupling(TrialRecord &rec, const TrialSpec &spec,
               uint64_t campaign_seed)
{
    const SocConfig ccfg = socConfigFor(spec.board);
    sidechannel::CouplingVictimConfig vcfg;
    vcfg.domain = ccfg.core_domain.name;
    vcfg.nominal = ccfg.core_domain.nominal;
    vcfg.seed = hashCombine(deriveTrialSeed(campaign_seed, spec.index),
                            0xc0abULL);
    const uint64_t kseed = hashCombine(rec.chip_seed, 0x5ecaULL);
    for (size_t i = 0; i < 16; ++i)
        vcfg.key[i] = static_cast<uint8_t>(hashCombine(kseed, i));

    std::vector<trace::TraceEvent> events;
    {
        // The sink's events die with this block, inside the span that
        // made them.
        SpanScope span("sidechannel.capture");
        trace::MemoryTraceSink sink;
        {
            trace::Scope capture(sink);
            sidechannel::runCoupledAesVictim(vcfg);
        }
        const std::string jsonl = spanned("trace.to_jsonl", [&] {
            return trace::toJsonl(sink.events());
        });
        g_trace_events += sink.events().size();
        g_jsonl_bytes += jsonl.size();
        events = spanned("report.read_trace", [&] {
            return report::readTrace(jsonl, "coupling-capture");
        });
    }
    sidechannel::CpaOptions opts;
    opts.domain = vcfg.domain;
    opts.window_ns = spec.cpa_window_ns;
    const sidechannel::CpaResult cpa = spanned("sidechannel.cpa", [&] {
        return sidechannel::analyzeCoupling(events, opts);
    });

    const unsigned correct = sidechannel::countCorrectBytes(cpa, vcfg.key);
    rec.cpa_recovered = cpa.recovered;
    rec.accuracy = static_cast<double>(correct) / 16.0;
    rec.bit_error_rate = 1.0 - rec.accuracy;
    rec.key_planted = true;
    rec.key_found = cpa.recovered > 0;
    rec.key_exact = correct == 16;
    rec.status = TrialStatus::Ok;
}

void
replayGlitch(TrialRecord &rec, Soc &soc, const TrialSpec &spec,
             uint64_t campaign_seed)
{
    GlitchConfig gcfg;
    gcfg.pulse.offset = Seconds::nanoseconds(spec.glitch_off_ns);
    gcfg.pulse.width = Seconds::nanoseconds(spec.glitch_width_ns);
    gcfg.pulse.depth = Volt(spec.glitch_depth_v);
    gcfg.seed = hashCombine(deriveTrialSeed(campaign_seed, spec.index),
                            0x617cULL);
    GlitchAttack attack(soc, gcfg);
    const GlitchOutcome out =
        spanned("attack.glitch", [&] { return attack.execute(); });
    rec.glitch_faults = out.faults_injected;
    for (size_t i = 0; i < out.effects.size(); ++i) {
        if (i)
            rec.glitch_effect += ',';
        rec.glitch_effect += out.effects[i];
    }
    rec.glitch_bypassed = out.bypassed;
    rec.accuracy = out.bypassed ? 1.0 : 0.0;
    rec.bit_error_rate = 1.0 - rec.accuracy;
    if (out.crashed)
        rec.detail = out.crash_reason;
    rec.status = TrialStatus::Ok;
}

void
replayKeyRecovery(TrialRecord &rec, Soc &soc, const TrialSpec &spec,
                  Rng &rng)
{
    if (spec.target != TargetRam::DCache)
        fatal("key-recovery supports dcache only, not ",
              toString(spec.target));
    std::vector<uint8_t> key(16);
    for (auto &b : key)
        b = static_cast<uint8_t>(rng.next());
    const std::vector<uint8_t> binary(256, 0x90);
    const auto stage = [&] {
        SpanScope span("victim_stage");
        Cache &l1d = soc.memory().l1d(0);
        l1d.invalidateAll();
        l1d.setEnabled(true);
        CaseExecution cas(l1d, soc.config().dram_base + 0x40000, binary,
                          key);
        return l1d.dumpAll();
    };
    const MemoryImage truth = stage();
    std::vector<MemoryImage> dumps;
    dumps.reserve(spec.dump_count);
    for (uint64_t d = 0; d < spec.dump_count; ++d) {
        if (d > 0)
            stage();
        ColdBootAttack attack(soc, Temperature::celsius(spec.temp_c),
                              Seconds::milliseconds(spec.off_ms));
        if (!spanned("attack.coldboot",
                     [&] { return attack.powerCycleAndBoot(); })) {
            rec.status = TrialStatus::AttackFailed;
            rec.detail = "boot failed (authenticated boot?)";
            return;
        }
        dumps.push_back(spanned(
            "extract", [&] { return attack.dumpL1(0, L1Ram::DData); }));
    }
    rec.booted = true;

    std::vector<float> priors;
    if (spec.use_priors)
        priors = spanned("keyfind.priors", [&] {
            return keyfind::decayFlipPriors(
                soc.l1dData(0).model(), dumps.front().sizeBits(),
                Seconds::milliseconds(spec.off_ms),
                Temperature::celsius(spec.temp_c));
        });

    const keyfind::FusedDump fused = spanned(
        "keyfind.fuse", [&] { return keyfind::fuseDumps(dumps, priors); });
    {
        SpanScope span("score");
        rec.dump_bytes = fused.image.sizeBytes();
        rec.bit_error_rate =
            MemoryImage::fractionalHamming(fused.image, truth);
        rec.accuracy = 1.0 - rec.bit_error_rate;
    }
    rec.kr_disagreeing_bits = fused.disagreeing_bits;

    keyfind::KeyRecoveryConfig kcfg;
    kcfg.jobs = 1;
    kcfg.use_priors = spec.use_priors;
    const keyfind::KeyRecoveryEngine engine(kcfg);
    const keyfind::RecoveryReport report = spanned(
        "keyfind.recover", [&] { return engine.recover(dumps, priors); });
    rec.kr_scan_hits = report.scan_hits.size();
    rec.kr_corrected_hits = report.corrected_hits.size();
    rec.kr_correction_iterations = report.correction.iterations;
    if (!report.scan_hits.empty())
        rec.kr_bit_errors = report.scan_hits.front().bit_errors;
    else if (!report.corrected_hits.empty())
        rec.kr_bit_errors =
            report.corrected_hits.front().corrected.residual_bit_errors;
    if (!report.corrected_hits.empty())
        rec.kr_key_bits_flipped =
            report.corrected_hits.front().corrected.key_bits_flipped;
    rec.key_planted = true;
    if (const auto best = report.bestKey()) {
        rec.key_found = true;
        rec.key_exact = *best == key;
    }
    rec.status = TrialStatus::Ok;
}

void
replayStaticExtract(TrialRecord &rec, Soc &soc, const TrialSpec &spec,
                    uint64_t campaign_seed, const Victim &victim)
{
    if (spec.target != TargetRam::DCache)
        fatal("replayTrial runs static-extract on dcache only");
    sidechannel::StaticExtractConfig secfg;
    secfg.target = sidechannel::ExtractTarget::DCache;
    secfg.depth = Volt(spec.undervolt_depth_v);
    secfg.hold = Seconds::nanoseconds(spec.hold_ns);
    secfg.readout_rate = spec.readout_rate;
    secfg.seed = hashCombine(deriveTrialSeed(campaign_seed, spec.index),
                             0x5eecULL);
    sidechannel::StaticExtractAttack attack(soc, secfg);
    const sidechannel::StaticExtractOutcome out = spanned(
        "attack.static_extract", [&] { return attack.execute(); });
    rec.se_frozen = out.frozen;
    rec.se_zeroized = out.zeroized;
    rec.se_read_fraction = out.read_fraction;
    score(rec, out.dump, victim);
}

void
replaySocTrial(TrialRecord &rec, const TrialSpec &spec,
               uint64_t campaign_seed, Rng &rng)
{
    SocConfig cfg = socConfigFor(spec.board);
    cfg.chip_seed = rec.chip_seed;
    std::optional<Soc> soc;
    spanned("soc_build", [&] { soc.emplace(cfg); });
    soc->setAmbient(Temperature::celsius(spec.temp_c));
    spanned("power_on", [&] { soc->powerOn(); });

    switch (spec.attack) {
      case AttackKind::Glitch:
        replayGlitch(rec, *soc, spec, campaign_seed);
        break;
      case AttackKind::KeyRecovery:
        replayKeyRecovery(rec, *soc, spec, rng);
        break;
      case AttackKind::StaticExtract: {
        const Victim victim = stageVictim(*soc, spec, rng);
        replayStaticExtract(rec, *soc, spec, campaign_seed, victim);
        break;
      }
      case AttackKind::VoltBoot: {
        const Victim victim = stageVictim(*soc, spec, rng);
        AttackConfig acfg;
        acfg.probe_max_current = Amp(spec.current_a);
        acfg.probe_impedance = Ohm::milliohms(spec.impedance_mohm);
        acfg.off_time = Seconds::milliseconds(spec.off_ms);
        VoltBootAttack attack(*soc, acfg);
        const AttackOutcome out =
            spanned("attack.voltboot", [&] { return attack.execute(); });
        rec.probe_attached = out.probe_attached;
        rec.booted = out.rebooted_into_attacker_code;
        if (!rec.booted) {
            rec.status = TrialStatus::AttackFailed;
            rec.detail = out.failure_reason;
            break;
        }
        if (spec.target != TargetRam::DCache)
            fatal("replayTrial extracts dcache only");
        const MemoryImage dump = spanned(
            "extract", [&] { return attack.dumpL1(0, L1Ram::DData); });
        score(rec, dump, victim);
        break;
      }
      case AttackKind::ColdBoot: {
        const Victim victim = stageVictim(*soc, spec, rng);
        if (spec.target != TargetRam::DCache)
            fatal("replayTrial extracts dcache only");
        ColdBootAttack attack(*soc, Temperature::celsius(spec.temp_c),
                              Seconds::milliseconds(spec.off_ms));
        if (!spanned("attack.coldboot",
                     [&] { return attack.powerCycleAndBoot(); })) {
            rec.status = TrialStatus::AttackFailed;
            rec.detail = "boot failed (authenticated boot?)";
            break;
        }
        rec.booted = true;
        const MemoryImage dump = spanned(
            "extract", [&] { return attack.dumpL1(0, L1Ram::DData); });
        score(rec, dump, victim);
        break;
      }
      case AttackKind::VoltageCoupling:
        panic("coupling trials build no Soc");
    }
    // Releasing the die's arrays is part of every Soc trial's cost.
    spanned("soc_teardown", [&] { soc.reset(); });
}

/** runTrial()'s steps for @p spec, recording spans under trial id
 * @p trial_id. */
TrialRecord
replayTrial(const TrialSpec &spec, uint64_t campaign_seed,
            uint64_t trial_id)
{
    TrialSpans spans;
    spans.trial = trial_id;
    tl_spans = &spans;
    TrialRecord rec;
    try {
        SpanScope root("trial");
        rec.spec = spec;
        rec.chip_seed = deriveChipSeed(campaign_seed, spec.seed_index);
        Rng rng(deriveTrialSeed(campaign_seed, spec.index));
        if (spec.attack == AttackKind::VoltageCoupling)
            replayCoupling(rec, spec, campaign_seed);
        else
            replaySocTrial(rec, spec, campaign_seed, rng);
    } catch (...) {
        tl_spans = nullptr;
        throw;
    }
    tl_spans = nullptr;
    std::lock_guard<std::mutex> lock(g_spans_mutex);
    g_spans.insert(g_spans.end(), spans.spans.begin(), spans.spans.end());
    return rec;
}

// ---------------------------------------------------------------------
// Run bookkeeping and output.

struct TrialRow
{
    uint64_t id = 0;
    AttackKind attack = AttackKind::VoltBoot;
    TrialStatus status = TrialStatus::Skipped;
    double wall_ms = 0.0;
    double accuracy = 0.0;
    bool key_planted = false;
    bool key_exact = false;
    uint64_t cpa_recovered = 0;
};

struct RoundRow
{
    uint64_t trials = 0;
    double run_s = 0.0;    ///< Summed Campaign::run walls.
    double render_s = 0.0; ///< Summed toJson + toCsv walls.
    double trial_s = 0.0;  ///< Summed per-trial walls.
    long minflt = 0;       ///< Minor page faults during the round.
    long majflt = 0;
};

struct PassResult
{
    std::string json; ///< Canonical JSON of every campaign, in order.
    std::string csv;
    RoundRow row;
    std::vector<TrialRow> trials;
};

/**
 * Peak resident set of this process image, in KiB (VmHWM). Unlike
 * getrusage's ru_maxrss, which survives execve and so starts at the
 * launching Python process's peak, VmHWM restarts with the new image.
 */
long
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stol(line.substr(6));
    fatal("VmHWM missing from /proc/self/status");
}

long
minorFaults()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_minflt;
}

long
majorFaults()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_majflt;
}

/**
 * Run every campaign of round @p round once. With @p traced, trials
 * go through replayTrial() and their ids start at @p first_id.
 */
PassResult
runRound(const Workload &w, const std::vector<SweepGrid> &grids,
         uint64_t seed, uint64_t round, bool traced, uint64_t first_id)
{
    PassResult pass;
    const long minflt0 = minorFaults();
    const long majflt0 = majorFaults();
    uint64_t id = first_id;
    for (size_t g = 0; g < grids.size(); ++g) {
        CampaignConfig cfg;
        cfg.jobs = w.jobs;
        cfg.seed = campaignSeed(w, seed, round, g);
        if (traced) {
            const uint64_t base = id;
            cfg.runner = [base](const TrialSpec &spec, uint64_t s) {
                return replayTrial(spec, s, base + spec.index);
            };
        }
        Campaign campaign(grids[g], cfg);
        const auto t0 = Clock::now();
        const CampaignResult result = campaign.run();
        const auto t1 = Clock::now();
        std::string json = result.toJson();
        std::string csv = result.toCsv();
        const auto t2 = Clock::now();
        pass.row.run_s += std::chrono::duration<double>(t1 - t0).count();
        pass.row.render_s +=
            std::chrono::duration<double>(t2 - t1).count();
        pass.json += json;
        pass.csv += csv;
        for (const TrialRecord &rec : result.records) {
            TrialRow t;
            t.id = id++;
            t.attack = rec.spec.attack;
            t.status = rec.status;
            t.wall_ms = rec.duration_s * 1e3;
            t.accuracy = rec.accuracy;
            t.key_planted = rec.key_planted;
            t.key_exact = rec.key_exact;
            t.cpa_recovered = rec.cpa_recovered;
            pass.row.trial_s += rec.duration_s;
            pass.trials.push_back(t);
        }
        pass.row.trials += result.records.size();
    }
    pass.row.minflt = minorFaults() - minflt0;
    pass.row.majflt = majorFaults() - majflt0;
    return pass;
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    out << content;
    if (!out)
        fatal("cannot write ", path);
}

void
writeRounds(std::ostream &os, const std::vector<RoundRow> &rounds)
{
    os << "[";
    for (size_t i = 0; i < rounds.size(); ++i) {
        const RoundRow &r = rounds[i];
        os << (i ? ",\n" : "\n") << "{\"trials\":" << r.trials
           << ",\"run_s\":" << r.run_s << ",\"render_s\":" << r.render_s
           << ",\"trial_s\":" << r.trial_s << ",\"minflt\":" << r.minflt
           << ",\"majflt\":" << r.majflt << "}";
    }
    os << "]";
}

void
writeTrials(std::ostream &os, const std::vector<TrialRow> &trials)
{
    // Positional rows keep a long CPA run's file small:
    // [id, family, status, wall_ms, accuracy, key_planted, key_exact,
    //  cpa_recovered]
    os << "[";
    for (size_t i = 0; i < trials.size(); ++i) {
        const TrialRow &t = trials[i];
        os << (i ? ",\n" : "\n") << "[" << t.id << ",\""
           << toString(t.attack) << "\",\"" << toString(t.status) << "\","
           << t.wall_ms << "," << t.accuracy << "," << t.key_planted << ","
           << t.key_exact << "," << t.cpa_recovered << "]";
    }
    os << "]";
}

void
writeCounters(std::ostream &os, const telemetry::CounterTotals &delta)
{
    os << "{";
    for (unsigned c = 0; c < telemetry::kCounterCount; ++c) {
        const auto counter = static_cast<telemetry::Counter>(c);
        os << (c ? "," : "") << "\"" << telemetry::counterName(counter)
           << "\":" << delta.get(counter);
    }
    os << "}";
}

void
writeSeconds(std::ostream &os, const std::vector<double> &v)
{
    os << "[";
    for (size_t i = 0; i < v.size(); ++i)
        os << (i ? "," : "") << v[i];
    os << "]";
}

telemetry::CounterTotals
operator-(const telemetry::CounterTotals &a, const telemetry::CounterTotals &b)
{
    telemetry::CounterTotals d;
    for (unsigned c = 0; c < telemetry::kCounterCount; ++c)
        d.v[c] = a.v[c] - b.v[c];
    return d;
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
    uint64_t min_trials = 100;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            fatal("missing value for ", flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            a.workload = value;
        else if (flag == "--seed")
            a.seed = std::stoull(value);
        else if (flag == "--seconds")
            a.seconds = std::stod(value);
        else if (flag == "--trace")
            a.trace = value == "1";
        else if (flag == "--out")
            a.out = value;
        else if (flag == "--min-trials")
            a.min_trials = std::stoull(value);
        else
            fatal("unknown flag ", flag);
    }
    if (a.workload.empty() || a.out.empty())
        fatal("--workload and --out are required");
    return a;
}

/**
 * How long set-up repeats its resets back to back; their median is the
 * reset cost. The first milliseconds after the process starts run
 * measurably faster than the rest of the run on shared hosts, so a
 * handful of repeats would time that transient rather than the steady
 * cost.
 */
constexpr double kResetSeconds = 1.0;
/** Times the warm dies are brought up from cold silicon in set-up. */
constexpr int kBringUpRepeats = 3;

int
run(const Args &args)
{
    g_origin = Clock::now();
    const Workload w = workloadFor(args.workload);

    // ---- set-up: resets, grids, die bring-up (each timed apart).
    std::vector<double> reset_s;
    std::vector<SweepGrid> grids;
    for (const auto start = Clock::now();
         secondsSince(start) < kResetSeconds;) {
        const auto t0 = Clock::now();
        clearFingerprintCache();
        telemetry::resetCounters();
        grids.clear();
        for (const std::string &spec : w.grids)
            grids.push_back(SweepGrid::parse(spec));
        reset_s.push_back(secondsSince(t0));
    }
    std::vector<double> bringup_s;
    for (int rep = 0; rep < (w.warm_dies ? kBringUpRepeats : 0); ++rep) {
        clearFingerprintCache();
        for (uint64_t die = 0; die < w.warm_dies; ++die) {
            const auto t0 = Clock::now();
            SocConfig cfg = socConfigFor("pi4");
            cfg.chip_seed =
                deriveChipSeed(campaignSeed(w, args.seed, 0, 0), die);
            Soc soc(cfg);
            soc.powerOn();
            bringup_s.push_back(secondsSince(t0));
        }
    }

    // ---- timed rounds.
    std::vector<RoundRow> rounds;
    std::vector<TrialRow> trials, traced_trials;
    std::string round0_json, round0_csv;
    bool rounds_consistent = true;
    bool replay_parity = true;
    telemetry::CounterTotals traced_delta_sum{};
    const telemetry::CounterTotals run_before = telemetry::totals();
    const auto loop_start = Clock::now();
    uint64_t next_id = 0;
    for (uint64_t round = 0;; ++round) {
        if (args.trace && w.fresh)
            clearFingerprintCache();
        PassResult pass =
            runRound(w, grids, args.seed, round, false, next_id);
        if (round == 0) {
            round0_json = pass.json;
            round0_csv = pass.csv;
        } else if (!w.fresh) {
            rounds_consistent = rounds_consistent &&
                                pass.json == round0_json &&
                                pass.csv == round0_csv;
        }
        if (args.trace) {
            if (w.fresh)
                clearFingerprintCache();
            const telemetry::CounterTotals traced_before =
                telemetry::totals();
            PassResult tpass =
                runRound(w, grids, args.seed, round, true, next_id);
            const telemetry::CounterTotals delta =
                telemetry::totals() - traced_before;
            for (unsigned c = 0; c < telemetry::kCounterCount; ++c)
                traced_delta_sum.v[c] += delta.v[c];
            replay_parity = replay_parity && tpass.json == pass.json &&
                            tpass.csv == pass.csv;
            traced_trials.insert(traced_trials.end(), tpass.trials.begin(),
                                 tpass.trials.end());
        }
        next_id += pass.row.trials;
        rounds.push_back(pass.row);
        trials.insert(trials.end(), pass.trials.begin(), pass.trials.end());
        const bool time_up = secondsSince(loop_start) >= args.seconds;
        const bool enough = args.trace || trials.size() >= args.min_trials;
        if (time_up && enough)
            break;
    }
    const telemetry::CounterTotals run_after = telemetry::totals();

    const FingerprintCacheStats fp = fingerprintCacheStats();

    writeFile(args.out + "/round0.json", round0_json);
    writeFile(args.out + "/round0.csv", round0_csv);

    std::ostringstream r;
    r.precision(17);
    r << "{\n\"workload\":\"" << w.name << "\",\n\"seed\":" << args.seed
      << ",\n\"traced\":" << (args.trace ? "true" : "false")
      << ",\n\"jobs\":" << w.jobs
      << ",\n\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
      << ",\n\"build_type\":\"" PERFBENCH_BUILD_TYPE "\""
#if defined(__OPTIMIZE__) && defined(NDEBUG)
      << ",\n\"optimized\":true"
#else
      << ",\n\"optimized\":false"
#endif
      << ",\n\"warm_dies\":" << w.warm_dies << ",\n\"reset_s\":";
    writeSeconds(r, reset_s);
    r << ",\n\"bringup_s\":";
    writeSeconds(r, bringup_s);
    r << ",\n\"peak_rss_kb\":" << peakRssKb()
      << ",\n\"fp_cache_bytes\":" << fp.bytes
      << ",\n\"rounds_consistent\":"
      << (rounds_consistent ? "true" : "false") << ",\n\"counters\":";
    writeCounters(r, run_after - run_before);
    r << ",\n\"rounds\":";
    writeRounds(r, rounds);
    r << ",\n\"trials\":";
    writeTrials(r, trials);
    if (args.trace) {
        r << ",\n\"replay_parity\":" << (replay_parity ? "true" : "false")
          << ",\n\"traced_counters\":";
        writeCounters(r, traced_delta_sum);
        r << ",\n\"trace_events\":" << g_trace_events.load()
          << ",\n\"jsonl_bytes\":" << g_jsonl_bytes.load()
          << ",\n\"traced_trials\":";
        writeTrials(r, traced_trials);

        // One row per span: [trial, name, start_ns, end_ns, parent],
        // a trial's spans contiguous and in opening order.
        std::ostringstream spans;
        {
            std::lock_guard<std::mutex> lock(g_spans_mutex);
            for (const SpanRecord &s : g_spans)
                spans << "[" << s.trial << ",\"" << s.name << "\","
                      << s.start_ns << "," << s.end_ns << "," << s.parent
                      << "]\n";
        }
        writeFile(args.out + "/spans.jsonl", spans.str());
    }
    r << "\n}\n";
    writeFile(args.out + "/result.json", r.str());
    return 0;
}

} // namespace
} // namespace voltboot

int
main(int argc, char **argv)
{
    try {
        return voltboot::run(voltboot::parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_workload: %s\n", e.what());
        return 1;
    }
}
