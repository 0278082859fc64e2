#include "campaign/trial_runner.hh"

#include <optional>
#include <vector>

#include "core/attack.hh"
#include "crypto/key_finder.hh"
#include "crypto/onchip_crypto.hh"
#include "keyfind/engine.hh"
#include "keyfind/schedule_scan.hh"
#include "os/baremetal.hh"
#include "os/workloads.hh"
#include "report/trace_reader.hh"
#include "sidechannel/coupling.hh"
#include "sidechannel/static_extract.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "soc/soc.hh"
#include "sram/memory_image.hh"
#include "trace/trace.hh"

namespace voltboot
{

SocConfig
socConfigFor(const std::string &board)
{
    if (board == "pi3")
        return SocConfig::bcm2837();
    if (board == "pi4")
        return SocConfig::bcm2711();
    if (board == "imx53")
        return SocConfig::imx535();
    fatal("unknown board '", board, "' (pi3|pi4|imx53)");
}

uint64_t
deriveChipSeed(uint64_t campaign_seed, uint64_t seed_index)
{
    // Domain-separated from the trial streams so that adding axes never
    // changes which die a given (campaign seed, seed index) names.
    return hashCombine(hashCombine(campaign_seed, 0xc41bULL), seed_index);
}

uint64_t
deriveTrialSeed(uint64_t campaign_seed, uint64_t trial_index)
{
    return hashCombine(campaign_seed, trial_index);
}

namespace
{

/** CaSE-style victim: lock an AES-128 key's schedule into core 0's L1D
 * and return the data RAM it leaves. An empty @p key is drawn from
 * @p rng first. */
MemoryImage
stageCaseKey(Soc &soc, std::vector<uint8_t> &key, Rng &rng)
{
    Cache &l1d = soc.memory().l1d(0);
    l1d.invalidateAll();
    l1d.setEnabled(true);
    if (key.empty()) {
        key.resize(16);
        for (auto &b : key)
            b = static_cast<uint8_t>(rng.next());
    }
    const std::vector<uint8_t> binary(256, 0x90);
    CaseExecution cas(l1d, soc.config().dram_base + 0x40000, binary, key);
    return l1d.dumpAll();
}

void
score(TrialRecord &rec, const MemoryImage &dump,
      const StagedVictim &victim)
{
    rec.dump_bytes = dump.sizeBytes();
    rec.bit_error_rate =
        MemoryImage::fractionalHamming(dump, victim.truth);
    rec.accuracy = 1.0 - rec.bit_error_rate;
    if (!victim.planted_key.empty()) {
        rec.key_planted = true;
        const auto hits = keyfind::scheduleScan(dump, KeyFinderConfig{});
        if (!hits.empty()) {
            rec.key_found = true;
            rec.key_exact = hits.front().key == victim.planted_key;
        }
    }
    rec.status = TrialStatus::Ok;
}

} // namespace

StagedVictim
stageTrialVictim(Soc &soc, const TrialSpec &spec, Rng &rng)
{
    StagedVictim v;
    BareMetalRunner runner(soc);
    switch (spec.target) {
      case TargetRam::DCache:
        if (spec.plant_key) {
            v.truth = stageCaseKey(soc, v.planted_key, rng);
        } else {
            // Fill the whole data RAM so every bit of the dump scores
            // against victim data (untouched lines would trivially
            // match their own power-up fingerprint and mask decay).
            runner.runOn(0, workloads::patternStore(
                                soc.config().dram_base + 0x40000,
                                soc.config().l1d.size_bytes, 0xAA));
            v.truth = soc.memory().l1d(0).dumpAll();
        }
        break;
      case TargetRam::ICache:
        runner.runOn(0, workloads::nopFiller(
                            soc.config().l1i.size_bytes / 4));
        v.truth = soc.memory().l1i(0).dumpAll();
        break;
      case TargetRam::Regs: {
        runner.runOn(0, workloads::vectorFill(0xFF, 0xAA));
        // v0..v31, 16 bytes each: even registers 0xFF, odd 0xAA.
        std::vector<uint8_t> truth(512);
        for (size_t reg = 0; reg < 32; ++reg)
            for (size_t b = 0; b < 16; ++b)
                truth[reg * 16 + b] = (reg % 2 == 0) ? 0xFF : 0xAA;
        v.truth = MemoryImage(std::move(truth));
        break;
      }
      case TargetRam::Iram: {
        if (!soc.iramArray())
            fatal("board '", spec.board, "' has no iRAM (use imx53)");
        std::vector<uint8_t> img(soc.config().iram_bytes);
        for (size_t i = 0; i < img.size(); ++i)
            img[i] = static_cast<uint8_t>(i * 7 + 3);
        soc.jtag().writeIram(soc.config().iram_base, img);
        v.truth = MemoryImage(std::move(img));
        break;
      }
      case TargetRam::Tlb:
        runner.runOn(0, workloads::patternStore(
                            soc.config().dram_base + 0x40000, 8192,
                            0xAA));
        v.truth = soc.dtlb(0).dumpAll();
        break;
      case TargetRam::Btb:
        runner.runOn(0, workloads::patternStore(
                            soc.config().dram_base + 0x40000, 8192,
                            0xAA));
        v.truth = soc.btb(0).dumpAll();
        break;
    }
    return v;
}

MemoryImage
dumpTarget(VoltBootAttack &attack, TargetRam target)
{
    switch (target) {
      case TargetRam::DCache: return attack.dumpL1(0, L1Ram::DData);
      case TargetRam::ICache: return attack.dumpL1(0, L1Ram::IData);
      case TargetRam::Regs: return attack.dumpVectorRegisters(0);
      case TargetRam::Iram: return attack.dumpIram();
      case TargetRam::Tlb: return attack.dumpDtlb(0);
      case TargetRam::Btb: return attack.dumpBtb(0);
    }
    panic("bad TargetRam");
}

/** One trial in flight: the record it fills, its random streams, its
 * die once a family builds one, and each family's run function. */
struct TrialRun
{
    const TrialSpec &spec;
    TrialRecord &rec;
    uint64_t seed; ///< deriveTrialSeed() of the trial.
    Rng rng{seed}; ///< The trial's stream; victim staging draws from it.
    std::optional<Soc> soc{};

    /** Build the trial's die and power it on at the trial's ambient. */
    Soc &
    powerOn()
    {
        SocConfig cfg = socConfigFor(spec.board);
        cfg.chip_seed = rec.chip_seed;
        soc.emplace(cfg);
        soc->setAmbient(Temperature::celsius(spec.temp_c));
        soc->powerOn();
        return *soc;
    }

    /** The seed of a stream of its own, domain-separated from rng and
     * from the other families' streams by @p salt. */
    uint64_t
    streamSeed(uint64_t salt) const
    {
        return hashCombine(seed, salt);
    }

    /** Power-cycle the die as a cold-boot attacker and dump @p ram;
     * nullopt, with the record marked AttackFailed, if the boot fails. */
    std::optional<MemoryImage>
    coldBootDump(L1Ram ram)
    {
        ColdBootAttack attack(*soc, Temperature::celsius(spec.temp_c),
                              Seconds::milliseconds(spec.off_ms));
        if (!attack.powerCycleAndBoot()) {
            rec.status = TrialStatus::AttackFailed;
            rec.detail = "boot failed (authenticated boot?)";
            return std::nullopt;
        }
        return attack.dumpL1(0, ram);
    }

    void voltBoot();
    void coldBoot();
    void glitch();
    void staticExtract();
    void voltageCoupling();
    void keyRecovery();
};

void
TrialRun::voltBoot()
{
    const StagedVictim victim = stageTrialVictim(powerOn(), spec, rng);
    AttackConfig acfg;
    acfg.probe_max_current = Amp(spec.current_a);
    acfg.probe_impedance = Ohm::milliohms(spec.impedance_mohm);
    acfg.off_time = Seconds::milliseconds(spec.off_ms);
    VoltBootAttack attack(*soc, acfg);
    const AttackOutcome out = attack.execute();
    rec.probe_attached = out.probe_attached;
    rec.booted = out.rebooted_into_attacker_code;
    if (!rec.booted) {
        rec.status = TrialStatus::AttackFailed;
        rec.detail = out.failure_reason;
        return;
    }
    score(rec, dumpTarget(attack, spec.target), victim);
}

void
TrialRun::coldBoot()
{
    const StagedVictim victim = stageTrialVictim(powerOn(), spec, rng);
    if (spec.target != TargetRam::DCache &&
        spec.target != TargetRam::ICache)
        fatal("coldboot extraction supports dcache|icache, not ",
              toString(spec.target));
    const std::optional<MemoryImage> dump = coldBootDump(
        spec.target == TargetRam::DCache ? L1Ram::DData : L1Ram::IData);
    if (!dump)
        return;
    rec.booted = true;
    score(rec, *dump, victim);
}

void
TrialRun::glitch()
{
    // No probe, no power cycle: GlitchAttack stages its own
    // signature-check victim, so the retention victim is skipped.
    powerOn();
    GlitchConfig gcfg;
    gcfg.pulse.offset = Seconds::nanoseconds(spec.glitch_off_ns);
    gcfg.pulse.width = Seconds::nanoseconds(spec.glitch_width_ns);
    gcfg.pulse.depth = Volt(spec.glitch_depth_v);
    gcfg.seed = streamSeed(0x617cULL);
    GlitchAttack attack(*soc, gcfg);
    const GlitchOutcome out = attack.execute();
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
TrialRun::staticExtract()
{
    // No probe, no power cycle: the rail sags in place, the clock
    // freezes, and the frozen arrays are read out slowly.
    const StagedVictim victim = stageTrialVictim(powerOn(), spec, rng);
    sidechannel::StaticExtractConfig secfg;
    switch (spec.target) {
      case TargetRam::DCache:
        secfg.target = sidechannel::ExtractTarget::DCache;
        break;
      case TargetRam::Regs:
        secfg.target = sidechannel::ExtractTarget::Regs;
        break;
      case TargetRam::Iram:
        secfg.target = sidechannel::ExtractTarget::Iram;
        break;
      default:
        fatal("static-extract supports dcache|regs|iram, not ",
              toString(spec.target));
    }
    secfg.depth = Volt(spec.undervolt_depth_v);
    secfg.hold = Seconds::nanoseconds(spec.hold_ns);
    secfg.readout_rate = spec.readout_rate;
    secfg.seed = streamSeed(0x5eecULL);
    sidechannel::StaticExtractAttack attack(*soc, secfg);
    const sidechannel::StaticExtractOutcome out = attack.execute();
    rec.se_frozen = out.frozen;
    rec.se_zeroized = out.zeroized;
    rec.se_read_fraction = out.read_fraction;
    score(rec, out.dump, victim);
}

void
TrialRun::voltageCoupling()
{
    // Pure trace analysis: the victim's rail capture and the CPA
    // ranking never need a Soc, only the board's core-rail spec.
    const SocConfig ccfg = socConfigFor(spec.board);
    sidechannel::CouplingVictimConfig vcfg;
    vcfg.domain = ccfg.core_domain.name;
    vcfg.nominal = ccfg.core_domain.nominal;
    // Domain-separated streams: the key is chip identity (stable
    // across trial indices for one seed_index), the noise is
    // per-trial.
    vcfg.seed = streamSeed(0xc0abULL);
    const uint64_t kseed = hashCombine(rec.chip_seed, 0x5ecaULL);
    for (size_t i = 0; i < 16; ++i)
        vcfg.key[i] = static_cast<uint8_t>(hashCombine(kseed, i));

    trace::MemoryTraceSink sink;
    {
        trace::Scope capture(sink);
        sidechannel::runCoupledAesVictim(vcfg);
    }
    // The attacker only ever sees the wire format: round-trip the
    // capture through JSONL and the report reader before analysis.
    const std::vector<trace::TraceEvent> events = report::readTrace(
        trace::toJsonl(sink.events()), "coupling-capture");
    sidechannel::CpaOptions opts;
    opts.domain = vcfg.domain;
    opts.window_ns = spec.cpa_window_ns;
    const sidechannel::CpaResult cpa =
        sidechannel::analyzeCoupling(events, opts);

    const unsigned correct = sidechannel::countCorrectBytes(cpa, vcfg.key);
    rec.cpa_recovered = cpa.recovered;
    rec.accuracy = static_cast<double>(correct) / 16.0;
    rec.bit_error_rate = 1.0 - rec.accuracy;
    rec.key_planted = true;
    rec.key_found = cpa.recovered > 0;
    rec.key_exact = correct == 16;
    rec.status = TrialStatus::Ok;

    // Replay the capture into the per-trial trace, if one is on.
    if (trace::enabled()) {
        Seconds last = trace::simTime();
        for (const trace::TraceEvent &ev : sink.events()) {
            if (ev.ts.seconds() > last.seconds())
                last = ev.ts;
            trace::emit(ev);
        }
        trace::setSimTime(last);
    }
}

void
TrialRun::keyRecovery()
{
    // Multi-dump cold-boot recovery through the keyfind engine: the
    // same CaSE key schedule is restaged before every power cycle (the
    // device's storage key is fixed across boots), so each dump is an
    // independent decay observation of one secret and fusion has real
    // evidence to vote over.
    powerOn();
    if (spec.target != TargetRam::DCache)
        fatal("key-recovery supports dcache only, not ",
              toString(spec.target));
    std::vector<uint8_t> key;
    const MemoryImage truth = stageCaseKey(*soc, key, rng);
    std::vector<MemoryImage> dumps;
    dumps.reserve(spec.dump_count);
    for (uint64_t d = 0; d < spec.dump_count; ++d) {
        if (d > 0)
            stageCaseKey(*soc, key, rng);
        std::optional<MemoryImage> dump = coldBootDump(L1Ram::DData);
        if (!dump)
            return;
        dumps.push_back(std::move(*dump));
    }
    rec.booted = true;

    std::vector<float> priors;
    if (spec.use_priors)
        priors = keyfind::decayFlipPriors(
            soc->l1dData(0).model(), dumps.front().sizeBits(),
            Seconds::milliseconds(spec.off_ms),
            Temperature::celsius(spec.temp_c));

    const keyfind::FusedDump fused = keyfind::fuseDumps(dumps, priors);
    rec.dump_bytes = fused.image.sizeBytes();
    rec.bit_error_rate = MemoryImage::fractionalHamming(fused.image, truth);
    rec.accuracy = 1.0 - rec.bit_error_rate;
    rec.kr_disagreeing_bits = fused.disagreeing_bits;

    keyfind::KeyRecoveryConfig kcfg;
    kcfg.jobs = 1; // Campaign workers parallelise over trials.
    kcfg.use_priors = spec.use_priors;
    const keyfind::KeyRecoveryEngine engine(kcfg);
    const keyfind::RecoveryReport report = engine.recover(dumps, priors);
    rec.kr_scan_hits = report.scan_hits.size();
    rec.kr_corrected_hits = report.corrected_hits.size();
    rec.kr_correction_iterations = report.correction.iterations;
    if (!report.scan_hits.empty())
        rec.kr_bit_errors = report.scan_hits.front().bit_errors;
    else if (!report.corrected_hits.empty())
        rec.kr_bit_errors = report.corrected_hits.front()
                                .corrected.residual_bit_errors;
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

constexpr AttackFamily kAttackFamilies[std::size(kAttackNames)] = {
    {AttackKind::VoltBoot, &TrialRun::voltBoot},
    {AttackKind::ColdBoot, &TrialRun::coldBoot},
    {AttackKind::Glitch, &TrialRun::glitch, "glitch_trials", "glitch_bypassed",
     [](const TrialRecord &r) -> uint64_t { return r.glitch_bypassed; },
     "glitch", "bypassed"},
    {AttackKind::StaticExtract, &TrialRun::staticExtract, "static_trials",
     "static_frozen",
     [](const TrialRecord &r) -> uint64_t { return r.se_frozen; },
     "static-extract", "frozen"},
    {AttackKind::VoltageCoupling, &TrialRun::voltageCoupling,
     "coupling_trials", "cpa_key_bytes",
     [](const TrialRecord &r) { return r.cpa_recovered; }, "coupling",
     "CPA key bytes recovered"},
    {AttackKind::KeyRecovery, &TrialRun::keyRecovery, "keyrecovery_trials",
     "keyrecovery_exact",
     [](const TrialRecord &r) -> uint64_t { return r.key_exact; },
     "key-recovery", "exact keys"},
};

static_assert(
    [] {
        for (size_t i = 0; i < std::size(kAttackFamilies); ++i)
            if (kAttackFamilies[i].kind != static_cast<AttackKind>(i))
                return false;
        return true;
    }(),
    "kAttackFamilies has one row per AttackKind, in enum order");

TrialRecord
runTrial(const TrialSpec &spec, uint64_t campaign_seed)
{
    TrialRecord rec;
    rec.spec = spec;
    rec.chip_seed = deriveChipSeed(campaign_seed, spec.seed_index);
    TrialRun run{rec.spec, rec, deriveTrialSeed(campaign_seed, spec.index)};
    (run.*attackFamily(spec.attack).run)();
    return rec;
}

} // namespace voltboot
