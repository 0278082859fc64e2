#include "core/attack.hh"

#include <optional>
#include <sstream>

#include "isa/assembler.hh"
#include "sim/rng.hh"
#include "mem/memory_system.hh"
#include "os/workloads.hh"
#include "sim/logging.hh"
#include "soc/step_scope.hh"

namespace voltboot
{

namespace
{

/** Map an L1Ram selector onto (descriptor ram id, geometry). */
void
ramInfo(const Soc &soc, L1Ram ram, unsigned *ram_id, CacheGeometry *geom,
        bool *is_tag)
{
    switch (ram) {
      case L1Ram::DData:
        *ram_id = RamIndexDescriptor::kL1DData;
        *geom = soc.config().l1d;
        *is_tag = false;
        break;
      case L1Ram::DTag:
        *ram_id = RamIndexDescriptor::kL1DTag;
        *geom = soc.config().l1d;
        *is_tag = true;
        break;
      case L1Ram::IData:
        *ram_id = RamIndexDescriptor::kL1IData;
        *geom = soc.config().l1i;
        *is_tag = false;
        break;
      case L1Ram::ITag:
        *ram_id = RamIndexDescriptor::kL1ITag;
        *geom = soc.config().l1i;
        *is_tag = true;
        break;
    }
}

/** One-way RAMINDEX dump program source. */
std::string
wayExtractorSource(unsigned ram_id, size_t way, size_t sets,
                   size_t words_per_line, uint64_t dump_base)
{
    std::ostringstream os;
    os << "// extraction: RAM " << ram_id << " way " << way << "\n";
    os << workloads::loadImm64("x10", dump_base);
    os << workloads::loadImm64("x2", way);
    os << workloads::loadImm64("x3", sets);
    os << "    movz x4, #0\n"; // set
    os << "set_loop:\n";
    os << workloads::loadImm64("x5", words_per_line);
    os << "    movz x6, #0\n"; // word
    os << "word_loop:\n";
    os << "    movz x7, #" << (ram_id & 0xf) << "\n";
    os << "    lsl x7, x7, #8\n";
    os << "    orr x7, x7, x2\n";
    os << "    lsl x7, x7, #48\n";
    os << "    lsl x8, x4, #8\n";
    os << "    orr x7, x7, x8\n";
    os << "    orr x7, x7, x6\n";
    os << "    dsb sy\n";
    os << "    isb\n";
    os << "    ramindex x9, x7\n";
    os << "    str x9, [x10]\n";
    os << "    add x10, x10, #8\n";
    os << "    add x6, x6, #1\n";
    os << "    cmp x6, x5\n";
    os << "    b.lt word_loop\n";
    os << "    add x4, x4, #1\n";
    os << "    cmp x4, x3\n";
    os << "    b.lt set_loop\n";
    os << "    hlt\n";
    return os.str();
}

/**
 * Branch-free (fully unrolled) RAMINDEX dump — required when the RAM
 * being dumped is the branch predictor itself: a looping extractor would
 * train the BTB it is reading (the Section 6.1 contamination requirement
 * applied to microarchitectural RAMs).
 */
std::string
unrolledExtractorSource(unsigned ram_id, size_t sets, size_t words,
                        uint64_t dump_base)
{
    std::ostringstream os;
    os << "// branch-free extraction: RAM " << ram_id << "\n";
    os << workloads::loadImm64("x10", dump_base);
    for (size_t set = 0; set < sets; ++set) {
        for (size_t word = 0; word < words; ++word) {
            const uint64_t desc =
                (static_cast<uint64_t>(ram_id & 0xf) << 56) |
                (static_cast<uint64_t>(set & 0xffffff) << 8) |
                static_cast<uint64_t>(word & 0xff);
            os << workloads::loadImm64("x7", desc);
            os << "    dsb sy\n";
            os << "    isb\n";
            os << "    ramindex x9, x7\n";
            os << "    str x9, [x10]\n";
            os << "    add x10, x10, #8\n";
        }
    }
    os << "    hlt\n";
    return os.str();
}

/** vread/str program dumping v0..v31 (512 bytes) to @p dump_base. */
std::string
vectorExtractorSource(uint64_t dump_base)
{
    std::ostringstream os;
    os << "// extraction: vector register file\n";
    os << workloads::loadImm64("x10", dump_base);
    for (unsigned v = 0; v < 32; ++v) {
        for (unsigned h = 0; h < 2; ++h) {
            os << "    vread x9, v" << v << "[" << h << "]\n";
            os << "    str x9, [x10]\n";
            os << "    add x10, x10, #8\n";
        }
    }
    os << "    hlt\n";
    return os.str();
}

} // namespace

Program
buildWayExtractor(const Soc &soc, L1Ram ram, size_t way,
                  uint64_t load_address, uint64_t dump_base)
{
    unsigned ram_id;
    CacheGeometry geom;
    bool is_tag;
    ramInfo(soc, ram, &ram_id, &geom, &is_tag);
    const size_t words = is_tag ? 1 : geom.line_bytes / 8;
    Program p = Assembler::assemble(
        wayExtractorSource(ram_id, way, geom.sets(), words, dump_base));
    p.load_address = load_address;
    return p;
}

VoltBootAttack::VoltBootAttack(Soc &soc, AttackConfig config)
    : soc_(soc), config_(config)
{
}

void
VoltBootAttack::note(std::string line)
{
    trace_.push_back(std::move(line));
}

AttackOutcome
VoltBootAttack::attachProbe()
{
    return attachProbeAt(soc_.config().attack_pad);
}

AttackOutcome
VoltBootAttack::attachProbeAt(const std::string &pad_label)
{
    StepScope step(soc_, telemetry::Phase::Steps12Probe);
    step.arg({"pad", pad_label});

    AttackOutcome out;
    const TestPad *pad = soc_.board().findPad(pad_label);
    if (!pad) {
        out.failure_reason = "no such test pad: " + pad_label;
        step.arg({"attached", false});
        return out;
    }
    note("step 1: target domain " + pad->domain_name + " reachable at pad " +
         pad_label + " (nominal " +
         TextTable::num(pad->nominal.volts(), 2) + " V)");

    // Step 2: measure the rail, set the supply to match, attach.
    VoltageProbe probe;
    probe.voltage = pad->nominal;
    probe.max_current = config_.probe_max_current;
    probe.source_impedance = config_.probe_impedance;
    soc_.attachProbe(pad_label, probe);
    out.probe_attached = true;
    note("step 2: probe attached at " + pad_label + " (" +
         TextTable::num(probe.voltage.volts(), 2) + " V, limit " +
         TextTable::num(probe.max_current.amps(), 1) + " A)");
    step.arg({"attached", true});
    step.arg({"domain", pad->domain_name});
    return out;
}

AttackOutcome
VoltBootAttack::powerCycleAndBoot()
{
    StepScope step(soc_, telemetry::Phase::Step3PowerCycle);
    step.arg({"off_ms", config_.off_time.milliseconds()});

    AttackOutcome out;
    out.probe_attached = true;

    // Step 3a: abrupt main-supply disconnect.
    soc_.powerOff();
    const TestPad *pad = soc_.board().findPad(soc_.config().attack_pad);
    if (pad) {
        const PowerDomain *dom =
            soc_.board().pmic().domain(pad->domain_name);
        out.transient = dom->lastTransient();
        if (out.transient) {
            note("step 3: main supply cut; surge droop to " +
                 TextTable::num(out.transient->v_min.volts(), 3) +
                 " V, settled retention at " +
                 TextTable::num(out.transient->v_settled.volts(), 3) +
                 " V" +
                 (out.transient->current_limited ? " (CURRENT LIMITED)"
                                                 : ""));
        }
    }
    soc_.advanceTime(config_.off_time);
    soc_.powerOn();
    note("step 3: board repowered after " +
         TextTable::num(config_.off_time.milliseconds(), 1) + " ms");

    // Step 3b: get our code running. ROM-boot platforms with JTAG need
    // no media at all; otherwise boot attacker media (USB MSD).
    if (soc_.config().jtag_enabled) {
        booted_ = true;
        out.rebooted_into_attacker_code = true;
        note("step 3: internal ROM boot; JTAG session opened");
        step.arg({"booted", true});
        step.arg({"path", "jtag"});
        return out;
    }

    // A trivial placeholder image: the real extraction programs are
    // loaded per dump request. Booting proves the signature gate.
    Program stub = Assembler::assemble("    hlt\n");
    stub.load_address = soc_.config().dram_base + config_.extractor_offset;
    if (!soc_.bootFromExternalMedia(stub)) {
        out.failure_reason =
            "authenticated boot rejected the attacker image";
        note("step 3: FAILED - " + out.failure_reason);
        step.arg({"booted", false});
        return out;
    }
    booted_ = true;
    out.rebooted_into_attacker_code = true;
    note("step 3: booted attacker image from USB mass storage");
    step.arg({"booted", true});
    step.arg({"path", "usb"});
    return out;
}

AttackOutcome
VoltBootAttack::execute()
{
    AttackOutcome attach = attachProbe();
    if (!attach.probe_attached)
        return attach;
    return powerCycleAndBoot();
}

MemoryImage
VoltBootAttack::readDumpFromDram(size_t core, size_t bytes)
{
    std::vector<uint8_t> out(bytes);
    const uint64_t base = soc_.config().dram_base + config_.dump_base_offset;
    CorePort &port = soc_.port(core);
    for (size_t i = 0; i < bytes; i += 8) {
        const uint64_t v = port.read64(base + i);
        for (size_t b = 0; b < 8 && i + b < bytes; ++b)
            out[i + b] = static_cast<uint8_t>(v >> (8 * b));
    }
    return MemoryImage(std::move(out));
}

MemoryImage
VoltBootAttack::dumpL1Way(size_t core, L1Ram ram, size_t way)
{
    if (!booted_)
        fatal("VoltBootAttack: execute() the power cycle before dumping");
    StepScope step(soc_, telemetry::Phase::Step4Extract);
    unsigned ram_id;
    CacheGeometry geom;
    bool is_tag;
    ramInfo(soc_, ram, &ram_id, &geom, &is_tag);
    step.arg({"what", "l1_way"});
    step.arg({"core", static_cast<uint64_t>(core)});
    step.arg({"ram_id", static_cast<uint64_t>(ram_id)});
    step.arg({"way", static_cast<uint64_t>(way)});

    const uint64_t load =
        soc_.config().dram_base + config_.extractor_offset;
    const uint64_t dump =
        soc_.config().dram_base + config_.dump_base_offset;
    const Program extractor = buildWayExtractor(soc_, ram, way, load, dump);
    soc_.loadProgram(extractor);
    soc_.runCore(core, load, 50'000'000);
    if (soc_.cpu(core).fault() != CpuFault::None)
        fatal("VoltBootAttack: extraction faulted: ",
              toString(soc_.cpu(core).fault()));

    const size_t bytes_per_way =
        is_tag ? geom.sets() * 8 : geom.sets() * geom.line_bytes;
    note("step 4: dumped core " + std::to_string(core) + " RAM " +
         std::to_string(ram_id) + " way " + std::to_string(way) + " (" +
         std::to_string(bytes_per_way) + " bytes)");
    step.arg({"bytes", static_cast<uint64_t>(bytes_per_way)});
    return readDumpFromDram(core, bytes_per_way);
}

MemoryImage
VoltBootAttack::dumpL1(size_t core, L1Ram ram)
{
    unsigned ram_id;
    CacheGeometry geom;
    bool is_tag;
    ramInfo(soc_, ram, &ram_id, &geom, &is_tag);
    std::vector<uint8_t> all;
    for (size_t way = 0; way < geom.ways; ++way) {
        MemoryImage img = dumpL1Way(core, ram, way);
        all.insert(all.end(), img.bytes().begin(), img.bytes().end());
    }
    return MemoryImage(std::move(all));
}

MemoryImage
VoltBootAttack::dumpVectorRegisters(size_t core)
{
    if (!booted_)
        fatal("VoltBootAttack: execute() the power cycle before dumping");
    StepScope step(soc_, telemetry::Phase::Step4Extract);
    step.arg({"what", "vector_registers"});
    step.arg({"core", static_cast<uint64_t>(core)});
    step.arg({"bytes", static_cast<uint64_t>(32 * 16)});
    const uint64_t load =
        soc_.config().dram_base + config_.extractor_offset;
    const uint64_t dump =
        soc_.config().dram_base + config_.dump_base_offset;
    Program p = Assembler::assemble(vectorExtractorSource(dump));
    p.load_address = load;
    soc_.loadProgram(p);
    soc_.runCore(core, load, 1'000'000);
    note("step 4: dumped core " + std::to_string(core) +
         " vector registers (512 bytes)");
    return readDumpFromDram(core, 32 * 16);
}

MemoryImage
VoltBootAttack::dumpDtlb(size_t core)
{
    if (!booted_)
        fatal("VoltBootAttack: execute() the power cycle before dumping");
    StepScope step(soc_, telemetry::Phase::Step4Extract);
    step.arg({"what", "dtlb"});
    step.arg({"core", static_cast<uint64_t>(core)});
    const uint64_t load =
        soc_.config().dram_base + config_.extractor_offset;
    const uint64_t dump =
        soc_.config().dram_base + config_.dump_base_offset;
    const Tlb &tlb = soc_.dtlb(core);
    std::vector<uint8_t> all;
    for (size_t way = 0; way < tlb.ways(); ++way) {
        Program p = Assembler::assemble(wayExtractorSource(
            RamIndexDescriptor::kDTlb, way, tlb.sets(), 2, dump));
        p.load_address = load;
        soc_.loadProgram(p);
        soc_.runCore(core, load, 5'000'000);
        const MemoryImage img =
            readDumpFromDram(core, tlb.sets() * 16);
        all.insert(all.end(), img.bytes().begin(), img.bytes().end());
    }
    note("step 4: dumped core " + std::to_string(core) + " DTLB (" +
         std::to_string(all.size()) + " bytes)");
    return MemoryImage(std::move(all));
}

MemoryImage
VoltBootAttack::dumpBtb(size_t core)
{
    if (!booted_)
        fatal("VoltBootAttack: execute() the power cycle before dumping");
    StepScope step(soc_, telemetry::Phase::Step4Extract);
    step.arg({"what", "btb"});
    step.arg({"core", static_cast<uint64_t>(core)});
    const uint64_t load =
        soc_.config().dram_base + config_.extractor_offset;
    const uint64_t dump =
        soc_.config().dram_base + config_.dump_base_offset;
    const Btb &btb = soc_.btb(core);
    Program p = Assembler::assemble(unrolledExtractorSource(
        RamIndexDescriptor::kBtb, btb.entryCount(), 2, dump));
    p.load_address = load;
    soc_.loadProgram(p);
    soc_.runCore(core, load, 10'000'000);
    note("step 4: dumped core " + std::to_string(core) + " BTB (" +
         std::to_string(btb.entryCount() * 16) + " bytes)");
    return readDumpFromDram(core, btb.entryCount() * 16);
}

MemoryImage
VoltBootAttack::dumpIram()
{
    if (!booted_)
        fatal("VoltBootAttack: execute() the power cycle before dumping");
    if (!soc_.jtag().available())
        fatal("VoltBootAttack: platform has no JTAG; use the cache path");
    StepScope step(soc_, telemetry::Phase::Step4Extract);
    step.arg({"what", "iram"});
    step.arg({"bytes",
              static_cast<uint64_t>(soc_.config().iram_bytes)});
    note("step 4: dumped iRAM over JTAG (" +
         std::to_string(soc_.config().iram_bytes) + " bytes)");
    return soc_.jtag().readIram(soc_.config().iram_base,
                                soc_.config().iram_bytes);
}

ColdBootAttack::ColdBootAttack(Soc &soc, Temperature temperature,
                               Seconds off_time, AttackConfig config)
    : soc_(soc), temperature_(temperature), off_time_(off_time),
      extractor_(soc, config)
{
}

bool
ColdBootAttack::powerCycleAndBoot()
{
    StepScope step(soc_, telemetry::Phase::ColdBootPowerCycle);
    step.arg({"temp_c", temperature_.celsiusDegrees()});
    step.arg({"off_ms", off_time_.milliseconds()});
    // Chill the board in the thermal chamber, no probe anywhere.
    soc_.setAmbient(temperature_);
    soc_.powerOff();
    soc_.advanceTime(off_time_);
    soc_.powerOn();

    if (soc_.config().jtag_enabled) {
        extractor_.assumeBooted();
        return true;
    }
    Program stub = Assembler::assemble("    hlt\n");
    stub.load_address =
        soc_.config().dram_base + extractor_.config().extractor_offset;
    if (!soc_.bootFromExternalMedia(stub))
        return false;
    extractor_.assumeBooted();
    return true;
}

MemoryImage
ColdBootAttack::dumpL1(size_t core, L1Ram ram)
{
    return extractor_.dumpL1(core, ram);
}

MemoryImage
ColdBootAttack::dumpL1Way(size_t core, L1Ram ram, size_t way)
{
    return extractor_.dumpL1Way(core, ram, way);
}

namespace
{

/** Clears the core's injector on every exit path (the Cpu outlives the
 * attack object; a dangling injector would be read on the next run). */
class InjectorGuard
{
  public:
    InjectorGuard(Cpu &cpu, FaultInjector *injector) : cpu_(cpu)
    {
        cpu_.setFaultInjector(injector);
    }
    ~InjectorGuard() { cpu_.setFaultInjector(nullptr); }

  private:
    Cpu &cpu_;
};

} // namespace

GlitchAttack::GlitchAttack(Soc &soc, GlitchConfig config)
    : soc_(soc), config_(config)
{
}

GlitchOutcome
GlitchAttack::execute()
{
    if (!soc_.poweredOn())
        fatal("GlitchAttack: the board must be powered on");

    StepScope scope(soc_, telemetry::Phase::Glitch);
    scope.arg({"offset_s", config_.pulse.offset.seconds()});
    scope.arg({"width_s", config_.pulse.width.seconds()});
    scope.arg({"depth_v", config_.pulse.depth.volts()});

    const uint64_t dram = soc_.config().dram_base;
    const uint64_t load = dram + config_.load_offset;
    const uint64_t fw_base = dram + config_.firmware_offset;
    const uint64_t result_addr = dram + config_.result_offset;

    // Stage the attacker's (tampered) firmware: arbitrary bytes whose
    // MAC can never match the tag the vendor signed.
    std::vector<uint64_t> fw(config_.fw_words);
    std::vector<uint8_t> fw_bytes(fw.size() * 8);
    for (size_t i = 0; i < fw.size(); ++i) {
        fw[i] = hashCombine(0xf1a5ULL, i);
        for (size_t b = 0; b < 8; ++b)
            fw_bytes[i * 8 + b] = static_cast<uint8_t>(fw[i] >> (8 * b));
    }
    soc_.loadBytes(fw_base, fw_bytes);
    const uint64_t signed_tag = workloads::signatureCheckTag(fw) ^ 1;

    victim_source_ = workloads::signatureCheck(fw_base, config_.fw_words,
                                               signed_tag, result_addr);
    Program victim = Assembler::assemble(victim_source_);
    victim.load_address = load;
    soc_.loadProgram(victim);
    soc_.memory().l1i(0).invalidateAll();
    soc_.memory().l1d(0).invalidateAll();

    const DomainSpec &domain = soc_.config().core_domain;
    const fault::GlitchWaveform wave(domain.nominal, config_.pulse,
                                     config_.crowbar_impedance,
                                     domain.decap);
    const bool live = !config_.pulse.degenerate();

    std::optional<fault::TimingFaultModel> model;
    if (live) {
        fault::TimingFaultConfig fcfg;
        fcfg.margin_fraction = config_.margin_fraction;
        fcfg.crash_fraction = config_.crash_fraction;
        fcfg.seed = config_.seed;
        model.emplace(fcfg, wave, config_.cycle);
    }

    Cpu &cpu = soc_.cpu(0);
    InjectorGuard guard(cpu, live ? &*model : nullptr);
    cpu.reset(load);

    const Seconds anchor = soc_.eventQueue().now();
    const double cyc = config_.cycle.seconds();
    const double pulse_end = wave.end().seconds();

    GlitchOutcome out;
    bool wild = false;
    bool pulse_traced = false;
    uint64_t steps = 0;
    while (steps < config_.max_steps) {
        // The boundary about to execute sits at anchor + steps*cycle;
        // once the clock passes the pulse, its trace can be emitted
        // (all batch timestamps are then in the past).
        if (live && !pulse_traced && steps * cyc >= pulse_end) {
            fault::emitExcursionTrace(wave, "glitch.pulse", domain.name,
                                      anchor, config_.cycle);
            pulse_traced = true;
        }
        bool more;
        if (live) {
            try {
                more = cpu.step();
            } catch (const std::exception &) {
                // The fault sent execution somewhere unmapped or
                // misaligned: architecturally a crash, not a
                // simulator error.
                wild = true;
                more = false;
            }
        } else {
            more = cpu.step();
        }
        ++steps;
        soc_.advanceTime(config_.cycle);
        if (!more)
            break;
    }

    if (live && !pulse_traced) {
        // The victim stopped inside (or before) the pulse; the rail
        // still completes its excursion. Let the clock catch up, then
        // record it.
        const Seconds now = soc_.eventQueue().now();
        const double past_end =
            anchor.seconds() + pulse_end + cyc - now.seconds();
        if (past_end > 0.0)
            soc_.advanceTime(Seconds(past_end));
        fault::emitExcursionTrace(wave, "glitch.pulse", domain.name,
                                  anchor, config_.cycle);
    }

    out.steps = steps;
    if (live) {
        out.faults_injected = model->faultsInjected();
        for (const fault::FaultEvent &ev : model->events())
            out.effects.push_back(toString(ev.effect));
    }
    out.completed = !wild && cpu.halted() && cpu.fault() == CpuFault::None;
    if (wild) {
        out.crashed = true;
        out.crash_reason = "wild_execution";
    } else if (cpu.fault() != CpuFault::None) {
        out.crashed = true;
        out.crash_reason = toString(cpu.fault());
    } else if (!cpu.halted()) {
        out.crashed = true;
        out.crash_reason = "hang";
    }
    if (out.completed)
        out.bypassed = soc_.port(0).read64(result_addr) == 1;

    scope.arg({"bypassed", out.bypassed});
    scope.arg({"crashed", out.crashed});
    scope.arg({"faults", out.faults_injected});
    return out;
}

} // namespace voltboot
