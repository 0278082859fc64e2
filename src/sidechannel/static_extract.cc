#include "sidechannel/static_extract.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "isa/assembler.hh"
#include "mem/memory_system.hh"
#include "os/workloads.hh"
#include "sim/logging.hh"
#include "soc/step_scope.hh"
#include "trace/trace.hh"

namespace voltboot
{
namespace sidechannel
{

namespace
{

/**
 * The brown-out detector: freeze the clock while the rail sits below
 * freeze_fraction x nominal. A pure function of the waveform and the
 * retired-instruction count, so replays are byte-identical.
 */
class UndervoltClockGate : public ClockGate
{
  public:
    UndervoltClockGate(const fault::GlitchWaveform &wave, double threshold,
                       Seconds cycle)
        : wave_(wave), threshold_(threshold), cycle_(cycle.seconds())
    {
    }

    bool
    clockRunning(uint64_t retired) override
    {
        const double t = static_cast<double>(retired) * cycle_;
        return wave_.at(Seconds(t)).volts() >= threshold_;
    }

  private:
    const fault::GlitchWaveform &wave_;
    double threshold_;
    double cycle_;
};

class GateGuard
{
  public:
    GateGuard(Cpu &cpu, ClockGate *gate) : cpu_(cpu)
    {
        cpu_.setClockGate(gate);
    }
    ~GateGuard() { cpu_.setClockGate(nullptr); }

  private:
    Cpu &cpu_;
};

} // namespace

const char *
toString(ExtractTarget target)
{
    switch (target) {
      case ExtractTarget::DCache:
        return "dcache";
      case ExtractTarget::Regs:
        return "regs";
      case ExtractTarget::Iram:
        return "iram";
    }
    return "?";
}

StaticExtractAttack::StaticExtractAttack(Soc &soc,
                                         StaticExtractConfig config)
    : soc_(soc), config_(config)
{
}

const DomainSpec &
StaticExtractAttack::targetDomain() const
{
    const SocConfig &cfg = soc_.config();
    switch (config_.target) {
      case ExtractTarget::DCache:
      case ExtractTarget::Regs:
        // wireDomains hangs the L1s and both register files off the
        // core domain, which is also what clocks the core: one rail
        // both freezes the logic and feeds the cells.
        return cfg.core_domain;
      case ExtractTarget::Iram:
        return cfg.iram_on_mem_domain ? cfg.mem_domain : cfg.core_domain;
    }
    return cfg.core_domain;
}

namespace
{

/** Countdown spin, then a zeroize of the secret, then hlt. */
std::string
buildZeroizeVictim(const StaticExtractConfig &cfg, uint64_t wipe_base,
                   size_t wipe_bytes, bool enable_caches)
{
    std::ostringstream os;
    os << "// Static-extract victim: countdown, then zeroize\n";
    if (enable_caches) {
        os << "    movz x0, #0x1004\n";
        os << "    msr sctlr_el1, x0\n";
    }
    if (cfg.victim_countdown > 0) {
        os << workloads::loadImm64("x5", cfg.victim_countdown);
        os << "spin_loop:\n";
        os << "    sub x5, x5, #1\n";
        os << "    cbnz x5, spin_loop\n";
    }
    if (cfg.target == ExtractTarget::Regs) {
        for (unsigned v = 0; v < 32; ++v)
            os << "    vdup v" << v << ", #0\n";
    } else {
        os << workloads::loadImm64("x1", wipe_base);
        os << "    movz x2, #0\n";
        os << workloads::loadImm64("x3", wipe_bytes / 8);
        os << "wipe_loop:\n";
        os << "    str x2, [x1]\n";
        os << "    add x1, x1, #8\n";
        os << "    sub x3, x3, #1\n";
        os << "    cbnz x3, wipe_loop\n";
    }
    os << "    hlt\n";
    return os.str();
}

} // namespace

StaticExtractOutcome
StaticExtractAttack::execute()
{
    if (!soc_.poweredOn())
        fatal("StaticExtractAttack: the board must be powered on");
    if (config_.target == ExtractTarget::Iram && !soc_.iramArray())
        fatal("StaticExtractAttack: this platform has no iRAM");

    StepScope scope(soc_, telemetry::Phase::StaticExtract);
    scope.arg({"target", toString(config_.target)});
    scope.arg({"depth_v", config_.depth.volts()});
    scope.arg({"hold_s", config_.hold.seconds()});
    scope.arg({"readout_rate", config_.readout_rate});

    // The array the frozen state is read out of, and the region the
    // victim wipes to destroy it.
    const MemoryArray *target_array = nullptr;
    uint64_t wipe_base = 0;
    size_t wipe_bytes = config_.data_bytes;
    bool caches_on = false;
    switch (config_.target) {
      case ExtractTarget::DCache:
        target_array = &soc_.l1dData(0);
        wipe_base = soc_.config().dram_base + config_.data_offset;
        caches_on = true;
        break;
      case ExtractTarget::Regs:
        target_array = &soc_.vRegs(0);
        break;
      case ExtractTarget::Iram:
        target_array = soc_.iramArray();
        wipe_base = soc_.memory().iram()->base();
        break;
    }
    if (wipe_bytes == 0)
        wipe_bytes = target_array->sizeBytes();

    victim_source_ = buildZeroizeVictim(config_, wipe_base, wipe_bytes,
                                        caches_on);
    Program victim = Assembler::assemble(victim_source_);
    victim.load_address = soc_.config().dram_base + config_.load_offset;
    soc_.loadProgram(victim);
    soc_.memory().l1i(0).invalidateAll();
    if (config_.target != ExtractTarget::DCache)
        soc_.memory().l1d(0).invalidateAll();

    const DomainSpec &domain = targetDomain();
    const fault::GlitchParams ramp{config_.ramp_offset, config_.hold,
                                   config_.depth};
    const fault::GlitchWaveform wave(domain.nominal, ramp,
                                     config_.ramp_impedance, domain.decap);
    const bool live = !ramp.degenerate();

    UndervoltClockGate gate(wave,
                            config_.freeze_fraction * domain.nominal.volts(),
                            config_.cycle);
    Cpu &cpu = soc_.cpu(0);
    GateGuard guard(cpu, live ? &gate : nullptr);
    cpu.reset(victim.load_address);

    const Seconds anchor = soc_.eventQueue().now();
    const double cyc = config_.cycle.seconds();

    StaticExtractOutcome out;
    out.floor_v = live ? wave.floor().volts() : domain.nominal.volts();

    // Phase A: the victim races the ramp. Each retired instruction
    // costs one cycle; the gate freezes the core the first time the
    // rail is below brown-out at a boundary.
    uint64_t steps = 0;
    while (steps < config_.max_steps) {
        const bool more = cpu.step();
        if (!more)
            break;
        ++steps;
        soc_.advanceTime(config_.cycle);
    }
    out.steps = steps;
    out.frozen = cpu.frozen();
    out.zeroized = cpu.halted() && cpu.fault() == CpuFault::None;

    // Phase B: let the simulation clock pass the end of the hold so the
    // waveform batch (and everything after it) stamps in the past.
    {
        const Seconds now = soc_.eventQueue().now();
        const double past_end =
            anchor.seconds() + wave.end().seconds() + cyc - now.seconds();
        if (past_end > 0.0)
            soc_.advanceTime(Seconds(past_end));
    }

    // Phase C: record the ramp, apply the retention physics, read out.
    if (live) {
        fault::emitExcursionTrace(wave, "undervolt.hold", domain.name,
                                  anchor, config_.cycle);
        if (PowerDomain *pd = soc_.board().pmic().domain(domain.name)) {
            for (MemoryArray *load : pd->loads()) {
                load->droopTo(wave.floor());
                out.cells_lost += load->lastCellsLost();
            }
        }
    }

    MemoryImage dump;
    switch (config_.target) {
      case ExtractTarget::DCache:
        dump = soc_.memory().l1d(0).dumpAll();
        break;
      case ExtractTarget::Regs:
        dump = MemoryImage(soc_.vRegs(0).snapshot());
        break;
      case ExtractTarget::Iram:
        dump = MemoryImage(soc_.iramArray()->snapshot());
        break;
    }

    // The slow readout path only sees what fits inside the hold window.
    size_t readable = dump.sizeBytes();
    if (live && config_.readout_rate > 0.0) {
        const double hold_us = config_.hold.seconds() * 1e6;
        const double budget = hold_us * config_.readout_rate;
        readable = std::min(
            readable, static_cast<size_t>(std::floor(std::max(0.0, budget))));
    }
    if (readable < dump.sizeBytes()) {
        std::vector<uint8_t> bytes = dump.bytes();
        std::fill(bytes.begin() + static_cast<long>(readable), bytes.end(),
                  0);
        dump = MemoryImage(std::move(bytes));
    }
    out.bytes_read = readable;
    out.read_fraction = dump.sizeBytes() == 0
                            ? 1.0
                            : static_cast<double>(readable) /
                                  static_cast<double>(dump.sizeBytes());
    out.dump = std::move(dump);

    scope.arg({"frozen", out.frozen});
    scope.arg({"zeroized", out.zeroized});
    scope.arg({"cells_lost", out.cells_lost});
    scope.arg({"read_fraction", out.read_fraction});
    return out;
}

} // namespace sidechannel
} // namespace voltboot
