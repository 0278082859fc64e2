#include "soc/soc.hh"

#include <algorithm>
#include <array>
#include <cstring>

#include "sim/logging.hh"
#include "trace/trace.hh"

namespace voltboot
{

bool
JtagPort::available() const
{
    return soc_.config().jtag_enabled;
}

MemoryImage
JtagPort::readIram(uint64_t addr, size_t length) const
{
    if (!available())
        fatal("JtagPort: platform ", soc_.config().soc_name,
              " does not expose JTAG");
    MemoryArray *iram = soc_.iramArray();
    if (!iram)
        fatal("JtagPort: platform has no iRAM");
    const uint64_t base = soc_.config().iram_base;
    if (addr < base || addr + length > base + iram->sizeBytes())
        fatal("JtagPort: read outside iRAM window");
    std::vector<uint8_t> out(length);
    iram->read(addr - base, out);
    return MemoryImage(std::move(out));
}

void
JtagPort::writeIram(uint64_t addr, std::span<const uint8_t> data)
{
    if (!available())
        fatal("JtagPort: platform ", soc_.config().soc_name,
              " does not expose JTAG");
    MemoryArray *iram = soc_.iramArray();
    if (!iram)
        fatal("JtagPort: platform has no iRAM");
    const uint64_t base = soc_.config().iram_base;
    if (addr < base || addr + data.size() > base + iram->sizeBytes())
        fatal("JtagPort: write outside iRAM window");
    iram->write(addr - base, data);
}

namespace
{

DomainLoadProfile
profileOf(const DomainSpec &spec)
{
    DomainLoadProfile p;
    p.surge_current = spec.surge_current;
    p.retention_current = spec.retention_current;
    p.decap = spec.decap;
    return p;
}

} // namespace

Soc::Soc(const SocConfig &config)
    : config_(config), board_(config.board_name, config.pmic_name),
      boot_noise_(hashCombine(config.chip_seed, 0xb007)), jtag_(*this)
{
    if (config_.core_count == 0)
        fatal("Soc: must have at least one core");

    // Create the power domains.
    std::vector<const DomainSpec *> specs{
        &config_.core_domain, &config_.mem_domain, &config_.io_domain};
    if (config_.sdram_domain)
        specs.push_back(&*config_.sdram_domain);
    for (const DomainSpec *spec : specs) {
        board_.pmic().addDomain(
            spec->name, spec->nominal,
            spec->buck ? RegulatorKind::Buck : RegulatorKind::Ldo,
            profileOf(*spec));
    }
    for (const auto &pad : config_.pads)
        board_.addTestPad(pad.label, pad.domain);

    buildArrays();
    wireDomains();
    buildMemorySystem();

    // Cores and their ports.
    for (unsigned core = 0; core < config_.core_count; ++core) {
        ports_.push_back(std::make_unique<CorePort>(memsys_, core));
        cpus_.push_back(std::make_unique<Cpu>(core, *ports_.back(),
                                              *xregs_[core],
                                              *vregs_[core]));
    }
}

void
Soc::buildArrays()
{
    const uint64_t seed = config_.chip_seed;
    uint64_t array_id = 1;
    auto sram = [&](const std::string &name, size_t bytes) {
        silicon_bytes_ += bytes;
        return std::make_unique<SramArray>(name, bytes, seed, array_id++);
    };

    for (unsigned core = 0; core < config_.core_count; ++core) {
        const std::string prefix = "core" + std::to_string(core);
        l1i_data_.push_back(
            sram(prefix + ".L1I.data", config_.l1i.size_bytes));
        l1i_tags_.push_back(
            sram(prefix + ".L1I.tag", Cache::tagRamBytes(config_.l1i)));
        l1d_data_.push_back(
            sram(prefix + ".L1D.data", config_.l1d.size_bytes));
        l1d_tags_.push_back(
            sram(prefix + ".L1D.tag", Cache::tagRamBytes(config_.l1d)));
        xregs_.push_back(sram(prefix + ".xregs", 31 * 8));
        vregs_.push_back(sram(prefix + ".vregs", 32 * 16));
        // Microarchitectural SRAMs: 64-entry 4-way DTLB, 256-entry BTB.
        dtlb_store_.push_back(sram(prefix + ".dtlb", 64 * 16));
        btb_store_.push_back(sram(prefix + ".btb", 256 * 16));
    }
    if (config_.l2) {
        l2_data_ = sram("L2.data", config_.l2->size_bytes);
        l2_tags_ = sram("L2.tag", Cache::tagRamBytes(*config_.l2));
    }
    if (config_.iram_bytes)
        iram_ = sram("iRAM", config_.iram_bytes);
    dram_ = std::make_unique<DramArray>("DRAM", config_.dram_bytes, seed,
                                        array_id++);
    silicon_bytes_ += config_.dram_bytes;
}

void
Soc::wireDomains()
{
    PowerDomain *core_dom = board_.pmic().domain(config_.core_domain.name);
    PowerDomain *mem_dom = board_.pmic().domain(config_.mem_domain.name);
    PowerDomain *sdram_dom =
        config_.sdram_domain
            ? board_.pmic().domain(config_.sdram_domain->name)
            : mem_dom;

    for (unsigned core = 0; core < config_.core_count; ++core) {
        core_dom->attachLoad(l1i_data_[core].get());
        core_dom->attachLoad(l1i_tags_[core].get());
        core_dom->attachLoad(l1d_data_[core].get());
        core_dom->attachLoad(l1d_tags_[core].get());
        core_dom->attachLoad(xregs_[core].get());
        core_dom->attachLoad(vregs_[core].get());
        core_dom->attachLoad(dtlb_store_[core].get());
        core_dom->attachLoad(btb_store_[core].get());
    }
    if (l2_data_) {
        PowerDomain *dom = config_.l2_on_mem_domain ? mem_dom : sdram_dom;
        dom->attachLoad(l2_data_.get());
        dom->attachLoad(l2_tags_.get());
    }
    if (iram_) {
        PowerDomain *dom = config_.iram_on_mem_domain ? mem_dom : core_dom;
        dom->attachLoad(iram_.get());
    }
    sdram_dom->attachLoad(dram_.get());
}

void
Soc::buildMemorySystem()
{
    memsys_.setMainMemory(*dram_, config_.dram_base);
    if (iram_)
        memsys_.setIram(*iram_, config_.iram_base);
    if (config_.l2) {
        // The L2 fills from DRAM; mainMemory() is stable once set.
        auto l2 = std::make_unique<Cache>("L2", *config_.l2, *l2_data_,
                                          *l2_tags_,
                                          memsys_.mainMemory());
        memsys_.setL2(std::move(l2));
    }
    // L1s fill from the L2 if present, else straight from DRAM.
    LineBacking *l1_backing = memsys_.l1Backing();
    for (unsigned core = 0; core < config_.core_count; ++core) {
        const std::string prefix = "core" + std::to_string(core);
        auto l1i = std::make_unique<Cache>(prefix + ".L1I", config_.l1i,
                                           *l1i_data_[core],
                                           *l1i_tags_[core], l1_backing);
        auto l1d = std::make_unique<Cache>(prefix + ".L1D", config_.l1d,
                                           *l1d_data_[core],
                                           *l1d_tags_[core], l1_backing);
        if (config_.icache_ecc_undocumented)
            l1i->setDebugScramble(
                hashCombine(config_.chip_seed, 0xecc00 + core));
        const size_t idx = memsys_.addCore(std::move(l1i), std::move(l1d));
        dtlbs_.push_back(std::make_unique<Tlb>(prefix + ".DTLB", 64, 4,
                                               *dtlb_store_[core]));
        btbs_.push_back(std::make_unique<Btb>(prefix + ".BTB", 256,
                                              *btb_store_[core]));
        memsys_.setCoreDebugRams(idx, dtlbs_.back().get(),
                                 btbs_.back().get());
    }
    memsys_.setTzEnforced(config_.trustzone_enforced);
}

void
Soc::powerOn()
{
    if (poweredOn())
        return;
    board_.pmic().connectMainSupply(queue_.now(), ambient_);
    runBootRom();
}

void
Soc::powerOff()
{
    board_.pmic().disconnectMainSupply(queue_.now());
}

void
Soc::advanceTime(Seconds interval)
{
    if (interval.seconds() < 0.0)
        fatal("Soc: cannot advance time backwards");
    queue_.runUntil(queue_.now() + interval);
    trace::setSimTime(queue_.now());
}

void
Soc::powerCycle(Seconds off_interval)
{
    powerOff();
    advanceTime(off_interval);
    powerOn();
}

void
Soc::runBootRom()
{
    ++boot_count_;
    if (trace::enabled()) {
        trace::instant("soc", "boot_rom",
                       {{"boot_count", boot_count_},
                        {"sram_reset", config_.boot_sram_reset},
                        {"videocore_l2_clobber",
                         config_.has_videocore && l2_data_ != nullptr}});
    }

    // After power-on the L1 backings must be rewired: the Cache objects
    // persist, but their controller state (LRU) is volatile. Reset it by
    // re-enabling nothing: caches come up disabled with garbage tags.
    for (unsigned core = 0; core < config_.core_count; ++core) {
        memsys_.l1i(core).setEnabled(false);
        memsys_.l1d(core).setEnabled(false);
        cpus_[core]->reset(config_.dram_base);
    }

    if (config_.boot_sram_reset) {
        // Section 8 countermeasure: hardware MBIST-style zeroisation of
        // every on-chip SRAM at reset.
        for (unsigned core = 0; core < config_.core_count; ++core) {
            l1i_data_[core]->fill(0);
            l1d_data_[core]->fill(0);
            l1i_tags_[core]->fill(0);
            l1d_tags_[core]->fill(0);
            xregs_[core]->fill(0);
            vregs_[core]->fill(0);
        }
        if (l2_data_) {
            l2_data_->fill(0);
            l2_tags_->fill(0);
        }
        if (iram_)
            iram_->fill(0);
    }

    if (config_.has_videocore && l2_data_) {
        // The VideoCore boots first from its own ROM and uses the shared
        // L2 for its firmware, clobbering whatever survived the power
        // cycle ("pre-compiled binaries that clobber L2 cache contents").
        // Written a page at a time: each write covers its page whole, so
        // no page of the data RAM is ever derived.
        std::array<uint8_t, MemoryArray::kPageBytes> noise;
        const size_t bytes = l2_data_->sizeBytes() / 8 * 8;
        for (size_t at = 0; at < bytes; at += noise.size()) {
            const size_t n = std::min(noise.size(), bytes - at);
            for (size_t i = 0; i < n; i += 8) {
                const uint64_t word = boot_noise_.next();
                std::memcpy(&noise[i], &word, 8);
            }
            l2_data_->write(at, {noise.data(), n});
        }
        l2_tags_->fill(0);
    }

    if (Cache *l2 = memsys_.l2()) {
        // Boot firmware sanitises the L2 tags (clears valid bits — data
        // RAM untouched) and enables it for the ARM complex.
        l2->invalidateAll();
        l2->setEnabled(true);
    }

    if (iram_ && !config_.iram_boot_clobbers.empty()) {
        // The internal boot ROM uses part of the iRAM as scratchpad
        // before the DRAM controller is up.
        for (const BootClobber &region : config_.iram_boot_clobbers) {
            std::vector<uint8_t> noise(region.end - region.begin);
            for (uint8_t &b : noise)
                b = static_cast<uint8_t>(boot_noise_.next());
            iram_->write(region.begin - config_.iram_base, noise);
        }
    }
}

void
Soc::loadProgram(const Program &program)
{
    loadBytes(program.load_address, program.bytes());
}

void
Soc::loadBytes(uint64_t addr, std::span<const uint8_t> data)
{
    if (!poweredOn())
        fatal("Soc: cannot load software while powered off");
    if (addr < config_.dram_base ||
        addr + data.size() > config_.dram_base + config_.dram_bytes)
        fatal("Soc: program does not fit in DRAM");
    dram_->write(addr - config_.dram_base, data);
    // DMA coherence: the loader wrote DRAM behind the caches' backs, so
    // any stale copy of these lines must be discarded (no write-back —
    // the old data there is dead by definition of loading over it).
    const uint64_t line = 64;
    const uint64_t first = addr & ~(line - 1);
    const uint64_t last = (addr + data.size() + line - 1) & ~(line - 1);
    for (uint64_t a = first; a < last; a += line) {
        if (Cache *l2 = memsys_.l2())
            l2->invalidateLine(a);
        for (unsigned core = 0; core < config_.core_count; ++core) {
            memsys_.l1i(core).invalidateLine(a);
            memsys_.l1d(core).invalidateLine(a);
        }
    }
}

uint64_t
Soc::runCore(size_t core, uint64_t entry, uint64_t max_steps)
{
    if (!poweredOn())
        fatal("Soc: cannot execute while powered off");
    Cpu &c = cpu(core);
    c.reset(entry);
    return c.run(max_steps);
}

PowerDomain *
Soc::attachProbe(const std::string &pad_label, const VoltageProbe &probe)
{
    return board_.attachProbeAtPad(pad_label, probe);
}

void
Soc::detachProbe(const std::string &pad_label)
{
    const TestPad *pad = board_.findPad(pad_label);
    if (!pad)
        fatal("Soc: no pad ", pad_label);
    board_.pmic().domain(pad->domain_name)->detachProbe();
}

bool
Soc::bootFromExternalMedia(const Program &program)
{
    if (!poweredOn())
        fatal("Soc: power the board before booting external media");
    if (config_.authenticated_boot) {
        // OEM signature check: unsigned attacker images are rejected and
        // the SoC refuses to hand over the cores (Section 8).
        if (trace::enabled()) {
            trace::instant("soc", "external_boot",
                           {{"accepted", false},
                            {"reason", "authenticated boot"}});
        }
        return false;
    }
    if (trace::enabled())
        trace::instant("soc", "external_boot", {{"accepted", true}});
    loadProgram(program);
    for (unsigned core = 0; core < config_.core_count; ++core) {
        cpus_[core]->reset(program.load_address);
        // With TrustZone enforced, the OEM's secure monitor owns the
        // secure world; externally booted code executes non-secure, so
        // hardware filters its debug reads of secure-tagged lines.
        ports_[core]->setSecureWorld(!config_.trustzone_enforced);
    }
    return true;
}

} // namespace voltboot
