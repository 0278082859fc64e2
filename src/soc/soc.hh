/**
 * @file
 * The integrated system-on-chip plus its circuit board.
 *
 * A Soc instance owns:
 *  - the Board (PMIC, power domains, test pads),
 *  - every MemoryArray (cache data/tag RAMs, register files, iRAM, DRAM),
 *    each wired to its power domain,
 *  - the MemorySystem (caches and regions built over those arrays),
 *  - one Cpu per core with register files living in the core domain,
 *  - the boot behaviour of its platform (VideoCore L2 clobber, boot-ROM
 *    iRAM scratch usage, optional Section 8 countermeasures).
 *
 * Time is tracked by an EventQueue so unpowered intervals have real
 * durations for the retention physics.
 */

#ifndef VOLTBOOT_SOC_SOC_HH
#define VOLTBOOT_SOC_SOC_HH

#include <memory>
#include <string>
#include <vector>

#include "isa/assembler.hh"
#include "isa/cpu.hh"
#include "mem/btb.hh"
#include "mem/memory_system.hh"
#include "mem/tlb.hh"
#include "power/board.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "soc/soc_config.hh"
#include "sram/memory_array.hh"
#include "sram/memory_image.hh"

namespace voltboot
{

/**
 * JTAG debug port: direct word access to the iRAM, available on parts
 * that boot from internal ROM (the i.MX535 path of Section 7.3).
 */
class JtagPort
{
  public:
    explicit JtagPort(class Soc &soc) : soc_(soc) {}

    /** True when the platform exposes JTAG. */
    bool available() const;
    /** Dump @p length bytes of iRAM starting at absolute @p addr. */
    MemoryImage readIram(uint64_t addr, size_t length) const;
    /** Write bytes into iRAM (load an image before the attack). */
    void writeIram(uint64_t addr, std::span<const uint8_t> data);

  private:
    Soc &soc_;
};

/** The whole device under attack. */
class Soc
{
  public:
    explicit Soc(const SocConfig &config);

    const SocConfig &config() const { return config_; }
    Board &board() { return board_; }
    const Board &board() const { return board_; }
    EventQueue &eventQueue() { return queue_; }
    MemorySystem &memory() { return memsys_; }
    JtagPort &jtag() { return jtag_; }

    unsigned coreCount() const { return config_.core_count; }
    Cpu &cpu(size_t core) { return *cpus_.at(core); }
    CorePort &port(size_t core) { return *ports_.at(core); }

    /** Ambient temperature the device sits at (thermal-chamber knob). */
    Temperature ambient() const { return ambient_; }
    void setAmbient(Temperature t) { ambient_ = t; }

    /** @name Power-cycle control (the attacker's switch and probe) */
    ///@{
    /** Apply main power and run the platform boot ROM. */
    void powerOn();
    /** Cut main power. Probed domains ride through. */
    void powerOff();
    /** Let @p interval of wall-clock pass (unpowered decay accrues). */
    void advanceTime(Seconds interval);
    /** Full cycle: off, wait @p off_interval, on (boot ROM runs again). */
    void powerCycle(Seconds off_interval);
    bool poweredOn() const { return board_.pmic().mainSupplyOn(); }
    ///@}

    /** @name Software loading and execution */
    ///@{
    /** Copy an assembled program into DRAM at its load address. */
    void loadProgram(const Program &program);
    /** Copy raw bytes into DRAM at @p addr. */
    void loadBytes(uint64_t addr, std::span<const uint8_t> data);
    /** Reset core @p core to @p entry and run at most @p max_steps. */
    uint64_t runCore(size_t core, uint64_t entry, uint64_t max_steps);
    ///@}

    /** @name Array access for wiring and analysis */
    ///@{
    MemoryArray &l1iData(size_t core) { return *l1i_data_.at(core); }
    MemoryArray &l1dData(size_t core) { return *l1d_data_.at(core); }
    MemoryArray &xRegs(size_t core) { return *xregs_.at(core); }
    MemoryArray &vRegs(size_t core) { return *vregs_.at(core); }
    MemoryArray *iramArray() { return iram_ ? iram_.get() : nullptr; }
    MemoryArray &dramArray() { return *dram_; }
    MemoryArray *l2Data() { return l2_data_ ? l2_data_.get() : nullptr; }
    /** Bytes of every modeled array on the die, DRAM included. */
    size_t siliconBytes() const { return silicon_bytes_; }
    ///@}

    /** @name Core-domain microarchitectural RAMs (Section 2.1's "15
     * internal RAMs": TLBs and branch predictors are RAMINDEX-visible
     * SRAM too) */
    ///@{
    Tlb &dtlb(size_t core) { return *dtlbs_.at(core); }
    Btb &btb(size_t core) { return *btbs_.at(core); }
    ///@}

    /**
     * Attach a Volt Boot probe at test pad @p pad_label. Returns the
     * domain now held. Throws FatalError if the pad does not exist or the
     * probe voltage mismatches the rail.
     */
    PowerDomain *attachProbe(const std::string &pad_label,
                             const VoltageProbe &probe);
    /** Detach any probe at @p pad_label's domain. */
    void detachProbe(const std::string &pad_label);

    /**
     * Boot from attacker-controlled media (USB mass storage). Fails (and
     * returns false) when authenticated boot rejects unsigned images.
     * On success the attacker program is in DRAM and core 0 is reset to
     * its entry; caches stay disabled unless the program enables them.
     */
    bool bootFromExternalMedia(const Program &program);

    /** Number of completed boots (diagnostics). */
    uint64_t bootCount() const { return boot_count_; }

  private:
    void buildArrays();
    void buildMemorySystem();
    void wireDomains();
    void runBootRom();

    SocConfig config_;
    Board board_;
    EventQueue queue_;
    Temperature ambient_ = Temperature::celsius(25.0);
    Rng boot_noise_;

    // Backing arrays (owned here; caches/regions reference them).
    std::vector<std::unique_ptr<MemoryArray>> l1i_data_, l1i_tags_;
    std::vector<std::unique_ptr<MemoryArray>> l1d_data_, l1d_tags_;
    std::unique_ptr<MemoryArray> l2_data_, l2_tags_;
    std::unique_ptr<MemoryArray> iram_;
    std::unique_ptr<MemoryArray> dram_;
    std::vector<std::unique_ptr<MemoryArray>> xregs_, vregs_;
    std::vector<std::unique_ptr<MemoryArray>> dtlb_store_, btb_store_;
    std::vector<std::unique_ptr<Tlb>> dtlbs_;
    std::vector<std::unique_ptr<Btb>> btbs_;

    MemorySystem memsys_;
    std::vector<std::unique_ptr<CorePort>> ports_;
    std::vector<std::unique_ptr<Cpu>> cpus_;
    JtagPort jtag_;
    uint64_t boot_count_ = 0;
    size_t silicon_bytes_ = 0;
};

} // namespace voltboot

#endif // VOLTBOOT_SOC_SOC_HH
