/**
 * @file
 * Bare-metal execution harness: loads an assembled victim program onto a
 * powered Soc and runs it on one core, the way the paper's
 * Section 7.1.1 experiments drive their Raspberry Pis.
 */

#ifndef VOLTBOOT_OS_BAREMETAL_HH
#define VOLTBOOT_OS_BAREMETAL_HH

#include <cstdint>
#include <string>

#include "isa/assembler.hh"
#include "soc/soc.hh"

namespace voltboot
{

/** Result of one core's bare-metal run. */
struct BareMetalResult
{
    size_t core;
    uint64_t steps;
    bool halted_cleanly;
    CpuFault fault;
};

/** Loads and runs vb64 programs on a Soc without any OS. */
class BareMetalRunner
{
  public:
    explicit BareMetalRunner(Soc &soc) : soc_(soc) {}

    /**
     * Assemble @p source, load it at @p load_address (overrides any .org)
     * and run it to completion on core @p core. Invalidates that core's
     * L1 tags first, as real boot code must before enabling caches.
     */
    BareMetalResult runOn(size_t core, const std::string &source,
                          uint64_t load_address = 0x1000,
                          uint64_t max_steps = 20'000'000);

    /** The last program loaded (ground-truth machine code). */
    const Program &lastProgram() const { return last_program_; }

  private:
    Soc &soc_;
    Program last_program_;
};

} // namespace voltboot

#endif // VOLTBOOT_OS_BAREMETAL_HH
