#include "os/baremetal.hh"

#include "sim/logging.hh"

namespace voltboot
{

BareMetalResult
BareMetalRunner::runOn(size_t core, const std::string &source,
                       uint64_t load_address, uint64_t max_steps)
{
    Program program = Assembler::assemble(source);
    program.load_address = load_address;
    last_program_ = program;

    soc_.loadProgram(program);
    // Boot code must invalidate before enabling caches: power-on tag RAM
    // holds garbage that would otherwise fake hits.
    soc_.memory().l1i(core).invalidateAll();
    soc_.memory().l1d(core).invalidateAll();

    BareMetalResult r;
    r.core = core;
    r.steps = soc_.runCore(core, load_address, max_steps);
    r.fault = soc_.cpu(core).fault();
    r.halted_cleanly =
        soc_.cpu(core).halted() && r.fault == CpuFault::None;
    return r;
}

} // namespace voltboot
