#include "sram/retention_kernel.hh"

#include <atomic>

namespace voltboot
{

namespace
{

std::atomic<RetentionKernel> &
kernelSlot()
{
    static std::atomic<RetentionKernel> slot{RetentionKernel::Fast};
    return slot;
}

} // namespace

RetentionKernel
retentionKernel()
{
    return kernelSlot().load(std::memory_order_relaxed);
}

void
setRetentionKernel(RetentionKernel kernel)
{
    kernelSlot().store(kernel, std::memory_order_relaxed);
}

const char *
toString(RetentionKernel kernel)
{
    switch (kernel) {
      case RetentionKernel::Fast:
        return "fast";
      case RetentionKernel::Reference:
        return "reference";
    }
    return "?";
}

} // namespace voltboot
