/**
 * @file
 * Process-wide selection of the per-cell retention kernel.
 *
 * The retention hot path (power-up resolve, unpowered decay, voltage
 * droop) has two bit-identical implementations:
 *
 *  - Fast: the threshold-transformed kernels — per-transition binary
 *    search finds the exact raw-hash cutoff once, then each cell is one
 *    integer compare and the results are applied 64 cells at a time
 *    with word-level bit ops (see docs/PERFORMANCE.md). The production
 *    path.
 *  - Reference: the original scalar path — per-cell splitmix hash
 *    chains, Acklam's inverse normal CDF and an exp() per transition.
 *    The test oracle, and the only path for aged arrays.
 *
 * The selection is process-global (campaign workers construct hermetic
 * per-trial SoCs) and defaults to Fast. Only tests and benches change
 * it, through setRetentionKernel(); no user-facing option does.
 */

#ifndef VOLTBOOT_SRAM_RETENTION_KERNEL_HH
#define VOLTBOOT_SRAM_RETENTION_KERNEL_HH

namespace voltboot
{

/** Which implementation the retention hot path runs. */
enum class RetentionKernel
{
    Fast,      ///< Threshold compares + word-masked application.
    Reference, ///< Original scalar per-cell transcendental path.
};

/** Current process-wide kernel selection (thread-safe). */
RetentionKernel retentionKernel();

/** Override the process-wide kernel selection (thread-safe). */
void setRetentionKernel(RetentionKernel kernel);

/** Lower-case name of @p kernel, for diagnostics. */
const char *toString(RetentionKernel kernel);

} // namespace voltboot

#endif // VOLTBOOT_SRAM_RETENTION_KERNEL_HH
