/**
 * @file
 * Umbrella header: the full public API of the voltboot library.
 *
 * Include this to get everything; fine-grained headers remain available
 * for faster builds:
 *
 *   sim/     units, RNG, stats, event queue, logging
 *   sram/    retention physics, memory arrays, images, PUF/TRNG
 *   power/   domains, PMIC, board, probes, transients
 *   isa/     vb64 assembler, disassembler, CPU
 *   mem/     caches, TLB, BTB, memory system
 *   soc/     platform database and the integrated SoC
 *   os/      bare-metal runner, Linux contention model, workloads
 *   crypto/  AES, on-chip crypto victims, key scanners/correctors
 *   core/    the Volt Boot / cold boot attacks, analysis, defences
 *   campaign/ parallel attack-sweep orchestration with structured results
 */

#ifndef VOLTBOOT_VOLTBOOT_HH
#define VOLTBOOT_VOLTBOOT_HH

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/units.hh"

#include "sram/memory_array.hh"
#include "sram/memory_image.hh"
#include "sram/puf.hh"
#include "sram/retention_model.hh"

#include "power/board.hh"
#include "power/power_domain.hh"
#include "power/transient.hh"

#include "isa/assembler.hh"
#include "isa/cpu.hh"
#include "isa/insn.hh"

#include "mem/btb.hh"
#include "mem/cache.hh"
#include "mem/memory_system.hh"
#include "mem/tlb.hh"

#include "soc/soc.hh"
#include "soc/soc_config.hh"

#include "os/baremetal.hh"
#include "os/linux_model.hh"
#include "os/workloads.hh"

#include "crypto/aes.hh"
#include "crypto/key_corrector.hh"
#include "crypto/key_finder.hh"
#include "crypto/onchip_crypto.hh"

#include "core/analysis.hh"
#include "core/attack.hh"
#include "core/countermeasures.hh"

#include "campaign/campaign.hh"
#include "campaign/campaign_result.hh"
#include "campaign/schema.hh"
#include "campaign/sweep_grid.hh"
#include "campaign/trial_runner.hh"

#endif // VOLTBOOT_VOLTBOOT_HH
