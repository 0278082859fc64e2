/**
 * @file
 * Models of the fully-on-chip cryptography schemes the paper attacks.
 *
 * TresorCipher: TRESOR/PRIME-style register-resident AES — the expanded
 * key schedule lives exclusively in a core's vector registers (v0..v31
 * hold 512 bytes; an AES-128 schedule needs 176, AES-256 needs 240) and
 * never touches RAM. Encryption reads the round keys out of the register
 * file on each use.
 *
 * CaseExecution: CaSE-style locked-cache execution — a plaintext crypto
 * binary and its round keys are staged into L1 d-cache lines that are
 * then locked so no other process can evict them, and are never written
 * back to DRAM. DRAM holds only the encrypted image.
 *
 * Both schemes are secure against classic cold boot (nothing secret in
 * DRAM) and both fall to Volt Boot because the registers and cache data
 * RAM sit in the probe-held core power domain.
 */

#ifndef VOLTBOOT_CRYPTO_ONCHIP_CRYPTO_HH
#define VOLTBOOT_CRYPTO_ONCHIP_CRYPTO_HH

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/aes.hh"
#include "isa/cpu.hh"
#include "mem/cache.hh"

namespace voltboot
{

/** TRESOR-style AES with the key schedule resident in vector registers. */
class TresorCipher
{
  public:
    /**
     * Install the schedule for @p key into @p cpu's vector registers,
     * starting at v0. The key bytes themselves are not kept anywhere
     * else. Throws if the schedule exceeds the register file.
     */
    TresorCipher(Cpu &cpu, std::span<const uint8_t> key);

    /** Bytes of register file occupied by the schedule. */
    size_t scheduleBytes() const { return schedule_bytes_; }
    size_t keyBytes() const { return key_bytes_; }

    /**
     * Encrypt a block using round keys fetched from the register file on
     * every round — the defining property of register-resident crypto.
     */
    void encryptBlock(std::span<uint8_t, 16> block) const;

    /** Read the schedule back out of the registers (attack-side view). */
    std::vector<uint8_t> scheduleFromRegisters() const;

  private:
    Cpu &cpu_;
    size_t key_bytes_;
    size_t schedule_bytes_;
};

/** CaSE-style locked-cache AES execution environment. */
class CaseExecution
{
  public:
    /**
     * Stage @p plaintext_binary and the schedule of @p key into @p cache
     * at @p base_addr (must currently miss), then lock those lines.
     * The cache must be enabled. Lines are marked secure when
     * @p secure_world.
     */
    CaseExecution(Cache &cache, uint64_t base_addr,
                  std::span<const uint8_t> plaintext_binary,
                  std::span<const uint8_t> key, bool secure_world = true);

    uint64_t binaryAddress() const { return base_addr_; }
    uint64_t scheduleAddress() const { return schedule_addr_; }
    size_t binaryBytes() const { return binary_bytes_; }
    size_t scheduleBytes() const { return schedule_bytes_; }

    /** Encrypt using round keys read from the locked cache lines. */
    void encryptBlock(std::span<uint8_t, 16> block) const;

  private:
    std::vector<uint8_t> readSchedule() const;

    Cache &cache_;
    uint64_t base_addr_;
    uint64_t schedule_addr_;
    size_t binary_bytes_;
    size_t schedule_bytes_;
    bool secure_;
};

} // namespace voltboot

#endif // VOLTBOOT_CRYPTO_ONCHIP_CRYPTO_HH
