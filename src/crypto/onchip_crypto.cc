#include "crypto/onchip_crypto.hh"

#include <cstring>

#include "sim/logging.hh"

namespace voltboot
{

TresorCipher::TresorCipher(Cpu &cpu, std::span<const uint8_t> key)
    : cpu_(cpu), key_bytes_(key.size())
{
    const std::vector<uint8_t> schedule = Aes::expandKey(key);
    schedule_bytes_ = schedule.size();
    if (schedule_bytes_ > 32 * 16)
        fatal("TresorCipher: schedule does not fit the vector file");

    // Pack the schedule into v0.. lane by lane; pad the tail with zeros.
    for (size_t off = 0; off < schedule_bytes_; off += 8) {
        uint64_t lane = 0;
        const size_t n = std::min<size_t>(8, schedule_bytes_ - off);
        std::memcpy(&lane, schedule.data() + off, n);
        cpu_.setV(static_cast<unsigned>(off / 16),
                  static_cast<unsigned>((off / 8) % 2), lane);
    }
}

std::vector<uint8_t>
TresorCipher::scheduleFromRegisters() const
{
    std::vector<uint8_t> out(schedule_bytes_);
    for (size_t off = 0; off < schedule_bytes_; off += 8) {
        const uint64_t lane = cpu_.v(static_cast<unsigned>(off / 16),
                                     static_cast<unsigned>((off / 8) % 2));
        const size_t n = std::min<size_t>(8, schedule_bytes_ - off);
        std::memcpy(out.data() + off, &lane, n);
    }
    return out;
}

void
TresorCipher::encryptBlock(std::span<uint8_t, 16> block) const
{
    // Rebuild a transient cipher context from the register-resident
    // schedule; in the real system this is a sequence of NEON ops that
    // never spills to memory. The Aes object here is a host-side stand-in
    // living only for the duration of the call.
    const std::vector<uint8_t> schedule = scheduleFromRegisters();
    // Reconstruct the master key (first bytes of the schedule) and
    // encrypt with it — equivalent and keeps Aes's invariants.
    Aes aes(std::span<const uint8_t>(schedule.data(), key_bytes_));
    aes.encryptBlock(block);
}

CaseExecution::CaseExecution(Cache &cache, uint64_t base_addr,
                             std::span<const uint8_t> plaintext_binary,
                             std::span<const uint8_t> key, bool secure_world)
    : cache_(cache), base_addr_(base_addr),
      binary_bytes_(plaintext_binary.size()), secure_(secure_world)
{
    if (!cache_.enabled())
        fatal("CaseExecution: cache must be enabled before staging");
    if (base_addr_ % 8)
        fatal("CaseExecution: base address must be 8-byte aligned");

    const std::vector<uint8_t> schedule = Aes::expandKey(key);
    schedule_bytes_ = schedule.size();
    schedule_addr_ = base_addr_ + ((binary_bytes_ + 63) & ~63ull);

    auto stage = [&](uint64_t addr, std::span<const uint8_t> data) {
        for (size_t i = 0; i < data.size(); i += 8) {
            uint64_t word = 0;
            const size_t n = std::min<size_t>(8, data.size() - i);
            std::memcpy(&word, data.data() + i, n);
            cache_.write64(addr + i, word, secure_);
        }
        // Lock every line we touched so the kernel cannot evict it.
        const uint64_t line = 64;
        for (uint64_t a = addr & ~(line - 1); a < addr + data.size();
             a += line)
            cache_.lockLine(a);
    };

    stage(base_addr_, plaintext_binary);
    stage(schedule_addr_, schedule);
}

std::vector<uint8_t>
CaseExecution::readSchedule() const
{
    std::vector<uint8_t> out(schedule_bytes_);
    for (size_t i = 0; i < schedule_bytes_; i += 8) {
        // Const-cast is safe: reads of resident locked lines never
        // allocate or evict.
        const uint64_t word =
            const_cast<Cache &>(cache_).read64(schedule_addr_ + i, secure_);
        const size_t n = std::min<size_t>(8, schedule_bytes_ - i);
        std::memcpy(out.data() + i, &word, n);
    }
    return out;
}

void
CaseExecution::encryptBlock(std::span<uint8_t, 16> block) const
{
    const std::vector<uint8_t> schedule = readSchedule();
    const size_t key_bytes = schedule.size() == 176 ? 16 : 32;
    Aes aes(std::span<const uint8_t>(schedule.data(), key_bytes));
    aes.encryptBlock(block);
}

} // namespace voltboot
