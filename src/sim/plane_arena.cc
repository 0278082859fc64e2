#include "sim/plane_arena.hh"

#include <sys/mman.h>

#include <deque>
#include <iterator>
#include <mutex>
#include <new>
#include <utility>

#include "telemetry/counters.hh"

namespace voltboot
{

namespace
{

/**
 * Mapped blocks released by one arena and kept for the next. Every Soc
 * maps the same few array-sized blocks, so one die's teardown hands
 * them to the next die's build with no syscall and no page fault. A
 * block is only reused whole, at its own size, so the pool cannot
 * fragment; past kPoolMaxBytes the oldest blocks are unmapped.
 */
struct MappedPool
{
    std::mutex mutex;
    std::deque<std::pair<void *, size_t>> blocks; ///< (base, bytes)
    size_t bytes = 0;
};

constexpr size_t kPoolMaxBytes = size_t{64} << 20;

MappedPool &
mappedPool()
{
    // Never destroyed: arenas held by other statics may release blocks
    // during exit.
    static MappedPool *pool = new MappedPool;
    return *pool;
}

void *
mapBlock(size_t bytes)
{
    MappedPool &pool = mappedPool();
    {
        std::lock_guard<std::mutex> lock(pool.mutex);
        for (auto it = pool.blocks.rbegin(); it != pool.blocks.rend();
             ++it) {
            if (it->second == bytes) {
                void *p = it->first;
                pool.blocks.erase(std::next(it).base());
                pool.bytes -= bytes;
                return p;
            }
        }
    }
    void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return p;
}

void
releaseBlock(void *p, size_t bytes)
{
    MappedPool &pool = mappedPool();
    std::lock_guard<std::mutex> lock(pool.mutex);
    pool.blocks.emplace_back(p, bytes);
    pool.bytes += bytes;
    while (pool.bytes > kPoolMaxBytes) {
        const auto [base, len] = pool.blocks.front();
        ::munmap(base, len);
        pool.bytes -= len;
        pool.blocks.pop_front();
    }
}

} // namespace

PlaneArena::Block &
PlaneArena::growBlock(size_t at_least_words)
{
    const size_t capacity = std::max(at_least_words, kMinBlockWords);
    const size_t bytes = capacity * sizeof(uint64_t);
    telemetry::add(telemetry::Counter::ArenaBytes, bytes);
    Block block;
    if (bytes >= kMapBlockBytes) {
        block.words = std::unique_ptr<uint64_t[], Deleter>(
            static_cast<uint64_t *>(mapBlock(bytes)), Deleter{bytes});
    } else {
        block.words.reset(static_cast<uint64_t *>(
            ::operator new[](bytes, std::align_val_t{64})));
    }
    block.capacity = capacity;
    blocks_.push_back(std::move(block));
    return blocks_.back();
}

void
PlaneArena::Deleter::operator()(uint64_t *p) const
{
    if (mapped_bytes)
        releaseBlock(p, mapped_bytes);
    else
        ::operator delete[](p, std::align_val_t{64});
}

void
PlaneArena::reserve(size_t nwords)
{
    if (!blocks_.empty() &&
        blocks_.back().capacity - blocks_.back().used >= nwords)
        return;
    growBlock(nwords);
}

uint64_t *
PlaneArena::allocWords(size_t nwords)
{
    const size_t span_words = alignWords(nwords);
    Block *block = blocks_.empty() ? nullptr : &blocks_.back();
    if (!block || block->capacity - block->used < span_words)
        block = &growBlock(span_words);
    uint64_t *span = block->words.get() + block->used;
    block->used += span_words;
    used_words_ += span_words;
    std::memset(span, 0, span_words * sizeof(uint64_t));
    return span;
}

size_t
PlaneArena::bytesReserved() const
{
    size_t words = 0;
    for (const Block &b : blocks_)
        words += b.capacity;
    return words * sizeof(uint64_t);
}

void
PlaneArena::releaseAll()
{
    blocks_.clear();
    used_words_ = 0;
}

} // namespace voltboot
