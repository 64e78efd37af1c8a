// SlabArena: a chunked slab allocator handing out stable pointers.
//
// Objects are constructed in fixed-size chunks (no per-object heap
// allocation, no reallocation ever — pointers remain valid for the arena's
// lifetime, which the simulator depends on: Tasks are linked into intrusive
// lists and captured by pending events). Released slots go onto a freelist
// and are reused by later allocations, so long churn-heavy runs touch a
// working set proportional to the peak population instead of the total
// number of objects ever created.
//
// The arena tracks per-slot liveness so its destructor can destroy whatever
// is still alive, in creation order within each chunk.
//
// Chunks are small by default (8 slots): a chunk is value-initialized when
// carved, so every slot it holds is resident memory whether or not a T ever
// lands there. A one-CPU federation node's 84 tasks fill 11 eight-slot
// chunks (88 slots) where 64-slot chunks left 44 of 128 slots unused. The
// cost is Release's chunk scan, which grows with the chunk count; only opt-in
// zombie recycling releases.

#ifndef SRC_BASE_ARENA_H_
#define SRC_BASE_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "src/base/assert.h"

namespace elsc {

struct ArenaStats {
  uint64_t allocated = 0;  // Total Allocate() calls.
  uint64_t released = 0;   // Total Release() calls.
  uint64_t reused = 0;     // Allocations served from the freelist.
  uint64_t chunks = 0;     // Chunks ever carved.
};

template <typename T, size_t kChunkCapacity = 8>
class SlabArena {
  static_assert(kChunkCapacity >= 1 && kChunkCapacity <= 64,
                "chunk liveness is tracked in a single 64-bit mask");

 public:
  SlabArena() = default;
  ~SlabArena() {
    for (auto& chunk : chunks_) {
      for (size_t i = 0; i < kChunkCapacity; ++i) {
        if ((chunk->live & (uint64_t{1} << i)) != 0) {
          Slot(*chunk, i)->~T();
        }
      }
    }
  }

  SlabArena(const SlabArena&) = delete;
  SlabArena& operator=(const SlabArena&) = delete;

  // Constructs a value-initialized T in a stable slot (freelist first, then
  // bump allocation in the newest chunk).
  T* Allocate() {
    ++stats_.allocated;
    if (!freelist_.empty()) {
      ++stats_.reused;
      FreeRef ref = freelist_.back();
      freelist_.pop_back();
      Chunk& chunk = *chunks_[ref.chunk];
      chunk.live |= uint64_t{1} << ref.index;
      return new (Slot(chunk, ref.index)) T();
    }
    if (chunks_.empty() || chunks_.back()->used == kChunkCapacity) {
      chunks_.push_back(std::make_unique<Chunk>());
      ++stats_.chunks;
    }
    Chunk& chunk = *chunks_.back();
    const size_t index = chunk.used++;
    chunk.live |= uint64_t{1} << index;
    return new (Slot(chunk, index)) T();
  }

  // Destroys the object and recycles its slot. The pointer must have come
  // from this arena and not already be released.
  void Release(T* p) {
    for (size_t c = chunks_.size(); c-- > 0;) {
      Chunk& chunk = *chunks_[c];
      T* base = Slot(chunk, 0);
      if (p >= base && p < base + kChunkCapacity) {
        const size_t index = static_cast<size_t>(p - base);
        const uint64_t bit = uint64_t{1} << index;
        ELSC_CHECK_MSG((chunk.live & bit) != 0, "SlabArena::Release of a dead slot");
        p->~T();
        chunk.live &= ~bit;
        ++stats_.released;
        freelist_.push_back(FreeRef{c, index});
        return;
      }
    }
    ELSC_CHECK_MSG(false, "SlabArena::Release of a foreign pointer");
  }

  size_t live() const { return stats_.allocated - stats_.released; }
  // Bytes resident in chunk storage (the arena never returns a chunk, so
  // this is also the high-water mark). Bookkeeping vectors are excluded:
  // they are a few pointers per chunk, noise next to the slabs themselves.
  size_t footprint_bytes() const { return chunks_.size() * sizeof(Chunk); }
  const ArenaStats& stats() const { return stats_; }

 private:
  struct Chunk {
    alignas(T) unsigned char storage[sizeof(T) * kChunkCapacity];
    size_t used = 0;     // Bump watermark (slots ever carved from this chunk).
    uint64_t live = 0;   // Bit i set iff slot i currently holds a live T.
  };
  struct FreeRef {
    size_t chunk;
    size_t index;
  };

  static T* Slot(Chunk& chunk, size_t index) {
    return std::launder(reinterpret_cast<T*>(chunk.storage) + index);
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<FreeRef> freelist_;
  ArenaStats stats_;
};

}  // namespace elsc

#endif  // SRC_BASE_ARENA_H_
