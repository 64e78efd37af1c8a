// SlabArena: an append-only chunked slab handing out stable pointers.
//
// Objects are constructed in fixed-size chunks (no per-object heap
// allocation, no reallocation ever — pointers remain valid for the arena's
// lifetime, which the simulator depends on: Tasks are linked into intrusive
// lists and captured by pending events). Nothing is released before the
// arena dies, so the arena is also the registry of everything it made:
// operator[] and iteration visit every object in creation order. The
// Machine's all_tasks() is its task arena, zombies included.
//
// Chunks are small by default (8 slots): a chunk is value-initialized when
// carved, so every slot it holds is resident memory whether or not a T ever
// lands there. A one-CPU federation node's 84 tasks fill 11 eight-slot
// chunks (88 slots) where 64-slot chunks left 44 of 128 slots unused.

#ifndef SRC_BASE_ARENA_H_
#define SRC_BASE_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace elsc {

struct ArenaStats {
  uint64_t chunks = 0;  // Chunks carved.
};

template <typename T, size_t kChunkCapacity = 8>
class SlabArena {
 public:
  SlabArena() = default;
  ~SlabArena() {
    for (size_t i = 0; i < size_; ++i) {
      (*this)[i]->~T();
    }
  }

  SlabArena(const SlabArena&) = delete;
  SlabArena& operator=(const SlabArena&) = delete;

  // Constructs a value-initialized T in the next slot, carving a chunk when
  // the newest one is full.
  T* Allocate() {
    if (size_ % kChunkCapacity == 0) {
      chunks_.push_back(std::make_unique<Chunk>());
    }
    return new ((*this)[size_++]) T();
  }

  // The index-th object allocated (0 = the first).
  T* operator[](size_t index) const {
    return std::launder(reinterpret_cast<T*>(chunks_[index / kChunkCapacity]->storage) +
                        index % kChunkCapacity);
  }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Yields every object as a T*, in creation order.
  class Iterator {
   public:
    Iterator(const SlabArena* arena, size_t index) : arena_(arena), index_(index) {}
    T* operator*() const { return (*arena_)[index_]; }
    Iterator& operator++() {
      ++index_;
      return *this;
    }
    bool operator==(const Iterator& other) const { return index_ == other.index_; }

   private:
    const SlabArena* arena_;
    size_t index_;
  };
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size_); }

  // Bytes resident in chunk storage (chunks are never returned, so this is
  // also the high-water mark). The chunk-pointer vector is excluded: one
  // pointer per chunk, noise next to the slabs themselves.
  size_t footprint_bytes() const { return chunks_.size() * sizeof(Chunk); }
  ArenaStats stats() const { return ArenaStats{chunks_.size()}; }

 private:
  struct Chunk {
    alignas(T) unsigned char storage[sizeof(T) * kChunkCapacity];
  };

  std::vector<std::unique_ptr<Chunk>> chunks_;
  size_t size_ = 0;
};

}  // namespace elsc

#endif  // SRC_BASE_ARENA_H_
