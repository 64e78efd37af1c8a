// Stable priority queue of timed events for the discrete-event engine.
//
// Events with equal timestamps fire in insertion order (a strict requirement
// for reproducibility: a timer tick and a segment end at the same cycle must
// resolve deterministically).
//
// Hot-path design: event state lives in a slab of reusable slots indexed by
// a 4-ary min-heap of slot indices, and callbacks use the small-buffer
// EventCallback type — so scheduling, firing, and cancelling events allocate
// nothing in steady state (the slab and heap arrays grow to the high-water
// mark once and are then recycled). Event ids carry the slot's generation
// counter, which makes Cancel() exact and O(log n): ids of events that
// already fired or were cancelled never match a live slot, so there is no
// tombstone set and no way to corrupt the live count by cancelling a stale
// id.
//
// Everything is defined in this header: schedule/pop/sift are called once or
// more per simulated event from several translation units (engine, machine,
// benches), and cross-TU inlining of this path is a measurable share of the
// simulator's host time.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/base/assert.h"
#include "src/base/token_codec.h"
#include "src/base/time_units.h"
#include "src/sim/event_callback.h"

namespace elsc {

// Encodes {slot index, slot generation}; 0 is never a valid id.
using EventId = uint64_t;

// Allocation and depth counters for the event hot path. All steady-state
// values should be flat: callback_heap_allocs counts closures too big for
// EventCallback's inline buffer, slot_allocs counts slab growths (bounded by
// the maximum number of simultaneously pending events).
struct EventQueueStats {
  uint64_t scheduled = 0;
  uint64_t fired = 0;
  uint64_t cancelled = 0;
  uint64_t callback_heap_allocs = 0;
  uint64_t slot_allocs = 0;
  uint64_t max_heap_depth = 0;
};

// Every EventQueueStats counter, in codec order.
inline constexpr Counter<EventQueueStats> kEventQueueCounters[] = {
    ELSC_COUNTER(EventQueueStats, scheduled), ELSC_COUNTER(EventQueueStats, fired),
    ELSC_COUNTER(EventQueueStats, cancelled), ELSC_COUNTER(EventQueueStats, callback_heap_allocs),
    ELSC_COUNTER(EventQueueStats, slot_allocs), ELSC_COUNTER(EventQueueStats, max_heap_depth),
};

class EventQueue {
 public:
  struct Fired {
    Cycles when = 0;
    EventId id = 0;
    EventCallback fn;
  };

  // Schedules `fn` to fire at absolute time `when`. Returns an id usable with
  // Cancel().
  EventId Schedule(Cycles when, EventCallback fn) {
    const uint32_t index = AcquireSlot();
    Slot& slot = slots_[index];
    if (fn.heap_allocated()) {
      ++stats_.callback_heap_allocs;
    }
    slot.fn = std::move(fn);
    heap_.push_back(HeapEntry{when, next_seq_++, index});
    slot.heap_index = static_cast<uint32_t>(heap_.size() - 1);
    SiftUp(heap_.size() - 1);
    ++stats_.scheduled;
    if (heap_.size() > stats_.max_heap_depth) {
      stats_.max_heap_depth = heap_.size();
    }
    return MakeId(index, slot.generation);
  }

  // Cancels a pending event. Returns false (no-op) if the event already fired
  // or was already cancelled — the generation check makes this exact.
  bool Cancel(EventId id) {
    const uint32_t low = static_cast<uint32_t>(id);
    if (low == 0 || low > slots_.size()) {
      return false;
    }
    const uint32_t index = low - 1;
    Slot& slot = slots_[index];
    if (slot.generation != static_cast<uint32_t>(id >> 32) || slot.heap_index == kNullIndex) {
      return false;  // Already fired, already cancelled, or never issued.
    }
    HeapRemoveAt(slot.heap_index);
    ReleaseSlot(index);
    ++stats_.cancelled;
    return true;
  }

  bool Empty() const { return heap_.empty(); }
  size_t Size() const { return heap_.size(); }

  // Time of the earliest pending event. Only valid when !Empty().
  Cycles NextTime() const {
    ELSC_CHECK_MSG(!heap_.empty(), "NextTime() on empty event queue");
    return heap_[0].when;
  }

  // Pops and returns the earliest pending event. Only valid when !Empty().
  Fired PopNext() {
    ELSC_CHECK_MSG(!heap_.empty(), "PopNext() on empty event queue");
    const uint32_t index = heap_[0].slot;
    Slot& slot = slots_[index];
    Fired fired{heap_[0].when, MakeId(index, slot.generation), std::move(slot.fn)};
    HeapRemoveAt(0);
    ReleaseSlot(index);
    ++stats_.fired;
    return fired;
  }

  const EventQueueStats& stats() const { return stats_; }

 private:
  static constexpr uint32_t kNullIndex = 0xffffffffu;
  // A 4-ary heap trades slightly more comparisons per level for half the
  // levels and far better cache behavior than a binary heap: the four
  // children of a node are adjacent in one cache line of indices.
  static constexpr size_t kArity = 4;

  struct Slot {
    // The (when, seq) sort key lives in the heap entry, not here.
    EventCallback fn;
    uint32_t generation = 1;     // Bumped on release; stale ids never match.
    uint32_t heap_index = kNullIndex;  // kNullIndex when free.
    uint32_t next_free = kNullIndex;
  };

  static EventId MakeId(uint32_t index, uint32_t generation) {
    return (static_cast<uint64_t>(generation) << 32) | (index + 1);
  }

  // Heap entries carry the full sort key alongside the slot index, so sift
  // comparisons read only the (hot, densely packed) heap array and never
  // touch the slot slab — a Slot is dominated by its callback buffer, and
  // chasing it per comparison was the queue's main cache-miss source.
  struct HeapEntry {
    Cycles when;
    uint64_t seq;
    uint32_t slot;
  };

  // Earliest time, then insertion order (seq is unique, so this is strict).
  static bool Before(const HeapEntry& a, const HeapEntry& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  uint32_t AcquireSlot() {
    if (free_head_ != kNullIndex) {
      const uint32_t index = free_head_;
      free_head_ = slots_[index].next_free;
      slots_[index].next_free = kNullIndex;
      return index;
    }
    slots_.emplace_back();
    ++stats_.slot_allocs;
    return static_cast<uint32_t>(slots_.size() - 1);
  }

  void ReleaseSlot(uint32_t index) {
    Slot& slot = slots_[index];
    ++slot.generation;  // Invalidate every outstanding id for this slot.
    slot.heap_index = kNullIndex;
    slot.fn = EventCallback();
    slot.next_free = free_head_;
    free_head_ = index;
  }

  void SiftUp(size_t pos) {
    const HeapEntry entry = heap_[pos];
    while (pos > 0) {
      const size_t parent = (pos - 1) / kArity;
      if (!Before(entry, heap_[parent])) {
        break;
      }
      SetHeap(pos, heap_[parent]);
      pos = parent;
    }
    SetHeap(pos, entry);
  }

  void SiftDown(size_t pos) {
    const HeapEntry entry = heap_[pos];
    const size_t size = heap_.size();
    while (true) {
      const size_t first_child = pos * kArity + 1;
      if (first_child >= size) {
        break;
      }
      const size_t last_child = std::min(first_child + kArity, size);
      size_t best = first_child;
      for (size_t child = first_child + 1; child < last_child; ++child) {
        if (Before(heap_[child], heap_[best])) {
          best = child;
        }
      }
      if (!Before(heap_[best], entry)) {
        break;
      }
      SetHeap(pos, heap_[best]);
      pos = best;
    }
    SetHeap(pos, entry);
  }

  void HeapRemoveAt(size_t pos) {
    const size_t last = heap_.size() - 1;
    if (pos != last) {
      SetHeap(pos, heap_[last]);
      heap_.pop_back();
      // The moved-in element may need to travel either direction.
      SiftDown(pos);
      SiftUp(pos);
    } else {
      heap_.pop_back();
    }
  }

  void SetHeap(size_t pos, const HeapEntry& entry) {
    heap_[pos] = entry;
    slots_[entry.slot].heap_index = static_cast<uint32_t>(pos);
  }

  std::vector<Slot> slots_;
  std::vector<HeapEntry> heap_;  // 4-ary min-heap keyed by (when, seq).
  uint32_t free_head_ = kNullIndex;
  uint64_t next_seq_ = 0;
  EventQueueStats stats_;
};

}  // namespace elsc

#endif  // SRC_SIM_EVENT_QUEUE_H_
