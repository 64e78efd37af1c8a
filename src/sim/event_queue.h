// Stable priority queue of timed events for the discrete-event engine.
//
// Events with equal timestamps fire in insertion order (a strict requirement
// for reproducibility: a timer tick and a segment end at the same cycle must
// resolve deterministically). Every event sorts by (when, seq), where seq is
// its insertion number.
//
// Two tiers. Most events the simulator schedules are due before almost
// everything already pending (a pick completion, the end of the segment just
// dispatched), so, much as the ELSC table keeps its likely next pick in
// top/next_top, a small sorted front tier of kFrontCapacity entries takes
// every new event and a 4-ary min-heap holds the rest. When the front is
// full, its latest entry spills to the heap (or the new event goes there, if
// it is later still); nothing moves back. The tiers keep no ordering
// invariant between them: PopNext() and NextTime() take whichever of the
// front's earliest entry and the heap's root sorts first. An event that
// fires from the front never pays a heap push or pop.
//
// Allocation: event state lives in a slab of reusable slots, and each
// callback is built directly in its slot's inline EventCallback — so
// scheduling, firing, and cancelling events allocate nothing in steady state
// (the slab and heap arrays grow to the high-water mark once and are then
// recycled). Event ids carry the slot's generation counter, which makes
// Cancel() exact: ids of events that already fired or were cancelled never
// match a live slot, so there is no tombstone set and no way to corrupt the
// live count by cancelling a stale id. A slot's heap_index says where its
// entry is: a heap position, the front tier, or free.
//
// Everything is defined in this header, as templates or inline functions, so
// each call site builds its closure straight into the slot.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/base/assert.h"
#include "src/base/inline_function.h"
#include "src/base/token_codec.h"
#include "src/base/time_units.h"

namespace elsc {

// An event's closure. 48 bytes hold the largest closure the Machine schedules
// (this + CPU id + task pointer + cost) with headroom for embedders'
// callbacks; a bigger one does not compile, so no event allocates.
using EventCallback = InlineFunction<void, 48>;

// What an event can be scheduled with (EventQueue::Schedule,
// Engine::ScheduleAfter/ScheduleAt): a void() callable that EventCallback
// stores, or an EventCallback rvalue. An lvalue EventCallback is rejected,
// because the type is move-only.
template <typename F>
concept EventCallable =
    requires(EventCallback& slot, F&& fn) { slot.Emplace(std::forward<F>(fn)); };

// Encodes {slot index, slot generation}; 0 is never a valid id.
using EventId = uint64_t;

// Allocation and depth counters for the event hot path. All steady-state
// values should be flat: slot_allocs counts slab growths (bounded by the
// maximum number of simultaneously pending events). callback_heap_allocs is
// 0 by construction, since EventCallback has no heap fallback; it stays
// because EngineDigest and every bench JSON file lay it out.
struct EventQueueStats {
  uint64_t scheduled = 0;
  uint64_t fired = 0;
  uint64_t cancelled = 0;
  uint64_t callback_heap_allocs = 0;
  uint64_t slot_allocs = 0;
  // Peak number of pending events, front tier and heap together. The name
  // predates the front tier; it is kept because it is a JSON key and a field
  // of EngineDigest.
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
  // Entries in the front tier. Counted on the repository benchmark's three
  // workloads (perfbench, seed 42; docs/PERF.md): with 16 entries, 1.0% of
  // the 4P web server's 13.2M events pass through the heap (15% with 4, 4.5%
  // with 8, 0.02% with 32), and VolanoMark and the federation never reach it
  // (nor do they with 8). Run time did not separate 4 to 32 entries beyond
  // host noise. 16 entries cost 384 bytes per queue; 32 would double that,
  // to 0.9% of the federation's peak RSS, for 1% of the web server's events.
  static constexpr uint32_t kFrontCapacity = 16;

  struct Fired {
    Cycles when = 0;
    EventId id = 0;
    EventCallback fn;
  };

  // Schedules `fn` to fire at absolute time `when`, building it directly in
  // the event's slot. Returns an id usable with Cancel().
  template <EventCallable F>
  EventId Schedule(Cycles when, F&& fn) {
    if (free_head_ == kNullIndex) {
      GrowSlab();
    }
    const uint32_t index = free_head_;
    Slot& slot = slots_[index];
    // Built while the slot is still on the free list, so a closure that
    // throws on construction leaves the queue as it was.
    slot.fn.Emplace(std::forward<F>(fn));
    free_head_ = slot.next_free;
    slot.next_free = kNullIndex;
    FrontInsert(HeapEntry{when, next_seq_++, index});
    ++stats_.scheduled;
    if (Size() > stats_.max_heap_depth) {
      stats_.max_heap_depth = Size();
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
    if (slot.heap_index == kFrontIndex) {
      FrontRemove(index);
    } else {
      HeapRemoveAt(slot.heap_index);
    }
    // Destroyed on return, once the queue is consistent again: a closure's
    // destructor may run arbitrary code.
    const EventCallback cancelled = std::move(slot.fn);
    ReleaseSlot(index);
    ++stats_.cancelled;
    return true;
  }

  bool Empty() const { return front_size_ == 0 && heap_.empty(); }
  size_t Size() const { return front_size_ + heap_.size(); }

  // Time of the earliest pending event. Only valid when !Empty().
  Cycles NextTime() const {
    ELSC_CHECK_MSG(!Empty(), "NextTime() on empty event queue");
    return FrontIsNext() ? front_[front_size_ - 1].when : heap_[0].when;
  }

  // Pops and returns the earliest pending event. Only valid when !Empty().
  Fired PopNext() {
    ELSC_CHECK_MSG(!Empty(), "PopNext() on empty event queue");
    const bool from_front = FrontIsNext();
    const HeapEntry next = from_front ? front_[front_size_ - 1] : heap_[0];
    if (from_front) {
      --front_size_;
    } else {
      HeapRemoveAt(0);
    }
    Slot& slot = slots_[next.slot];
    Fired fired{next.when, MakeId(next.slot, slot.generation), std::move(slot.fn)};
    ReleaseSlot(next.slot);
    ++stats_.fired;
    return fired;
  }

  const EventQueueStats& stats() const { return stats_; }

 private:
  // Slot::heap_index values that are not heap positions.
  static constexpr uint32_t kNullIndex = 0xffffffffu;   // Free slot.
  static constexpr uint32_t kFrontIndex = 0xfffffffeu;  // Entry in the front tier.
  // A 4-ary heap trades slightly more comparisons per level for half the
  // levels and far better cache behavior than a binary heap: the four
  // children of a node are adjacent in one cache line of indices.
  static constexpr size_t kArity = 4;

  struct Slot {
    // The (when, seq) sort key lives in the tier entry, not here. Empty
    // while the slot is free.
    EventCallback fn;
    uint32_t generation = 1;     // Bumped on release; stale ids never match.
    uint32_t heap_index = kNullIndex;
    uint32_t next_free = kNullIndex;
  };

  static EventId MakeId(uint32_t index, uint32_t generation) {
    return (static_cast<uint64_t>(generation) << 32) | (index + 1);
  }

  // Tier entries carry the full sort key alongside the slot index, so
  // comparisons read only the (hot, densely packed) front and heap arrays
  // and never touch the slot slab — a Slot is dominated by its callback
  // buffer, and chasing it per comparison was the queue's main cache-miss
  // source.
  struct HeapEntry {
    Cycles when;
    uint64_t seq;
    uint32_t slot;
  };

  // Earliest time, then insertion order (seq is unique, so this is strict).
  static bool Before(const HeapEntry& a, const HeapEntry& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  // Whether the next event to fire is the front tier's earliest entry rather
  // than the heap's root. Only valid when !Empty().
  bool FrontIsNext() const {
    return front_size_ != 0 && (heap_.empty() || Before(front_[front_size_ - 1], heap_[0]));
  }

  // Inserts `entry` into the front tier, which is sorted latest-first so
  // that its earliest entry sits at the back. A full front spills its latest
  // entry to the heap, or `entry` itself if that is later still.
  void FrontInsert(const HeapEntry& entry) {
    uint32_t pos = front_size_;
    if (pos == kFrontCapacity) {
      if (Before(front_[0], entry)) {
        HeapPush(entry);
        return;
      }
      HeapPush(front_[0]);
      // Entries [1, pos) are later than `entry`: they close the gap at 0.
      while (pos > 1 && Before(front_[pos - 1], entry)) {
        --pos;
      }
      std::copy(front_ + 1, front_ + pos, front_);
      front_[pos - 1] = entry;
    } else {
      while (pos > 0 && Before(front_[pos - 1], entry)) {
        front_[pos] = front_[pos - 1];
        --pos;
      }
      front_[pos] = entry;
      ++front_size_;
    }
    slots_[entry.slot].heap_index = kFrontIndex;
  }

  void FrontRemove(uint32_t slot) {
    HeapEntry* const end = front_ + front_size_;
    HeapEntry* const at =
        std::find_if(front_, end, [slot](const HeapEntry& e) { return e.slot == slot; });
    ELSC_DCHECK(at != end);
    std::copy(at + 1, end, at);
    --front_size_;
  }

  // Precondition: the free list is empty. Appends a slot and makes it the
  // free list.
  void GrowSlab() {
    slots_.emplace_back();
    ++stats_.slot_allocs;
    free_head_ = static_cast<uint32_t>(slots_.size() - 1);
  }

  // Precondition: the slot's callback has been moved out.
  void ReleaseSlot(uint32_t index) {
    Slot& slot = slots_[index];
    ++slot.generation;  // Invalidate every outstanding id for this slot.
    slot.heap_index = kNullIndex;
    slot.next_free = free_head_;
    free_head_ = index;
  }

  void HeapPush(const HeapEntry& entry) {
    heap_.push_back(entry);
    SiftUp(heap_.size() - 1);
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
  HeapEntry front_[kFrontCapacity] = {};  // Sorted latest-first; [0, front_size_) live.
  uint32_t front_size_ = 0;
  std::vector<HeapEntry> heap_;  // 4-ary min-heap keyed by (when, seq).
  uint32_t free_head_ = kNullIndex;
  uint64_t next_seq_ = 0;
  EventQueueStats stats_;
};

}  // namespace elsc

#endif  // SRC_SIM_EVENT_QUEUE_H_
