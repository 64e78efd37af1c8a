// Discrete-event simulation engine.
//
// Owns the simulated clock (in CPU cycles, see src/base/time_units.h) and the
// event queue. All kernel machinery (timer ticks, segment completions,
// wakeups) runs as events; the engine advances time strictly monotonically.

#ifndef SRC_SIM_ENGINE_H_
#define SRC_SIM_ENGINE_H_

#include <cstdint>
#include <functional>
#include <utility>

#include "src/base/assert.h"
#include "src/base/time_units.h"
#include "src/sim/event_queue.h"

namespace elsc {

class Engine {
 public:
  Cycles Now() const { return now_; }

  // Schedules `fn` to run `delay` cycles from now. `fn` is taken by
  // forwarding reference and built directly in its queue slot's small-buffer
  // EventCallback, so the closure is not moved on its way in: a lambda with
  // modest captures (or a std::function) is stored inline and allocates
  // nothing, and an EventCallback rvalue moves in.
  template <EventCallable F>
  EventId ScheduleAfter(Cycles delay, F&& fn) {
    return queue_.Schedule(now_ + delay, std::forward<F>(fn));
  }

  // Schedules `fn` at absolute time `when`; `when` must be >= Now().
  template <EventCallable F>
  EventId ScheduleAt(Cycles when, F&& fn) {
    ELSC_CHECK_MSG(when >= now_, "event scheduled in the past");
    return queue_.Schedule(when, std::forward<F>(fn));
  }

  bool Cancel(EventId id) { return queue_.Cancel(id); }

  // Runs until the event queue drains or the clock passes `deadline`
  // (events at exactly `deadline` still fire). Returns the number of events
  // processed.
  uint64_t RunUntil(Cycles deadline);

  // Runs until the event queue drains completely.
  uint64_t RunToCompletion();

  // Runs until `predicate()` becomes true (checked after each event), the
  // queue drains, or the clock passes `deadline`.
  uint64_t RunUntilCondition(const std::function<bool()>& predicate, Cycles deadline);

  // Requests that the current Run* call stop after the in-flight event.
  void Stop() { stop_requested_ = true; }

  uint64_t events_processed() const { return events_processed_; }
  size_t pending_events() const { return queue_.Size(); }

  // Allocation/depth counters of the underlying event queue (see
  // EventQueueStats); surfaced through RunStats by the api layer.
  const EventQueueStats& queue_stats() const { return queue_.stats(); }

 private:
  bool Step(Cycles deadline) {
    if (queue_.Empty()) {
      return false;
    }
    if (queue_.NextTime() > deadline) {
      return false;
    }
    EventQueue::Fired fired = queue_.PopNext();
    ELSC_CHECK_MSG(fired.when >= now_, "event queue time went backwards");
    now_ = fired.when;
    ++events_processed_;
    fired.fn();
    return true;
  }

  EventQueue queue_;
  Cycles now_ = 0;
  uint64_t events_processed_ = 0;
  bool stop_requested_ = false;
};

}  // namespace elsc

#endif  // SRC_SIM_ENGINE_H_
