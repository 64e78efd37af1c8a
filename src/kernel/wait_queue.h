// Wait queues: where blocked tasks sleep until an event wakes them.
//
// A task blocks by entering TASK_INTERRUPTIBLE and enqueuing itself here; a
// wake-up transfers it back to the scheduler via the Waker interface
// (implemented by the Machine, which performs wake_up_process(): state
// change, add_to_runqueue, reschedule_idle).

#ifndef SRC_KERNEL_WAIT_QUEUE_H_
#define SRC_KERNEL_WAIT_QUEUE_H_

#include <cstddef>

#include "src/base/intrusive_list.h"
#include "src/kernel/task.h"

namespace elsc {

// Implemented by the Machine; decouples wait queues (and the net/workload
// substrates built on them) from the SMP runtime.
class Waker {
 public:
  virtual ~Waker() = default;
  virtual void WakeUpProcess(Task* task) = 0;
};

class WaitQueue {
 public:
  WaitQueue() { InitListHead(&head_); }

  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  bool Empty() const { return ListEmpty(&head_); }
  size_t Size() const { return ListLength(&head_); }

  // Adds a task to the tail of the queue (FIFO wake order). The caller (the
  // Machine) is responsible for the task's state transition.
  void Enqueue(Task* task);

  // Removes a specific task (e.g. wake of a chosen sleeper). The task must be
  // queued here.
  void Remove(Task* task);

  // Dequeues the task at the head, or nullptr if empty. Does not wake it.
  Task* DequeueOne();

  // Wakes the first sleeper via `waker`. Returns the task woken, or nullptr.
  Task* WakeOne(Waker& waker);

  // Wakes every sleeper (in FIFO order). Returns the number woken.
  size_t WakeAll(Waker& waker);

 private:
  ListHead head_;
};

}  // namespace elsc

#endif  // SRC_KERNEL_WAIT_QUEUE_H_
