// Apache-style web-server workload — the paper's future-work question (§8):
// "Would we see the same performance gains we saw while running VolanoMark
// [on] a web server running Apache? Would ELSC be more effective in
// increasing throughput or decreasing latency?"
//
// Model: a prefork-style pool of worker processes blocked on a shared accept
// queue. Requests arrive by a Poisson process (an engine-driven generator
// writes them into the accept queue); a worker parses the request, sometimes
// waits on disk, produces the response, and goes back to accept. Each worker
// is its own process (own mm), matching Apache 1.3 prefork. Metrics:
// completed requests/second and response-latency percentiles.

#ifndef SRC_WORKLOADS_WEBSERVER_H_
#define SRC_WORKLOADS_WEBSERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/net/backoff.h"
#include "src/net/socket.h"
#include "src/smp/machine.h"
#include "src/stats/histogram.h"

namespace elsc {

struct WebserverConfig {
  int workers = 150;                    // Apache prefork pool size.
  double arrival_rate_per_sec = 600.0;  // Poisson arrivals.
  Cycles duration = SecToCycles(20);    // Measurement window.
  Cycles parse_cycles = UsToCycles(150);
  Cycles respond_cycles = UsToCycles(500);
  double disk_probability = 0.25;       // Requests that miss the page cache.
  Cycles mean_disk_wait = MsToCycles(6);
  Cycles syscall_cycles = UsToCycles(5);
  double work_jitter = 0.4;
  size_t accept_queue_capacity = 1024;
  // Optional accept-queue read deadline (SO_RCVTIMEO analog): workers whose
  // accept blocks exceed it wake, re-check for shutdown, and block again
  // instead of sleeping forever. 0 (default) blocks forever — the historical
  // behavior, preserved so golden digests don't move.
  Cycles accept_timeout = 0;

  // -- Overload-resilience knobs (all default off = historical behavior) --

  // Admission control: when nonzero, a worker sheds any accepted request
  // whose queueing delay (accept time − arrival time) already exceeds this
  // deadline — the request would miss its SLO anyway, so spending CPU on it
  // only steals capacity from requests that can still make it. Shed requests
  // count as dropped (cause: deadline).
  Cycles shed_deadline = 0;

  // Resilient clients: when true, an arrival that cannot enter the accept
  // queue (backlog full, or the listener was reset) retries with bounded
  // exponential backoff + deterministic jitter instead of being dropped on
  // the spot; after backoff.max_retries failed attempts the client abandons
  // (counted, and folded into the per-cause drop totals).
  bool retry_arrivals = false;
  BackoffPolicy backoff;
};

struct WebserverResult {
  uint64_t requests_arrived = 0;
  uint64_t requests_completed = 0;
  // Total drops; always dropped_backlog + dropped_shed + dropped_reset, so
  // requests_completed == requests_arrived − requests_dropped still holds.
  uint64_t requests_dropped = 0;
  uint64_t dropped_backlog = 0;  // Accept-queue overflow (incl. abandons).
  uint64_t dropped_shed = 0;     // Admission control: deadline already blown.
  uint64_t dropped_reset = 0;    // Connection reset (failed write or queue teardown).
  uint64_t retries = 0;          // Backoff retry attempts by arrivals.
  uint64_t abandons = 0;         // Arrivals that gave up after max retries.
  double elapsed_sec = 0.0;
  double throughput = 0.0;        // Completed (goodput) requests per second.
  double latency_mean_us = 0.0;
  uint64_t latency_p50_us = 0;
  uint64_t latency_p95_us = 0;
  uint64_t latency_p99_us = 0;
  uint64_t latency_p999_us = 0;
};

class WebserverWorkload {
 public:
  WebserverWorkload(Machine& machine, const WebserverConfig& config);
  ~WebserverWorkload();

  WebserverWorkload(const WebserverWorkload&) = delete;
  WebserverWorkload& operator=(const WebserverWorkload&) = delete;

  // Creates the worker pool and starts the arrival generator.
  void Setup();

  // True once the arrival window closed and every in-flight request drained
  // (workers then exit).
  bool Done() const;

  WebserverResult Result() const;

  const WebserverConfig& config() const { return config_; }

  // Latency samples in µs; exposed so the overload sweep can Merge() shards
  // and take tail percentiles itself.
  const Histogram& latency_histogram() const { return latency_us_; }

  // Sockets the connection-lifecycle fault injectors may victimize (the
  // accept queue — the server's listener). See
  // FaultInjector::AttachLifecycleTargets.
  std::vector<SimSocket*> LifecycleTargets() { return {accept_queue_.get()}; }

  const SocketStats& accept_queue_stats() const { return accept_queue_->stats(); }

  // Sockets this workload owns (just the accept queue — requests ride it);
  // feeds the memory high-water block of RunStats.
  uint64_t SocketCount() const { return accept_queue_ ? 1 : 0; }

 private:
  friend class WebserverWorker;

  void ScheduleNextArrival();
  // Attempts to enqueue `request`; on failure either drops by cause or, with
  // retry_arrivals, schedules a jittered backoff retry. `attempt` is 0 for
  // the initial submission.
  void SubmitRequest(const Message& request, int attempt);
  void OnRequestComplete(Cycles latency);
  void OnRequestShed();
  // Called by a worker that observed the accept queue dead (reset or EOF)
  // mid-window: the server re-listens.
  void ReopenAcceptQueue();

  Machine& machine_;
  WebserverConfig config_;
  Rng rng_;
  std::unique_ptr<SimSocket> accept_queue_;
  std::vector<std::unique_ptr<TaskBehavior>> behaviors_;
  Histogram latency_us_;
  uint64_t arrived_ = 0;
  uint64_t completed_ = 0;
  uint64_t dropped_backlog_ = 0;
  uint64_t dropped_shed_ = 0;
  uint64_t dropped_conn_ = 0;  // Writes refused by a closed/reset listener.
  uint64_t retries_ = 0;
  uint64_t abandons_ = 0;
  uint64_t pending_retries_ = 0;  // Backoff timers in flight (blocks Done()).
  bool window_closed_ = false;
  Cycles window_end_ = 0;
};

}  // namespace elsc

#endif  // SRC_WORKLOADS_WEBSERVER_H_
