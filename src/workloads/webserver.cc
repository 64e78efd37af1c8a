#include "src/workloads/webserver.h"

#include "src/base/assert.h"
#include "src/base/string_util.h"
#include "src/net/socket_ops.h"
#include "src/workloads/micro_behaviors.h"

namespace elsc {

// One prefork worker process.
class WebserverWorker : public TaskBehavior {
 public:
  WebserverWorker(WebserverWorkload* workload, Rng rng) : workload_(workload), rng_(rng) {}

  Segment NextSegment(Machine& machine, Task& task) override {
    const WebserverConfig& cfg = workload_->config();
    SimSocket& accept = *workload_->accept_queue_;
    switch (phase_) {
      case Phase::kAccept: {
        // EINTR idiom: whatever woke us (data, shutdown broadcast, a timed
        // accept expiring, a lifecycle transition, a spurious wake), re-try
        // the read and re-decide.
        ConsumeReadTimeout(task, accept);
        Message req;
        const SockStatus st = accept.TryReadMsg(machine, &req);
        if (st == SockStatus::kReset || st == SockStatus::kEof) {
          // The listener died under us (injected reset or close). A real
          // server re-listens; the first worker to notice reopens and
          // everyone retries the accept.
          if (workload_->window_closed_) {
            return Segment::Exit(cfg.syscall_cycles);
          }
          workload_->ReopenAcceptQueue();
          return Segment::RunAgain(cfg.syscall_cycles);
        }
        if (st == SockStatus::kWouldBlock) {
          if (workload_->window_closed_) {
            return Segment::Exit(cfg.syscall_cycles);
          }
          WebserverWorkload* w = workload_;
          SimSocket* sock = &accept;
          return Segment::BlockFor(
              cfg.syscall_cycles, &accept.read_wait(), accept.rcv_timeout(),
              [w, sock] { return !sock->ReadReady() && !w->window_closed_; });
        }
        if (cfg.shed_deadline > 0 && machine.Now() - req.sent_at > cfg.shed_deadline) {
          // Admission control: this request already waited past its
          // deadline; completing it would be wasted work. Shed and accept
          // the next one.
          workload_->OnRequestShed();
          return Segment::RunAgain(cfg.syscall_cycles);
        }
        request_ = req;
        phase_ = Phase::kParse;
        return Segment::RunAgain(cfg.syscall_cycles);
      }
      case Phase::kParse: {
        const bool disk = rng_.NextBool(cfg.disk_probability);
        phase_ = disk ? Phase::kDisk : Phase::kRespond;
        return Segment::RunAgain(JitterCycles(rng_, cfg.parse_cycles, cfg.work_jitter));
      }
      case Phase::kDisk: {
        phase_ = Phase::kRespond;
        return Segment::Sleep(cfg.syscall_cycles,
                              JitterCycles(rng_, cfg.mean_disk_wait, cfg.work_jitter));
      }
      case Phase::kRespond: {
        const Cycles respond = JitterCycles(rng_, cfg.respond_cycles, cfg.work_jitter);
        const Cycles completion_time = machine.Now() + respond;
        workload_->OnRequestComplete(completion_time - request_.sent_at);
        phase_ = Phase::kAccept;
        return Segment::RunAgain(respond);
      }
    }
    __builtin_unreachable();
  }

 private:
  enum class Phase { kAccept, kParse, kDisk, kRespond };
  WebserverWorkload* workload_;
  Rng rng_;
  Message request_;
  Phase phase_ = Phase::kAccept;
};

WebserverWorkload::WebserverWorkload(Machine& machine, const WebserverConfig& config)
    : machine_(machine), config_(config), rng_(machine.rng().Fork()) {
  ELSC_CHECK(config_.workers >= 1);
  ELSC_CHECK(config_.arrival_rate_per_sec > 0.0);
}

WebserverWorkload::~WebserverWorkload() = default;

void WebserverWorkload::Setup() {
  accept_queue_ = std::make_unique<SimSocket>(config_.accept_queue_capacity);
  accept_queue_->set_rcv_timeout(config_.accept_timeout);
  for (int i = 0; i < config_.workers; ++i) {
    auto worker = std::make_unique<WebserverWorker>(this, rng_.Fork());
    TaskParams params;
    params.name = StrFormat("httpd-%d", i);
    // Prefork: each worker is a separate process with its own mm
    // (TaskParams.mm == nullptr allocates a fresh one).
    params.behavior = worker.get();
    machine_.CreateTask(params);
    behaviors_.push_back(std::move(worker));
  }

  window_end_ = machine_.Now() + config_.duration;
  machine_.engine().ScheduleAt(window_end_, [this] {
    window_closed_ = true;
    // Release any workers parked on an empty accept queue so they can exit.
    accept_queue_->read_wait().WakeAll(machine_);
  });
  ScheduleNextArrival();
}

void WebserverWorkload::ScheduleNextArrival() {
  const double mean_gap_sec = 1.0 / config_.arrival_rate_per_sec;
  const double gap_sec = rng_.NextExponential(mean_gap_sec);
  const auto gap = static_cast<Cycles>(gap_sec * static_cast<double>(kCyclesPerSec)) + 1;
  machine_.engine().ScheduleAfter(gap, [this] {
    if (machine_.Now() >= window_end_) {
      return;
    }
    ++arrived_;
    Message request;
    request.id = arrived_;
    request.sent_at = machine_.Now();
    SubmitRequest(request, 0);
    ScheduleNextArrival();
  });
}

void WebserverWorkload::SubmitRequest(const Message& request, int attempt) {
  if (attempt > 0 && window_closed_) {
    // The measurement window closed while this retry timer was pending; the
    // workers may already have drained out, so enqueueing now could strand
    // the request forever. The client gives up instead.
    ++abandons_;
    ++dropped_backlog_;
    return;
  }
  const SockStatus st = accept_queue_->TryWriteMsg(machine_, request);
  if (st == SockStatus::kOk) {
    return;
  }
  const bool conn_dead = st != SockStatus::kWouldBlock;
  if (config_.retry_arrivals && !window_closed_) {
    const int next_attempt = attempt + 1;
    if (!config_.backoff.ShouldAbandon(next_attempt)) {
      ++retries_;
      ++pending_retries_;
      // Jitter key = request id: unique per request, so retry timers spread
      // out deterministically without consuming any shared RNG stream.
      const Cycles delay = config_.backoff.Delay(request.id, next_attempt);
      machine_.engine().ScheduleAfter(delay, [this, request, next_attempt] {
        --pending_retries_;
        SubmitRequest(request, next_attempt);
      });
      return;
    }
    ++abandons_;
  }
  if (conn_dead) {
    ++dropped_conn_;
  } else {
    ++dropped_backlog_;
  }
}

void WebserverWorkload::OnRequestComplete(Cycles latency) {
  ++completed_;
  latency_us_.Add(static_cast<uint64_t>(CyclesToUs(latency)));
}

void WebserverWorkload::OnRequestShed() { ++dropped_shed_; }

void WebserverWorkload::ReopenAcceptQueue() {
  // Reopen() counts any torn-down queue remnants into stats().discarded,
  // which Result() folds into dropped_reset — so requests destroyed by the
  // teardown stay accounted for.
  accept_queue_->Reopen(machine_);
}

bool WebserverWorkload::Done() const {
  return window_closed_ && machine_.live_tasks() == 0 && pending_retries_ == 0;
}

WebserverResult WebserverWorkload::Result() const {
  WebserverResult result;
  result.requests_arrived = arrived_;
  result.requests_completed = completed_;
  result.dropped_backlog = dropped_backlog_;
  result.dropped_shed = dropped_shed_;
  // Reset drops: writes refused by a dead listener, plus queued requests
  // destroyed when the listener was torn down.
  result.dropped_reset = dropped_conn_ + accept_queue_->stats().discarded;
  result.requests_dropped =
      result.dropped_backlog + result.dropped_shed + result.dropped_reset;
  result.retries = retries_;
  result.abandons = abandons_;
  result.elapsed_sec = CyclesToSec(machine_.Now());
  result.throughput =
      result.elapsed_sec > 0 ? static_cast<double>(completed_) / result.elapsed_sec : 0.0;
  result.latency_mean_us = latency_us_.mean();
  result.latency_p50_us = latency_us_.Percentile(0.50);
  result.latency_p95_us = latency_us_.Percentile(0.95);
  result.latency_p99_us = latency_us_.Percentile(0.99);
  result.latency_p999_us = latency_us_.Percentile(0.999);
  return result;
}

}  // namespace elsc
