#include "src/workloads/token_ring.h"

#include "src/base/assert.h"
#include "src/base/string_util.h"
#include "src/net/socket_ops.h"

namespace elsc {

namespace {
// Latency accounting lives in the workload; tokens carry their send time.
}  // namespace

class TokenRingBehavior : public TaskBehavior {
 public:
  TokenRingBehavior(TokenRingWorkload* workload, int index) : workload_(workload), index_(index) {}

  Segment NextSegment(Machine& machine, Task& task) override {
    const TokenRingConfig& cfg = workload_->config();
    switch (phase_) {
      case Phase::kRead: {
        // EINTR retry loop: count an expired read deadline, then re-try the
        // read and block again — a late token still completes the run.
        ConsumeReadTimeout(task, workload_->pipe(index_));
        auto token = workload_->pipe(index_).TryRead(machine);
        if (!token.has_value()) {
          return BlockUntilReadable(cfg.syscall_cycles, workload_->pipe(index_));
        }
        forward_ = workload_->CountHopWithLatency(machine.Now() - token->sent_at);
        phase_ = Phase::kForward;
        return Segment::RunAgain(cfg.hop_work);
      }
      case Phase::kForward: {
        if (forward_) {
          const int next = (index_ + 1) % cfg.tasks;
          Message token;
          token.sender = index_;
          token.sent_at = machine.Now();
          const bool ok = workload_->pipe(next).TryWrite(machine, token);
          ELSC_CHECK_MSG(ok, "token ring pipe overflow");
        }
        phase_ = Phase::kRead;
        return Segment::RunAgain(cfg.syscall_cycles);
      }
    }
    __builtin_unreachable();
  }

 private:
  enum class Phase { kRead, kForward };
  TokenRingWorkload* workload_;
  int index_;
  bool forward_ = true;
  Phase phase_ = Phase::kRead;
};

TokenRingWorkload::TokenRingWorkload(Machine& machine, const TokenRingConfig& config)
    : machine_(machine), config_(config) {
  ELSC_CHECK(config_.tasks >= 2);
  ELSC_CHECK(config_.tokens >= 1 && config_.tokens <= config_.tasks);
  ELSC_CHECK(config_.total_hops >= static_cast<uint64_t>(config_.tokens));
}

TokenRingWorkload::~TokenRingWorkload() = default;

void TokenRingWorkload::Setup() {
  MmStruct* mm = machine_.CreateMm();  // One process, N threads, like lat_ctx -P.
  pipes_.reserve(static_cast<size_t>(config_.tasks));
  for (int i = 0; i < config_.tasks; ++i) {
    pipes_.push_back(std::make_unique<SimSocket>(static_cast<size_t>(config_.tokens) + 2));
    pipes_.back()->set_rcv_timeout(config_.read_timeout);
  }
  for (int i = 0; i < config_.tasks; ++i) {
    behaviors_.push_back(std::make_unique<TokenRingBehavior>(this, i));
    TaskParams params;
    params.name = StrFormat("ring-%d", i);
    params.mm = mm;
    params.behavior = behaviors_.back().get();
    machine_.CreateTask(params);
  }
  // Inject the tokens, spread around the ring.
  for (int t = 0; t < config_.tokens; ++t) {
    const int slot = static_cast<int>(static_cast<long>(t) * config_.tasks / config_.tokens);
    Message token;
    token.sender = -1;
    token.sent_at = machine_.Now();
    const bool ok = pipe(slot).TryWrite(machine_, token);
    ELSC_CHECK(ok);
  }
}

bool TokenRingWorkload::CountHopWithLatency(Cycles latency) {
  ++hops_done_;
  latency_sum_ += latency;
  if (hops_done_ >= config_.total_hops + static_cast<uint64_t>(tokens_retired_)) {
    // Budget reached: retire this token instead of forwarding it.
    ++tokens_retired_;
    return false;
  }
  return true;
}

bool TokenRingWorkload::Done() const {
  return tokens_retired_ >= static_cast<uint64_t>(config_.tokens);
}

TokenRingResult TokenRingWorkload::Result() const {
  TokenRingResult result;
  result.completed = Done();
  result.hops = hops_done_;
  result.elapsed_sec = CyclesToSec(machine_.Now());
  result.hops_per_sec =
      result.elapsed_sec > 0 ? static_cast<double>(hops_done_) / result.elapsed_sec : 0.0;
  result.hop_latency_us =
      hops_done_ > 0 ? CyclesToUs(latency_sum_) / static_cast<double>(hops_done_) : 0.0;
  return result;
}

}  // namespace elsc
