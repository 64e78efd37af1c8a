#include "src/workloads/kcompile.h"

#include "src/base/assert.h"
#include "src/base/string_util.h"
#include "src/net/socket_ops.h"
#include "src/workloads/micro_behaviors.h"

namespace elsc {

// The `make` process: serial parse, release workers, wait, serial link.
class KcompileMaster : public TaskBehavior {
 public:
  explicit KcompileMaster(KcompileWorkload* workload) : workload_(workload) {}

  Segment NextSegment(Machine& machine, Task& task) override {
    (void)task;
    const KcompileConfig& cfg = workload_->config();
    switch (phase_) {
      case Phase::kParse: {
        phase_ = Phase::kRelease;
        return Segment::RunAgain(cfg.serial_parse_cycles);
      }
      case Phase::kRelease: {
        for (int i = 0; i < cfg.jobs; ++i) {
          Message token;
          token.payload = static_cast<uint64_t>(i);
          const bool ok = workload_->start_gate_->TryWriteMsg(machine, token) == SockStatus::kOk;
          ELSC_CHECK_MSG(ok, "kcompile start gate overflow");
        }
        phase_ = Phase::kAwait;
        return Segment::RunAgain(UsToCycles(100));
      }
      case Phase::kAwait: {
        Message done;
        if (workload_->done_signal_->TryReadMsg(machine, &done) != SockStatus::kOk) {
          return BlockUntilReadable(UsToCycles(20), *workload_->done_signal_);
        }
        phase_ = Phase::kLink;
        return Segment::RunAgain(UsToCycles(100));
      }
      case Phase::kLink: {
        return Segment::Exit(cfg.serial_link_cycles);
      }
    }
    __builtin_unreachable();
  }

  void OnExit(Machine& machine, Task& task) override {
    (void)task;
    workload_->build_finished_ = true;
    workload_->finish_time_sec_ = CyclesToSec(machine.Now());
  }

 private:
  enum class Phase { kParse, kRelease, kAwait, kLink };
  KcompileWorkload* workload_;
  Phase phase_ = Phase::kParse;
};

// One compiler invocation: its own forked process running read -> compile
// -> write, then exit; the pool slot is signalled through its done socket.
class KcompileJob : public TaskBehavior {
 public:
  KcompileJob(KcompileWorkload* workload, Rng rng, Cycles compile_cycles, int worker_slot)
      : workload_(workload), rng_(rng), compile_cycles_(compile_cycles), slot_(worker_slot) {}

  Segment NextSegment(Machine& machine, Task& task) override {
    (void)task;
    const KcompileConfig& cfg = workload_->config();
    switch (phase_) {
      case Phase::kReadIo: {
        phase_ = Phase::kCompile;
        return Segment::Sleep(cfg.io_cpu_cycles, JitterCycles(rng_, cfg.mean_read_wait, 0.5));
      }
      case Phase::kCompile: {
        phase_ = Phase::kWriteIo;
        return Segment::RunAgain(compile_cycles_);
      }
      case Phase::kWriteIo: {
        phase_ = Phase::kDone;
        return Segment::Sleep(cfg.io_cpu_cycles, JitterCycles(rng_, cfg.mean_write_wait, 0.5));
      }
      case Phase::kDone: {
        workload_->OnJobDone(machine, slot_);
        return Segment::Exit(UsToCycles(30));
      }
    }
    __builtin_unreachable();
  }

 private:
  enum class Phase { kReadIo, kCompile, kWriteIo, kDone };
  KcompileWorkload* workload_;
  Rng rng_;
  Cycles compile_cycles_;
  int slot_;
  Phase phase_ = Phase::kReadIo;
};

// One slot of the -j pool: pulls compile jobs, forks a cc child for each,
// and waits for the child to exit before taking the next job.
class KcompileWorker : public TaskBehavior {
 public:
  KcompileWorker(KcompileWorkload* workload, Rng rng, int slot)
      : workload_(workload), rng_(rng), slot_(slot) {}

  Segment NextSegment(Machine& machine, Task& task) override {
    const KcompileConfig& cfg = workload_->config();
    switch (phase_) {
      case Phase::kGate: {
        Message token;
        if (workload_->start_gate_->TryReadMsg(machine, &token) != SockStatus::kOk) {
          return BlockUntilReadable(UsToCycles(20), *workload_->start_gate_);
        }
        phase_ = Phase::kFetch;
        return Segment::RunAgain(UsToCycles(50));
      }
      case Phase::kFetch: {
        const Cycles job_cycles = workload_->TakeJob();
        if (job_cycles == 0) {
          return Segment::Exit(UsToCycles(50));
        }
        // fork() + exec(cc): the child inherits half this slot's quantum.
        TaskBehavior* job = workload_->Adopt(
            std::make_unique<KcompileJob>(workload_, rng_.Fork(), job_cycles, slot_));
        TaskParams params;
        params.name = "cc-job";
        params.behavior = job;
        machine.ForkTask(&task, params);
        phase_ = Phase::kAwaitChild;
        return Segment::RunAgain(cfg.exec_overhead_cycles);
      }
      case Phase::kAwaitChild: {
        // wait(): park until the cc child signals its exit.
        SimSocket& done = *workload_->slot_done_[static_cast<size_t>(slot_)];
        Message exited;
        if (done.TryReadMsg(machine, &exited) != SockStatus::kOk) {
          return BlockUntilReadable(UsToCycles(20), done);
        }
        phase_ = Phase::kFetch;
        return Segment::RunAgain(UsToCycles(40));
      }
    }
    __builtin_unreachable();
  }

 private:
  enum class Phase { kGate, kFetch, kAwaitChild };
  KcompileWorkload* workload_;
  Rng rng_;
  int slot_;
  Phase phase_ = Phase::kGate;
};

KcompileWorkload::KcompileWorkload(Machine& machine, const KcompileConfig& config)
    : machine_(machine), config_(config), rng_(machine.rng().Fork()) {
  ELSC_CHECK(config_.jobs >= 1);
  ELSC_CHECK(config_.total_compile_jobs >= 1);
}

KcompileWorkload::~KcompileWorkload() = default;

void KcompileWorkload::Setup() {
  make_mm_ = machine_.CreateMm();
  start_gate_ = std::make_unique<SimSocket>(static_cast<size_t>(config_.jobs));
  done_signal_ = std::make_unique<SimSocket>(4);

  auto master = std::make_unique<KcompileMaster>(this);
  TaskParams params;
  params.name = "make";
  params.mm = make_mm_;
  params.behavior = master.get();
  machine_.CreateTask(params);
  behaviors_.push_back(std::move(master));

  for (int i = 0; i < config_.jobs; ++i) {
    slot_done_.push_back(std::make_unique<SimSocket>(2));
    auto worker = std::make_unique<KcompileWorker>(this, rng_.Fork(), i);
    TaskParams wp;
    wp.name = StrFormat("slot-%d", i);
    wp.mm = make_mm_;  // The pool slots belong to make itself.
    wp.behavior = worker.get();
    machine_.CreateTask(wp);
    behaviors_.push_back(std::move(worker));
  }
}

Cycles KcompileWorkload::TakeJob() {
  if (jobs_taken_ >= config_.total_compile_jobs) {
    return 0;
  }
  ++jobs_taken_;
  return JitterCycles(rng_, config_.mean_compile_cycles, config_.compile_jitter);
}

void KcompileWorkload::OnJobDone(Machine& machine, int worker_slot) {
  ++jobs_done_;
  // Signal the slot's wait() before the child exits.
  Message token;
  const bool slot_ok =
      slot_done_[static_cast<size_t>(worker_slot)]->TryWriteMsg(machine, token) == SockStatus::kOk;
  ELSC_CHECK_MSG(slot_ok, "kcompile slot signal overflow");
  if (jobs_done_ == config_.total_compile_jobs) {
    const bool ok = done_signal_->TryWriteMsg(machine, token) == SockStatus::kOk;
    ELSC_CHECK_MSG(ok, "kcompile done signal overflow");
  }
}

TaskBehavior* KcompileWorkload::Adopt(std::unique_ptr<TaskBehavior> behavior) {
  behaviors_.push_back(std::move(behavior));
  return behaviors_.back().get();
}

bool KcompileWorkload::Done() const { return build_finished_ && machine_.live_tasks() == 0; }

KcompileResult KcompileWorkload::Result() const {
  KcompileResult result;
  result.completed = build_finished_;
  result.elapsed_sec = finish_time_sec_;
  result.jobs_compiled = static_cast<uint64_t>(jobs_done_);
  return result;
}

}  // namespace elsc
