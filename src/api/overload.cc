#include "src/api/overload.h"

#include "src/base/json_writer.h"

namespace elsc {

Cycles WebserverRequestCpuCycles(const WebserverConfig& config) {
  const double disk_submits = config.disk_probability;  // One syscall per miss.
  const double cycles = static_cast<double>(config.syscall_cycles)  // accept
                        + static_cast<double>(config.parse_cycles)
                        + disk_submits * static_cast<double>(config.syscall_cycles)
                        + static_cast<double>(config.respond_cycles);
  return static_cast<Cycles>(cycles);
}

double WebserverSaturationRate(const WebserverConfig& config, int cpus) {
  const double per_request = static_cast<double>(WebserverRequestCpuCycles(config));
  return static_cast<double>(cpus) * static_cast<double>(kCyclesPerSec) / per_request;
}

WebserverConfig OverloadBaseConfig(Cycles duration) {
  WebserverConfig cfg;
  cfg.duration = duration;
  // A pool deep enough that disk waits never bound throughput (CPU is the
  // bottleneck the sweep studies), over a deliberately bounded backlog so
  // overload surfaces as accounted drops instead of unbounded queueing.
  cfg.workers = 64;
  cfg.accept_queue_capacity = 128;
  // Resilience layer on: timed accepts, deadline shedding, retrying clients.
  cfg.accept_timeout = MsToCycles(10);
  // Just under the full-backlog drain time (capacity / service rate), so
  // shedding engages only once the backlog is deep — past saturation.
  cfg.shed_deadline = MsToCycles(15);
  cfg.retry_arrivals = true;
  return cfg;
}

OverloadCell RunOverloadCell(const OverloadCellSpec& spec, const WebserverConfig& base,
                             const ChaosOptions& chaos) {
  OverloadCell cell;
  cell.spec = spec;
  const MachineConfig mc = MakeMachineConfig(spec.kernel, spec.scheduler, spec.seed);
  cell.saturation_rate = WebserverSaturationRate(base, mc.num_cpus);
  WebserverConfig cfg = base;
  cfg.arrival_rate_per_sec = cell.saturation_rate * spec.load_factor;
  cell.offered_rate = cfg.arrival_rate_per_sec;
  cell.run = RunWebserver(mc, cfg, SecToCycles(3600), chaos);
  return cell;
}

std::string RenderOverloadJson(const std::vector<OverloadCell>& cells, uint64_t seed,
                               bool chaos) {
  JsonWriter json;
  json.Field("seed", seed).Field("chaos", chaos).Array("cells");
  for (const OverloadCell& cell : cells) {
    const WebserverResult& r = cell.run.result;
    json.Object()
        .Field("kernel", KernelConfigLabel(cell.spec.kernel))
        .Field("scheduler", SchedulerKindName(cell.spec.scheduler))
        .Fixed("load_factor", cell.spec.load_factor, 4)
        .Fixed("saturation_rate", cell.saturation_rate, 4)
        .Fixed("offered_rate", cell.offered_rate, 4)
        .Fixed("goodput", r.throughput, 4)
        .Field("arrived", r.requests_arrived)
        .Field("completed", r.requests_completed)
        .Field("dropped", r.requests_dropped);
    json.Object("drops")
        .Field("backlog", r.dropped_backlog)
        .Field("shed", r.dropped_shed)
        .Field("reset", r.dropped_reset)
        .End();
    json.Field("retries", r.retries).Field("abandons", r.abandons);
    json.Object("latency_us")
        .Fixed("mean", r.latency_mean_us, 4)
        .Field("p50", r.latency_p50_us)
        .Field("p95", r.latency_p95_us)
        .Field("p99", r.latency_p99_us)
        .Field("p999", r.latency_p999_us)
        .End();
    json.Counters("faults", cell.run.stats.faults, kFaultCounters)
        .Fixed("elapsed_sim_sec", r.elapsed_sec, 6)
        .Field("failed", cell.run.stats.failed)
        .End();
  }
  json.End();
  return json.Finish();
}

}  // namespace elsc
