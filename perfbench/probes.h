// Standalone probes of single layers, each called through the layer's public
// API and sized by the caller from a traced run's own counters (heap depth,
// cancel ratio, socket capacity and depth, node count, messages per window),
// so a probe keeps matching its workload when the workload changes.
//
// Every timing probe repeats its loop until at least `min_seconds` of host
// time have passed and returns host nanoseconds per operation.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/time_units.h"

namespace perfbench {

// src/sim/event_queue.h: EventQueue held at `depth` pending events, churned
// by pop + schedule pairs, with schedule + cancel pairs mixed in so that
// cancelled / scheduled equals `cancel_ratio`. Nanoseconds per queue call.
double ProbeEventQueueNsPerOp(uint64_t depth, double cancel_ratio, uint64_t seed,
                              double min_seconds);

// src/net/socket.h: TryWriteMsg + TryReadMsg round trip on a SimSocket of
// `capacity`, holding `depth` (< capacity) messages queued, with a no-op
// Waker. Nanoseconds per round trip.
double ProbeSocketRoundTripNs(size_t capacity, size_t depth, double min_seconds);

// src/net/socket.h: heap bytes per SimSocket built through its public
// constructor, one per name in `names` (name length decides whether the name
// and its wait-queue names fit the string's inline buffer), each behind a
// unique_ptr as the workloads hold them. Counted with mallinfo2, so the
// result is exact rather than page-granular.
double ProbeBytesPerSocket(const std::vector<std::string>& names, size_t capacity);

// src/sim/fabric.h: FabricRouter over `nodes` nodes, `msgs_per_window`
// ring-neighbour Emit() calls per window followed by one Exchange().
// Nanoseconds per message (emit + drain + sink call).
double ProbeFabricNsPerMsg(int nodes, uint64_t msgs_per_window, elsc::Cycles window,
                           double min_seconds);

// Mean duration of an empty steady_clock span (two back-to-back now()
// calls), in nanoseconds: what every timed span carries on top of the call it
// wraps. Subtracted from span means so they describe the call, not the clock.
double ClockSpanNs();

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
