#!/usr/bin/env bash
# Perf gate for the simulator hot path: builds the default tree, runs the two
# perf benchmarks, and compares the fresh BENCH_perf_smoke.json against the
# committed baseline (bench/baselines/BENCH_perf_smoke.json). On the way it
# runs short smokes of the sweep benches and chaos_smoke, and checks that
# every BENCH_*.json they wrote is valid JSON.
#
# The comparison WARNS and exits 0 on regressions — wall-clock numbers from
# CI machines are too noisy for a hard gate (this container shows +/-15% on
# identical binaries). The printed deltas are the signal; a human promotes a
# fresh JSON to the baseline with:
#
#   cp build/BENCH_perf_smoke.json bench/baselines/BENCH_perf_smoke.json
#
#   usage: scripts/ci_bench.sh [churn_events] [rooms]
#
# Documented in docs/PERF.md.

set -euo pipefail
cd "$(dirname "$0")/.."

jobs="${ELSC_BUILD_JOBS:-2}"
churn_events="${1:-3000000}"
rooms="${2:-5}"
baseline="bench/baselines/BENCH_perf_smoke.json"

echo "=== build (build/) ==="
cmake -B build -S . >/dev/null
cmake --build build -j "${jobs}" --target perf_smoke micro_sched_ops overload_sweep scale_sweep federation_chaos o1_scaling chaos_smoke

echo "=== perf_smoke (${churn_events} churn events, ${rooms} rooms) ==="
(cd build && ./bench/perf_smoke "${churn_events}" "${rooms}")

echo "=== overload_sweep smoke (short sweep; JSON must be job-count invariant) ==="
# A short sweep at three load factors, run twice at different job counts: the
# emitted JSON contains only simulated data, so the two files must be
# byte-identical (the determinism contract the supervised harness preserves).
(cd build &&
  ELSC_DURATION_SEC=1 ELSC_LOADS=0.5,1.0,2.0 \
    ELSC_BENCH_JOBS=1 ./bench/overload_sweep >/dev/null &&
  mv BENCH_overload.json BENCH_overload.jobs1.json &&
  ELSC_DURATION_SEC=1 ELSC_LOADS=0.5,1.0,2.0 \
    ELSC_BENCH_JOBS=4 ./bench/overload_sweep &&
  cmp BENCH_overload.jobs1.json BENCH_overload.json &&
  echo "overload JSON identical at jobs 1 vs 4")

echo "=== scale_sweep smoke (sharded mode; JSON must be shard- and job-count invariant) ==="
# A tiny federation run three ways: shards 1 vs 4, and harness jobs 1 vs 4.
# With the timing block off, the JSON is pure simulated data — all three
# files must be byte-identical (the sharded mode's determinism contract;
# the binary additionally digest-checks every shard count in-process).
scale_env="ELSC_ROOMS=8 ELSC_USERS=4 ELSC_MSGS=4 ELSC_SCHEDS=elsc ELSC_TIMING=0"
(cd build &&
  env ${scale_env} ELSC_SHARDS=1 ELSC_BENCH_JOBS=1 ./bench/scale_sweep >/dev/null &&
  mv BENCH_scale.json BENCH_scale.shards1.json &&
  env ${scale_env} ELSC_SHARDS=4 ELSC_BENCH_JOBS=1 ./bench/scale_sweep >/dev/null &&
  cmp BENCH_scale.shards1.json BENCH_scale.json &&
  mv BENCH_scale.json BENCH_scale.jobs1.json &&
  env ${scale_env} ELSC_SHARDS=4 ELSC_BENCH_JOBS=4 ./bench/scale_sweep >/dev/null &&
  cmp BENCH_scale.jobs1.json BENCH_scale.json &&
  echo "scale JSON identical at shards 1 vs 4 and jobs 1 vs 4")

echo "=== federation_chaos smoke (failure model; JSON must be shard- and job-count invariant) ==="
# A tiny chaos-armed federation (crashes + loss + retransmission) run three
# ways: shards 1 vs 4, and harness jobs 1 vs 4. Chaos is seeded config, so
# with the timing block off all three JSON files must be byte-identical; the
# binary additionally digest-checks every shard count and asserts the
# retransmit column never loses more deliveries than its no-retransmit
# control in-process.
fed_env="ELSC_ROOMS=4 ELSC_USERS=4 ELSC_MSGS=8 ELSC_CRASH=0,100 ELSC_SCHEDS=elsc ELSC_TIMING=0"
(cd build &&
  env ${fed_env} ELSC_SHARDS=1 ELSC_BENCH_JOBS=1 ./bench/federation_chaos >/dev/null &&
  mv BENCH_federation_chaos.json BENCH_federation_chaos.shards1.json &&
  env ${fed_env} ELSC_SHARDS=4 ELSC_BENCH_JOBS=1 ./bench/federation_chaos >/dev/null &&
  cmp BENCH_federation_chaos.shards1.json BENCH_federation_chaos.json &&
  mv BENCH_federation_chaos.json BENCH_federation_chaos.jobs1.json &&
  env ${fed_env} ELSC_SHARDS=4 ELSC_BENCH_JOBS=4 ./bench/federation_chaos >/dev/null &&
  cmp BENCH_federation_chaos.jobs1.json BENCH_federation_chaos.json &&
  echo "federation chaos JSON identical at shards 1 vs 4 and jobs 1 vs 4")

echo "=== o1_scaling smoke (per-CPU lock model; JSON must be job-count invariant) ==="
# A reduced CPU sweep run at harness jobs 1 vs 4. With the timing block off,
# the JSON is pure simulated data, so the two files must be byte-identical.
o1_env="ELSC_CPUS=1,4,16 ELSC_ROOMS=2 ELSC_TIMING=0"
(cd build &&
  env ${o1_env} ELSC_BENCH_JOBS=1 ./bench/o1_scaling >/dev/null &&
  mv BENCH_o1_scaling.json BENCH_o1_scaling.jobs1.json &&
  env ${o1_env} ELSC_BENCH_JOBS=4 ./bench/o1_scaling >/dev/null &&
  cmp BENCH_o1_scaling.jobs1.json BENCH_o1_scaling.json &&
  echo "o1 scaling JSON identical at jobs 1 vs 4")

echo "=== chaos_smoke (every injector x every scheduler under strict audit) ==="
(cd build && ./bench/chaos_smoke >/dev/null && echo "chaos smoke green")

echo "=== every BENCH_*.json written above is valid JSON ==="
for file in build/BENCH_*.json; do
  python3 -m json.tool "${file}" >/dev/null
done
echo "all $(ls build/BENCH_*.json | wc -l) files parse"

echo "=== micro_sched_ops (table search + task alloc + clock + schedule/add-del + picks) ==="
# One process per family: a reading depends on what ran before it in the
# same process (BM_AddDel/linux/8 read about twice its solo figure after the
# BM_Schedule runs), so each family starts from a fresh process.
for family in BM_TableSearch BM_TaskAlloc BM_ClockSpan BM_Schedule/ BM_ScheduleSmp4/ \
    BM_AddDel/ BM_GoodnessScanPick BM_O1BitmapPick; do
  ./build/bench/micro_sched_ops --benchmark_min_time=0.05 \
    --benchmark_filter="^${family}" 2>/dev/null | grep -E "^BM_" || true
done

json_field() {
  # json_field <file> <key>: extracts a bare numeric member, at any depth,
  # from the one-member-per-line JSON perf_smoke writes (no jq in the image).
  sed -n "s/^ *\"$2\": \([0-9.][0-9.]*\),*$/\1/p" "$1"
}

echo "=== compare vs ${baseline} ==="
if [[ ! -f "${baseline}" ]]; then
  echo "no committed baseline; skipping comparison"
  exit 0
fi

# Wall-clock numbers only compare across runs on the same CPU budget.
echo "  host_cpus: baseline $(json_field "${baseline}" host_cpus) -> $(json_field build/BENCH_perf_smoke.json host_cpus)"
status=0
compare() {
  # compare <key> <higher_is_better:1|0>
  local key="$1" higher="$2" old new
  old="$(json_field "${baseline}" "${key}")"
  new="$(json_field build/BENCH_perf_smoke.json "${key}")"
  if [[ -z "${old}" || -z "${new}" ]]; then
    echo "  ${key}: missing from one of the files"
    return
  fi
  # Flag changes beyond 20% in the bad direction (beneath measured noise).
  local verdict
  verdict="$(awk -v o="${old}" -v n="${new}" -v h="${higher}" 'BEGIN {
    if (o == n) { ratio = 1.0; }        # Covers 0 -> 0 counters.
    else if (h == 1) { ratio = (o > 0) ? n / o : 0; }
    else { ratio = (n > 0) ? o / n : 0; }
    printf "%.2f %s", ratio, (ratio < 0.80) ? "REGRESSION?" : "ok";
  }')"
  echo "  ${key}: baseline ${old} -> ${new}  (${verdict})"
  if [[ "${verdict}" == *REGRESSION* ]]; then
    status=1
  fi
}

compare events_per_sec 1
compare matrix_serial_sec 0
compare callback_heap_allocs 0

if [[ "${status}" -ne 0 ]]; then
  echo "WARNING: possible perf regression (see above). Not failing the build:"
  echo "re-run on a quiet machine before trusting a single sample."
fi
echo "bench gate: done"
