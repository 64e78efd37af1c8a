#!/usr/bin/env bash
# Teeth check for the run supervisor (src/harness/supervisor.h): proves that
# a crashing cell is quarantined with a repro artifact and a nonzero exit,
# and that a transient (once-only) timeout is retried to a green run — using
# perf_smoke's real 4-cell VolanoMark matrix as the victim.
#
#   usage: scripts/ci_supervised.sh
#
# Exercises the same machinery tests/supervisor_test.cc covers in-process,
# but end-to-end through a bench binary's environment plumbing
# (ELSC_SUPERVISE_INJECT, ELSC_QUARANTINE_FILE, BenchExit's escalation).
# Documented in docs/SUPERVISION.md.

set -euo pipefail
cd "$(dirname "$0")/.."

jobs="${ELSC_BUILD_JOBS:-2}"
churn_events=100000
rooms=2

echo "=== build (build/) ==="
cmake -B build -S . >/dev/null
cmake --build build -j "${jobs}" --target perf_smoke scale_sweep federation_chaos

scratch="build/ci_supervised"
rm -rf "${scratch}"
mkdir -p "${scratch}"
quarantine="${scratch}/quarantine.log"

echo "=== 1. deterministic crash in cell 1: expect quarantine + nonzero exit ==="
status=0
(cd "${scratch}" &&
 ELSC_BENCH_JOBS=2 \
 ELSC_SUPERVISE_INJECT=crash@1 \
 ELSC_QUARANTINE_FILE=quarantine.log \
 ../bench/perf_smoke "${churn_events}" "${rooms}" \
   >stdout_crash.log 2>stderr_crash.log) || status=$?

if [[ "${status}" -eq 0 ]]; then
  echo "FAIL: perf_smoke exited 0 despite an injected crash"
  exit 1
fi
echo "  exit status ${status} (nonzero, as required)"

if ! grep -q "QUARANTINE cell=1 kind=exception class=deterministic" "${quarantine}"; then
  echo "FAIL: quarantine artifact ${quarantine} missing the expected record:"
  cat "${quarantine}" 2>/dev/null || echo "  (file absent)"
  exit 1
fi
if ! grep -q "repro: " "${quarantine}"; then
  echo "FAIL: quarantine record carries no repro command"
  exit 1
fi
echo "  quarantine artifact records the cell, class, and repro line"

# The rest of the matrix must still have completed and been reported: the
# /proc-style summary on stdout, the structured block in the JSON.
if ! grep -Eq "quarantined: +2" "${scratch}/stdout_crash.log"; then
  echo "FAIL: supervision summary missing from bench stdout"
  exit 1
fi
if ! grep -q '"supervision"' "${scratch}/BENCH_perf_smoke.json" ||
   ! grep -q '"quarantined": 2' "${scratch}/BENCH_perf_smoke.json"; then
  echo "FAIL: supervision block missing from BENCH_perf_smoke.json"
  exit 1
fi
echo "  supervision summary present on stdout and in the JSON"

echo "=== 2. transient timeout in cell 2 (once): expect retry + green exit ==="
(cd "${scratch}" &&
 ELSC_BENCH_JOBS=2 \
 ELSC_SUPERVISE_INJECT=timeout@2:once \
 ../bench/perf_smoke "${churn_events}" "${rooms}" \
   >stdout_retry.log 2>stderr_retry.log)
echo "  exit status 0 (retry recovered the cell)"

if ! grep -q "elsc-supervisor: retry cell=2" "${scratch}/stderr_retry.log"; then
  echo "FAIL: no retry line on stderr for the injected transient timeout"
  exit 1
fi
retries="$(sed -n 's/^ *"retries": \([0-9][0-9]*\),*$/\1/p' "${scratch}/BENCH_perf_smoke.json")"
if [[ -z "${retries}" || "${retries}" -lt 1 ]]; then
  echo "FAIL: BENCH_perf_smoke.json reports retries=${retries:-missing}, want >= 1"
  exit 1
fi
echo "  JSON supervision block reports ${retries} retry(ies)"

echo "=== 3. kill-at-window recovery drill: checkpoint -> SIGKILL -> resume ==="
# A real process kill mid-federation (ELSC_SCALE_INJECT_KILL fires _Exit(137)
# at a window barrier, after a forced segment). The rerun must resume from
# the segment and render BENCH_scale.json byte-identical to an uninterrupted
# control — at both ends of the shard axis and the harness job axis, and at
# every barrier with a node still live: windows 1 to W-1, where W is the
# control's window count (at W every node has folded, so nothing kills).
scale_env=(ELSC_ROOMS=8 ELSC_USERS=4 ELSC_MSGS=4
           ELSC_SCHEDS=elsc ELSC_TIMING=0)

mkdir -p "${scratch}/scale_control"
(cd "${scratch}/scale_control" &&
 env "${scale_env[@]}" ELSC_SHARDS=1,4 \
 ../../bench/scale_sweep >stdout.log 2>stderr.log)
windows="$(sed -n 's/.*"windows": \([0-9][0-9]*\).*/\1/p' \
  "${scratch}/scale_control/BENCH_scale.json" | head -n 1)"
if [[ -z "${windows}" || "${windows}" -lt 2 ]]; then
  echo "FAIL: control BENCH_scale.json reports windows=${windows:-missing}, want >= 2"
  exit 1
fi
echo "  control ran ${windows} windows: killing at windows 1-$((windows - 1))"

# Every drill keeps the control's two-cell matrix (shard values never enter
# the JSON, so the files stay comparable) while moving one execution axis.
for drill in "shards1:1,1:1" "shards4:4,4:1" "jobs4:1,4:4"; do
  name="${drill%%:*}"; rest="${drill#*:}"
  shards="${rest%%:*}"; bench_jobs="${rest##*:}"
  for ((kill = 1; kill < windows; ++kill)); do
    dir="${scratch}/scale_${name}_w${kill}"
    mkdir -p "${dir}"

    status=0
    (cd "${dir}" &&
     env "${scale_env[@]}" ELSC_SHARDS="${shards}" \
     ELSC_BENCH_JOBS="${bench_jobs}" \
     ELSC_SCALE_CKPT=ck ELSC_SCALE_CKPT_EVERY=2 ELSC_SCALE_INJECT_KILL="${kill}" \
     ../../bench/scale_sweep >stdout_kill.log 2>stderr_kill.log) || status=$?
    if [[ "${status}" -ne 137 ]]; then
      echo "FAIL: ${name}: kill run at window ${kill} exited ${status}, want 137 (injected kill)"
      exit 1
    fi
    if ! ls "${dir}"/ck.*.ckpt >/dev/null 2>&1; then
      echo "FAIL: ${name}: no checkpoint segment on disk after the kill at window ${kill}"
      exit 1
    fi

    (cd "${dir}" &&
     env "${scale_env[@]}" ELSC_SHARDS="${shards}" \
     ELSC_BENCH_JOBS="${bench_jobs}" \
     ELSC_SCALE_CKPT=ck ELSC_SCALE_CKPT_EVERY=2 \
     ../../bench/scale_sweep >stdout_resume.log 2>stderr_resume.log)
    if ! grep -q "elsc-scale: resumed from" "${dir}/stderr_resume.log"; then
      echo "FAIL: ${name}: resume run after the kill at window ${kill} never restored a segment"
      exit 1
    fi
    if ! cmp -s "${dir}/BENCH_scale.json" "${scratch}/scale_control/BENCH_scale.json"; then
      echo "FAIL: ${name}: resumed BENCH_scale.json (kill at window ${kill}) differs from the control"
      exit 1
    fi
    if ls "${dir}"/ck.*.ckpt >/dev/null 2>&1; then
      echo "FAIL: ${name}: segments survived a clean completion (kill at window ${kill})"
      exit 1
    fi
  done
  echo "  ${name}: killed at each of windows 1-$((windows - 1)), resumed, JSON byte-identical, segments cleaned"
done

echo "=== 4. kill-at-window drill on a crash-armed federation ==="
# The fault-free drill above never checkpoints a down node, a dead
# incarnation's stats or banked chat totals. Every node of this
# federation_chaos scenario crashes and restarts, so its segments hold them:
# kill at every window with a node live, resume, and cmp against the
# control. At least one kill must leave a segment with a down-node record
# ("node <i> 2 ...").
chaos_env=(ELSC_ROOMS=4 ELSC_USERS=4 ELSC_MSGS=32 ELSC_CRASH=100
           ELSC_SHARDS=1 ELSC_SCHEDS=elsc ELSC_TIMING=0)
json=BENCH_federation_chaos.json

mkdir -p "${scratch}/chaos_control"
(cd "${scratch}/chaos_control" &&
 env "${chaos_env[@]}" ../../bench/federation_chaos >stdout.log 2>stderr.log)
windows="$(sed -n 's/.*"windows": \([0-9][0-9]*\).*/\1/p' \
  "${scratch}/chaos_control/${json}" | sort -n | tail -n 1)"
if [[ -z "${windows}" || "${windows}" -lt 2 ]]; then
  echo "FAIL: control ${json} reports windows=${windows:-missing}, want >= 2"
  exit 1
fi
if grep -q '"node_crashes": 0,' "${scratch}/chaos_control/${json}"; then
  echo "FAIL: a control cell crashed no node; the drill would not cover down nodes"
  exit 1
fi

down_segments=0
for ((kill = 1; kill < windows; ++kill)); do
  dir="${scratch}/chaos_w${kill}"
  mkdir -p "${dir}"
  status=0
  (cd "${dir}" &&
   env "${chaos_env[@]}" ELSC_SCALE_CKPT=ck ELSC_SCALE_CKPT_EVERY=2 \
   ELSC_SCALE_INJECT_KILL="${kill}" \
   ../../bench/federation_chaos >stdout_kill.log 2>stderr_kill.log) || status=$?
  if [[ "${status}" -ne 137 ]]; then
    echo "FAIL: chaos: kill run at window ${kill} exited ${status}, want 137 (injected kill)"
    exit 1
  fi
  if grep -Eq '^node [0-9]+ 2 ' "${dir}"/ck.*.ckpt; then
    down_segments=$((down_segments + 1))
  fi

  (cd "${dir}" &&
   env "${chaos_env[@]}" ELSC_SCALE_CKPT=ck ELSC_SCALE_CKPT_EVERY=2 \
   ../../bench/federation_chaos >stdout_resume.log 2>stderr_resume.log)
  if ! grep -q "elsc-scale: resumed from" "${dir}/stderr_resume.log"; then
    echo "FAIL: chaos: resume run after the kill at window ${kill} never restored a segment"
    exit 1
  fi
  if ! cmp -s "${dir}/${json}" "${scratch}/chaos_control/${json}"; then
    echo "FAIL: chaos: resumed ${json} (kill at window ${kill}) differs from the control"
    exit 1
  fi
done
if [[ "${down_segments}" -lt 1 ]]; then
  echo "FAIL: chaos: no kill left a segment holding a down node"
  exit 1
fi
echo "  chaos: killed at each of windows 1-$((windows - 1)), resumed, JSON byte-identical;"
echo "  ${down_segments} kill(s) left a segment holding a down node"

echo "supervised gate: green"
