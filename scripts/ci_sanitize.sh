#!/usr/bin/env bash
# Sanitizer gate for the chaos and storage suites: builds the tree twice
# (TSan, ASan+UBSan) and runs every chaos- or storage-labelled test
# (`ctest -L 'chaos|storage'`) under each. The chaos tests hammer the
# fault-injection paths — recoverable-assert unwinding, CPU stall/rejoin,
# the auditor's pick observer — which is exactly where a latent race or
# lifetime bug would hide. They include the federation's tests (scale,
# scale_fuzz, federation, checkpoint): 2 to 4 worker threads claim nodes
# from one shared cursor every window, so a node meets a different thread
# from one window to the next. The storage tests cover the code that
# placement-news objects into byte buffers (task arena slots, the
# InlineFunction storage of predicates and event callbacks, event slots and
# the engine tests that build closures in them and cancel events from inside
# handlers, socket rings) or
# builds objects inside a shared record (a Volano connection's four sockets
# and four thread behaviors, run by the Volano and footprint tests), where a
# misaligned or double-destroyed object would hide, and every scheduler's
# bookkeeping of the one run-queue slot a Task carries (Task::rq_slot: the
# stock scan lanes' encoded lane and index, swap-pop, lane moves, stamp
# renumbering and held slots, the heap's swap-pop, O(1)'s encoded list
# index, ELSC's and the multiqueue's list index), where a stale slot index
# would hide.
#
#   usage: scripts/ci_sanitize.sh [thread|address|all]   (default: all)
#
# Build trees land in build-tsan/ and build-asan/ next to the source so the
# default build/ stays untouched. Documented in docs/HARNESS.md.

set -euo pipefail
cd "$(dirname "$0")/.."

jobs="${ELSC_BUILD_JOBS:-2}"
mode="${1:-all}"

run_one() {
  local sanitizer="$1" dir="$2"
  echo "=== ${sanitizer} sanitizer: configure + build (${dir}) ==="
  cmake -B "${dir}" -S . -DELSC_SANITIZE="${sanitizer}" >/dev/null
  cmake --build "${dir}" -j "${jobs}"
  echo "=== ${sanitizer} sanitizer: ctest -L 'chaos|storage' ==="
  ctest --test-dir "${dir}" -L 'chaos|storage' --output-on-failure -j "${jobs}"
}

case "${mode}" in
  thread)  run_one thread build-tsan ;;
  address) run_one address build-asan ;;
  all)     run_one thread build-tsan
           run_one address build-asan ;;
  *) echo "usage: $0 [thread|address|all]" >&2; exit 2 ;;
esac

echo "sanitize gate: green"
