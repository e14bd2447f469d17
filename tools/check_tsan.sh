#!/bin/sh
# Builds the test suite with ThreadSanitizer and runs the tests that
# exercise the multithreaded execution engine (thread pool, per-node
# fan-out, pooled compute reading halo margins the exchange wrote in
# place, the partitioned exchange with one thread per node-grid block
# meeting at a LocalTransport), the serving layer (lock-striped plan
# cache, job queue, compile deduplication) and the on-disk record store
# (concurrent same-key writers and readers), oversubscribed via
# CMCC_THREADS so races have the best chance to appear. Run from
# anywhere:
#
#   tools/check_tsan.sh [build-dir]
#
# A separate build tree is used; the normal build/ is untouched.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD=${1:-"$ROOT/build-tsan"}

cmake -B "$BUILD" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-fsanitize=thread
cmake --build "$BUILD" -j --target parallel_executor_test executor_test \
  haloexchange_test service_test obs_test fault_injection_test \
  service_soak_test njit_test net_server_test net_soak_test \
  flight_recorder_test timeline_test timetile_test \
  diskstore_test runtime_test

for T in parallel_executor_test executor_test haloexchange_test \
         service_test obs_test fault_injection_test service_soak_test \
         njit_test net_server_test net_soak_test \
         flight_recorder_test timeline_test timetile_test \
         diskstore_test runtime_test; do
  echo "== tsan: $T (CMCC_THREADS=8) =="
  CMCC_THREADS=8 "$BUILD/tests/$T"
done
echo "tsan: all clear"
