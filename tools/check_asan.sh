#!/bin/sh
# Builds the test suite with AddressSanitizer and UndefinedBehaviorSanitizer
# and runs the tests that allocate and free job records, connections and
# wire buffers across threads: the service's job table (a job's record is
# freed when wait() collects it), the network server's job and connection
# bookkeeping, the wire codecs (whose grid views point into the server's
# read buffer), the subgrid row copies, and the thread pool.
# Oversubscribed via CMCC_THREADS like check_tsan.sh. Run from anywhere:
#
#   tools/check_asan.sh [build-dir]
#
# A separate build tree is used; the normal build/ is untouched.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD=${1:-"$ROOT/build-asan"}
TESTS="service_test timeline_test service_soak_test net_server_test \
net_soak_test net_protocol_test runtime_test parallel_executor_test"

cmake -B "$BUILD" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  "-DCMAKE_CXX_FLAGS=-fsanitize=address,undefined -fno-sanitize-recover=undefined -fno-omit-frame-pointer -D_GLIBCXX_ASSERTIONS"
# shellcheck disable=SC2086
cmake --build "$BUILD" -j 4 --target $TESTS

for T in $TESTS; do
  echo "== asan+ubsan: $T (CMCC_THREADS=8) =="
  CMCC_THREADS=8 ASAN_OPTIONS=detect_leaks=1 "$BUILD/tests/$T"
done
echo "asan: all clear"
