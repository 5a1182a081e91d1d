#!/bin/sh
# Builds the test suite with ThreadSanitizer and runs the tests that
# exercise the multithreaded execution engine (thread pool, parallel
# halo exchange, per-node fan-out, owner-computes host runs, leased run
# pools) and the serving layer (sharded plan cache, job queue, compile
# deduplication),
# oversubscribed via CMCC_THREADS so races have the best chance to
# appear. Run from anywhere:
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
cmake --build "$BUILD" -j --target parallel_executor_test pool_lease_test \
  owner_computes_test executor_test haloexchange_test service_test obs_test \
  fault_injection_test service_soak_test njit_test net_server_test net_soak_test \
  flight_recorder_test timeline_test shard_test timetile_test

for T in parallel_executor_test pool_lease_test owner_computes_test \
         executor_test haloexchange_test service_test obs_test fault_injection_test \
         service_soak_test njit_test net_server_test net_soak_test \
         flight_recorder_test timeline_test shard_test timetile_test; do
  echo "== tsan: $T (CMCC_THREADS=8) =="
  CMCC_THREADS=8 "$BUILD/tests/$T"
done
echo "tsan: all clear"
