#!/bin/sh
# Builds the runtime, backend, shard, serving and wire-codec tests with
# AddressSanitizer and UndefinedBehaviorSanitizer and runs them. Subgrids
# live inside halo margins and every reader walks them by row pitch, so
# a pitch or offset mistake at a subgrid edge shows up here as an
# overrun; the codec suites feed hostile bytes to every decoder and to
# both CRC32C implementations. Run from anywhere:
#
#   tools/check_asan.sh [build-dir]
#
# A separate build tree is used; the normal build/ is untouched.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD=${1:-"$ROOT/build-asan"}
TESTS="haloexchange_test owner_computes_test runtime_test executor_test \
backend_equivalence_test timetile_test shard_test pool_lease_test \
net_server_test net_protocol_test crc32c_test"

cmake -B "$BUILD" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  "-DCMAKE_CXX_FLAGS=-fsanitize=address,undefined -fno-sanitize-recover=undefined -fno-omit-frame-pointer -D_GLIBCXX_ASSERTIONS"
# shellcheck disable=SC2086
cmake --build "$BUILD" -j --target $TESTS cmcc_shard_worker

export ASAN_OPTIONS=detect_leaks=1:abort_on_error=1
export UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1
for T in $TESTS; do
  echo "== asan/ubsan: $T =="
  "$BUILD/tests/$T"
done
echo "asan/ubsan: all clear"
