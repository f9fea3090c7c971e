#!/usr/bin/env sh
# Runs a gtest binary many times over while a CPU burner occupies every
# core. A loaded machine reorders threads in ways an idle one hides, which
# is what exposes races such as a counter bumped after the effect it counts
# is already visible to a client.
#
# Built as the `stress` CMake target (not a ctest test, so the tier-1 run
# is unchanged):
#   cmake --build build --target stress
# or directly:
#   tools/stress.sh build/tests/test_oracle_server [REPEAT]   (default 20)
set -u

bin="${1:?usage: stress.sh path/to/test_binary [repeat]}"
repeat="${2:-20}"
cores=$(nproc 2>/dev/null || echo 1)

burners=""
trap 'kill $burners 2>/dev/null' EXIT INT TERM
i=0
while [ "$i" -lt "$cores" ]; do
  sh -c 'while :; do :; done' &
  burners="$burners $!"
  i=$((i + 1))
done

echo "stress: $bin x$repeat with $cores CPU burner(s)"
"$bin" --gtest_repeat="$repeat"
