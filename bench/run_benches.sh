#!/usr/bin/env sh
# Builds (if needed) and runs the benchmark suite, collecting the BENCH_*.json
# perf-regression baselines the benches emit into the repo root so they can be
# diffed/committed alongside the change that moved them.
#
# Usage:
#   bench/run_benches.sh                 # run every bench
#   bench/run_benches.sh engine_hotpath  # run benches matching a substring
#
# Environment:
#   BUILD_DIR  build tree to use (default: build)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${BUILD_DIR:-"$repo_root/build"}
filter=${1:-}

if [ ! -f "$build_dir/CMakeCache.txt" ]; then
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$build_dir" -j

# Benches write their BENCH_*.json into the cwd; run from the repo root so
# the recorded baselines land next to the sources that own them.
cd "$repo_root"
status=0
for bench in "$build_dir"/bench/bench_*; do
  [ -x "$bench" ] || continue
  case $(basename "$bench") in
    *"$filter"*) ;;
    *) continue ;;
  esac
  printf '\n=== %s ===\n' "$(basename "$bench")"
  # taskset pins to one core when available: wall-clock comparisons inside a
  # bench (engine vs baseline) are much less noisy on a single CPU.
  if command -v taskset >/dev/null 2>&1; then
    taskset -c 0 "$bench" || status=$?
  else
    "$bench" || status=$?
  fi
done

printf '\nRecorded baselines:\n'
ls -l "$repo_root"/BENCH_*.json 2>/dev/null || echo '  (none emitted)'

# Every emitted baseline must be well-formed JSON — a malformed file would
# poison later perf diffs silently.
if command -v python3 >/dev/null 2>&1; then
  for json in "$repo_root"/BENCH_*.json; do
    [ -f "$json" ] || continue
    if python3 -m json.tool "$json" >/dev/null 2>&1; then
      printf 'json ok: %s\n' "$(basename "$json")"
    else
      printf 'MALFORMED JSON: %s\n' "$json"
      status=1
    fi
  done
fi

# The docs must describe the tree that produced these numbers.
printf '\n'
"$repo_root/tools/check_docs.sh" || status=$?
exit "$status"
