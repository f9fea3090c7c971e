#!/usr/bin/env sh
# End-to-end determinism check of run_study_cli: the thread count must not
# change a single output byte. It partitions the corpus convergences, the
# measurement-epoch shards and the per-snapshot inference, so this compares
# a 1-thread and a 4-thread run of
#   * the study:    run_study_cli --scale 1 --no-active --out csv
#   * the snapshot: run_study_cli snapshot --scale 1 --out image.bin
# and cmp's stdout, every CSV report and the snapshot image. Each run works
# in its own directory with identical relative output paths, so stdout
# (which names them) compares as is.
#
# Registered as the `cli_determinism_check` ctest; takes the run_study_cli
# binary as $1. Takes ~15-25 s.
#
# Usage: tools/check_cli_determinism.sh build/examples/run_study_cli
set -u

bin="${1:?usage: check_cli_determinism.sh path/to/run_study_cli}"
bin=$(CDPATH= cd -- "$(dirname -- "$bin")" && pwd)/$(basename -- "$bin")
work=$(mktemp -d "${TMPDIR:-/tmp}/irp-cli-determinism.XXXXXX") || exit 1
trap 'rm -rf "$work"' EXIT INT TERM
status=0

for threads in 1 4; do
  dir="$work/t$threads"
  mkdir -p "$dir"
  if ! (cd "$dir" &&
        "$bin" --scale 1 --threads "$threads" --no-active --out csv \
          > study.stdout 2>&1 &&
        "$bin" snapshot --scale 1 --threads "$threads" --out image.bin \
          > snapshot.stdout 2>&1); then
    echo "cli-determinism-check: FAIL: run at --threads $threads exited non-zero:"
    cat "$dir"/*.stdout
    exit 1
  fi
done

compared=0
for file in study.stdout snapshot.stdout image.bin $(cd "$work/t1" && ls csv/*); do
  compared=$((compared + 1))
  if ! cmp -s "$work/t1/$file" "$work/t4/$file"; then
    echo "cli-determinism-check: FAIL: $file differs between --threads 1 and 4"
    status=1
  fi
done
if [ "$(cd "$work/t1" && ls csv)" != "$(cd "$work/t4" && ls csv)" ]; then
  echo "cli-determinism-check: FAIL: the runs wrote different CSV file sets"
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "cli-determinism-check: ok ($compared files identical at --threads 1 and 4)"
fi
exit "$status"
