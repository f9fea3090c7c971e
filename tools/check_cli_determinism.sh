#!/usr/bin/env sh
# End-to-end determinism check of run_study_cli: the thread count must not
# change a single output byte. It partitions the corpus convergences, the
# measurement-epoch shards and the per-snapshot inference, so this compares
# a 1-thread and a 4-thread run of
#   * the study:    run_study_cli --scale 1 --no-active --out csv
#                   --save-topology topo.txt
#   * the snapshot: run_study_cli snapshot --scale 1 --out image.bin
# and cmp's stdout, every CSV report, the topology and the snapshot image.
# Each run works in its own directory with identical relative output paths,
# so stdout (which names them) compares as is.
#
# Then the wire step, over the 1-thread image: a two-study
# `serve --snapshot a=IMG --snapshot b=IMG --listen 0` must answer a query
# file covering all four verbs (keys drawn from the image) byte-identically
# to `query --snapshot b=IMG`, and after SIGTERM its drain lines must carry
# every field the benchmark's drain parser reads (perfbench/run.py,
# parse_drain_stats).
#
# Registered as the `cli_determinism_check` ctest; takes the run_study_cli
# binary as $1. Takes ~15-25 s.
#
# Usage: tools/check_cli_determinism.sh build/examples/run_study_cli
set -u

bin="${1:?usage: check_cli_determinism.sh path/to/run_study_cli}"
bin=$(CDPATH= cd -- "$(dirname -- "$bin")" && pwd)/$(basename -- "$bin")
work=$(mktemp -d "${TMPDIR:-/tmp}/irp-cli-determinism.XXXXXX") || exit 1
server=""
trap '[ -n "$server" ] && kill "$server" 2>/dev/null; rm -rf "$work"' EXIT INT TERM
status=0

for threads in 1 4; do
  dir="$work/t$threads"
  mkdir -p "$dir"
  if ! (cd "$dir" &&
        "$bin" --scale 1 --threads "$threads" --no-active --out csv \
          --save-topology topo.txt > study.stdout 2>&1 &&
        "$bin" snapshot --scale 1 --threads "$threads" --out image.bin \
          > snapshot.stdout 2>&1); then
    echo "cli-determinism-check: FAIL: run at --threads $threads exited non-zero:"
    cat "$dir"/*.stdout
    exit 1
  fi
done

compared=0
for file in study.stdout snapshot.stdout topo.txt image.bin \
            $(cd "$work/t1" && ls csv/*); do
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

# -- Wire step. Keys: every 23rd announced prefix, seen from a few ASes;
# each pair the image holds a route for yields one query of every verb.
cd "$work/t1" || exit 1
awk '$1 == "pfx" && NR % 23 == 0 { for (a = 1; a <= 601; a += 150)
                                     print "routes " a " " $3 }' topo.txt \
  > probe.txt
"$bin" query --snapshot b=image.bin --queries probe.txt \
  > probe.out 2>/dev/null || { echo "cli-determinism-check: FAIL: probe query"; exit 1; }
paste -d' ' probe.txt probe.out | awk '
  $4 == "alternate_routes" && $5 ~ /^selected=\[/ {
    # "routes ASN PREFIX alternate_routes selected=[H1 .. HN] next_hop=..."
    n = 0
    for (i = 5; i <= NF && $(i - 1) !~ /\]$/; ++i) {
      hop = $i; gsub(/[^0-9]/, "", hop); path[++n] = hop
    }
    if (n < 2) next
    print "routes " $2 " " $3
    print "classify " $2 " " path[1] " " path[n] " " $3 " " n " hybrid siblings psp1"
    print "psp " path[n] " " path[n - 1] " " $3
    print "rel " $2 " " path[1]
  }' > queries.txt
for verb in routes classify psp rel; do
  if ! grep -q "^$verb " queries.txt; then
    echo "cli-determinism-check: FAIL: no '$verb' key found in the image"
    exit 1
  fi
done

"$bin" query --snapshot b=image.bin --study b --queries queries.txt \
  > local.out 2>/dev/null
"$bin" serve --snapshot a=image.bin --snapshot b=image.bin --listen 0 \
  > serve.out 2>&1 &
server=$!
port=""
tries=0
while [ -z "$port" ] && [ "$tries" -lt 300 ]; do
  port=$(sed -n 's/^oracle serving .* on [0-9.]*:\([0-9][0-9]*\) .*/\1/p' serve.out)
  [ -n "$port" ] || { sleep 0.1; tries=$((tries + 1)); }
done
if [ -z "$port" ]; then
  echo "cli-determinism-check: FAIL: serve --listen printed no port:"
  cat serve.out
  exit 1
fi
"$bin" query --connect "127.0.0.1:$port" --study b --queries queries.txt \
  > wire.out 2>/dev/null
compared=$((compared + 1))
if [ ! -s wire.out ] || ! cmp -s local.out wire.out; then
  echo "cli-determinism-check: FAIL: --connect answers differ from --snapshot"
  status=1
fi
kill -TERM "$server"
wait "$server"
server=""
for field in \
    '^# wire: .*frames_in=[0-9][0-9]*.* shed=[0-9][0-9]*.* decode_errors=[0-9][0-9]*' \
    '^# served=[0-9][0-9]*.* peak_queue=[0-9][0-9]* cache_hit_rate=[0-9.][0-9.]*$' \
    '^#   study a: .*cache_quota=[0-9][0-9]* cache_hit_rate=[0-9.][0-9.]*$' \
    '^#   study b: .*cache_quota=[0-9][0-9]* cache_hit_rate=[0-9.][0-9.]*$'; do
  if ! grep -q -- "$field" serve.out; then
    echo "cli-determinism-check: FAIL: drain output lacks /$field/:"
    cat serve.out
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "cli-determinism-check: ok ($compared files identical at --threads 1" \
       "and 4; $(wc -l < queries.txt | tr -d ' ') wire answers identical)"
fi
exit "$status"
