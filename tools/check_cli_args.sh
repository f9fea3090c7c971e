#!/usr/bin/env sh
# CLI flag-parsing regression test: bad numeric flag values must be usage
# errors (exit 2), never silently parsed as 0 the way atoi would have it.
#
# Registered as the `cli_args_check` ctest; takes the run_study_cli binary
# as $1. Most cases below exercise a flag that was once parsed with
# atoi/atoll/strtoul — "abc" became 0, "-1" became huge, "12x" became 12 —
# and assert the checked parser rejects it before any snapshot is loaded or
# socket opened; the rest reject flag combinations that would silently do
# nothing, and flags the CLI does not have.
#
# Usage: tools/check_cli_args.sh build/examples/run_study_cli
set -u

bin="${1:?usage: check_cli_args.sh path/to/run_study_cli}"
status=0
checked=0

# The value must be rejected with the usage exit code (2), and the error
# must land on stderr, not stdout.
expect_usage() {
  desc="$1"
  shift
  out=$("$bin" "$@" 2>/dev/null)
  rc=$?
  checked=$((checked + 1))
  if [ "$rc" -ne 2 ]; then
    echo "cli-args-check: FAIL [$desc]: exit $rc, expected 2: $bin $*"
    status=1
  elif [ -n "$out" ]; then
    echo "cli-args-check: FAIL [$desc]: wrote to stdout on a usage error"
    status=1
  fi
}

# Legacy (full-study) flags.
expect_usage "legacy --seed non-numeric"    --seed abc
expect_usage "legacy --seed negative"       --seed -3
expect_usage "legacy --scale zero"          --scale 0
expect_usage "legacy --scale non-numeric"   --scale abc
expect_usage "legacy --scale trailing junk" --scale 12x
expect_usage "legacy --threads non-numeric" --threads abc
expect_usage "legacy --threads negative"    --threads -1
expect_usage "legacy --threads over range"  --threads 1000000

# snapshot shares the checked study flags.
expect_usage "snapshot --scale exponent"    snapshot --out /dev/null --scale 1e3
expect_usage "snapshot --threads float"     snapshot --out /dev/null --threads 2.0

# serve: wire and cache flags (parsed before any snapshot is loaded).
expect_usage "serve --listen over 65535"    serve --snapshot x --listen 70000
expect_usage "serve --listen non-numeric"   serve --snapshot x --listen http
expect_usage "serve --cache-budget junk"    serve --snapshot x --cache-budget abc
expect_usage "serve bad snapshot spec"      serve --snapshot =
expect_usage "serve empty snapshot name"    serve --snapshot =file

# serve --listen answers wire requests only; a --queries file would be
# silently ignored there, so the combination is a usage error.
expect_usage "serve --listen with --queries" serve --snapshot x --listen 0 --queries q

# query: the --connect port (parsed before any socket is opened).
expect_usage "query --connect port zero"    query --connect 127.0.0.1:0
expect_usage "query --connect port junk"    query --connect 127.0.0.1:x
expect_usage "query --connect port range"   query --connect 127.0.0.1:99999

# Unknown flags stay usage errors everywhere.
expect_usage "legacy unknown flag"          --bogus
expect_usage "serve unknown flag"           serve --snapshot x --bogus
# serve has no worker pool or queue to size.
expect_usage "serve --workers is unknown"   serve --snapshot x --workers 2
expect_usage "serve --queue is unknown"     serve --snapshot x --queue 8

# Sanity: a valid invocation must NOT exit 2 (it exits 1: missing file).
"$bin" query --snapshot /nonexistent.snap </dev/null >/dev/null 2>&1
rc=$?
checked=$((checked + 1))
if [ "$rc" -ne 1 ]; then
  echo "cli-args-check: FAIL [valid flags reach the loader]: exit $rc, expected 1"
  status=1
fi
"$bin" serve --snapshot /nonexistent.snap --listen 0 >/dev/null 2>&1
rc=$?
checked=$((checked + 1))
if [ "$rc" -ne 1 ]; then
  echo "cli-args-check: FAIL [serve --listen flags reach the loader]: exit $rc, expected 1"
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "cli-args-check: ok ($checked cases)"
fi
exit "$status"
