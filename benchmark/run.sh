#!/usr/bin/env bash
# The entry point BENCHMARK.json names. Run from the repository root:
#
#   bash benchmark/run.sh --workload ingest_group --seed 1 --seconds 10 --trace 0
#
# It builds the benchmark (a module of its own that imports the repository's
# packages) into .bench_build/ and runs it. The Go build cache lives there
# too, so nothing is read or written outside the checkout except the
# toolchain itself; the first run in a checkout compiles the standard
# library (~30 s), later runs only relink what changed.
set -euo pipefail

root=$PWD
if [ ! -f "$root/benchmark/go.mod" ]; then
	echo "benchmark/run.sh: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
go build -C "$root/benchmark" -o "$build/benchmark" .
exec "$build/benchmark" -data-root "$build/data" "$@"
