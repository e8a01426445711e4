#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-k8 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# working tree: the binary, the Go build cache, allocd state directories,
# traces, results and the determinism ledger.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a fragalloc checkout (go.mod, internal/ and perfbench/ not found)" >&2
	exit 2
fi
out=.bench_build
mkdir -p "$out/gocache" "$out/tmp"
root=$(pwd)
GOCACHE="$root/$out/gocache" GOTMPDIR="$root/$out/tmp" GOTOOLCHAIN=local \
	go build -C perfbench -o "$root/$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
