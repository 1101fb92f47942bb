#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it, passing all
# arguments through. Run from the repository root:
#
#   bash perfbench/run.sh --workload exp1 --seed 42 --seconds 10 --trace 0
#
# The build cache and binary live in .bench_build/ inside the checkout.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$out/perfbench" .)
commit=unknown
if [ -e .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
PERFBENCH_COMMIT=$commit exec "$out/perfbench" "$@"
