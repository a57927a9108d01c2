#!/usr/bin/env bash
# Builds logpservd, logpsched, logpconform, the benchmark and its host-speed
# reference program perfcal from this checkout's sources, then runs the benchmark with the arguments given:
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays under
# .bench_build/ (the Go build cache included); the first run compiles the
# standard library into that cache.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/logpservd || ! -f perfbench/go.mod ]]; then
	echo "perfbench/run.sh: run from the repository root (needs go.mod, cmd/ and perfbench/)" >&2
	exit 2
fi
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR" "$out/bin"
go build -o "$out/bin/" ./cmd/logpservd ./cmd/logpsched ./cmd/logpconform
go -C perfbench build -o "$out/bin/perfbench" .
go -C perfbench build -o "$out/bin/perfcal" ./perfcal
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/run" "$@"
