#!/usr/bin/env bash
# Builds the benchmark from source in the current checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload kernel-large --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, temp files, graph
# and job stores and span dumps all stay under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
