#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload weak-rd --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the binary and the traced runs' span files all go to
# .bench_build at the checkout's root, so nothing is written outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/spans"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOENV=off \
	GOTELEMETRY=off XDG_CONFIG_HOME="$out/config" GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@" -spans-dir "$out/spans"
