#!/usr/bin/env bash
# Builds webracer's benchmark from the sources of this checkout and runs
# it. Run it from the repository root; arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload detect-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, and the span files of
# traced runs. The build needs no network: the benchmark module depends
# only on the repository module, by a local replace.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOFLAGS= GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
