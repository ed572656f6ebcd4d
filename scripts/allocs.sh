#!/bin/sh
# allocs.sh — bytes allocated per cold run, by the layer that allocated them.
#
#   ./scripts/allocs.sh            # or: make allocs
#
# Runs BenchmarkDetectorRunCorpusCold for exactly 400 runs, one cold
# RunConfig on each of its 400 corpus pages, so every profile covers the
# same page mix and tables from different changes compare. The run takes
# a memory profile at full sampling; the script then charges every
# allocated byte to the innermost webracer frame of its stack and prints
# bytes per run for each package: internal/hb, op, js, browser, race,
# html, the root package, and the rest. Runtime and standard-library
# frames are charged to the webracer code that called them; bytes the
# benchmark spends outside RunConfig (generating the pages) are left
# out. Profile and test binary live in a temporary directory that is
# removed on exit.
set -eu

runs=400
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

cd "$(dirname "$0")/.."
go test -run '^$' -bench '^BenchmarkDetectorRunCorpusCold$' -benchmem \
    -benchtime "${runs}x" -memprofile "$tmp/mem.out" -memprofilerate 1 \
    -o "$tmp/webracer.test" . >"$tmp/bench.txt"
grep '^BenchmarkDetectorRunCorpusCold' "$tmp/bench.txt"

go tool pprof -sample_index=alloc_space -traces "$tmp/webracer.test" "$tmp/mem.out" 2>/dev/null |
    awk -v runs="$runs" '
function bytes(s,    n, u) {
    n = s + 0
    u = s
    sub(/^[0-9.]+/, "", u)
    if (u == "kB") return n * 1024
    if (u == "MB") return n * 1024 * 1024
    if (u == "GB") return n * 1024 * 1024 * 1024
    return n
}
function layer(fn) {
    if (fn ~ /^webracer\/internal\/hb\./) return "internal/hb"
    if (fn ~ /^webracer\/internal\/op\./) return "op"
    if (fn ~ /^webracer\/internal\/js\./) return "js"
    if (fn ~ /^webracer\/internal\/browser\./) return "browser"
    if (fn ~ /^webracer\/internal\/race\./) return "race"
    if (fn ~ /^webracer\/internal\/html\./) return "html"
    if (fn ~ /^webracer\.[A-Za-z(]/ && fn !~ /^webracer\.Benchmark/) return "root"
    return ""
}
function flush() {
    if (cur > 0 && inrun) {
        sum[who == "" ? "other" : who] += cur
        total += cur
    }
    cur = 0; who = ""; found = 0; inrun = 0
}
/^-+\+/ { flush(); next }
/bytes:/ { next }
{
    # The first line of a sample carries its size ahead of the leaf frame.
    if ($1 ~ /^[0-9.]+(B|kB|MB|GB)$/) { flush(); cur = bytes($1); fn = $2 } else fn = $1
    if (fn == "webracer.RunConfig") inrun = 1
    if (found || cur == 0) next
    if (fn ~ /^webracer[\/.]/ && fn !~ /^webracer\.Benchmark/) {
        who = layer(fn); found = 1
    }
}
END {
    flush()
    n = split("internal/hb op js browser race html root other", order, " ")
    printf "%-12s %10s %7s\n", "layer", "B/run", "share"
    for (i = 1; i <= n; i++)
        printf "%-12s %10.0f %6.1f%%\n", order[i], sum[order[i]] / runs, total ? 100 * sum[order[i]] / total : 0
    printf "%-12s %10.0f\n", "total", total / runs
}'
