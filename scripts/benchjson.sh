#!/bin/sh
# benchjson.sh OUT.json — turn a `go test -json -bench` stream (stdin)
# into a machine-readable benchmark summary.
#
#   go test -run '^$' -bench 'Detector|ReplayVC' -benchmem -json . \
#       | ./scripts/benchjson.sh BENCH_detectors.json
#
# The human-readable benchmark lines are reconstructed on stdout (so the
# pipeline still reads like a normal `go test -bench` run) and OUT.json
# gets one record per result line:
#
#   {"benchmarks":[{"name":...,"iterations":...,"ns_per_op":...,
#                   "bytes_per_op":...,"allocs_per_op":...},...]}
#
# Records appear in run order, so `-count N` repetitions stay adjacent and
# feed straight into benchstat-style aggregation. POSIX sh + awk only —
# no jq, no Go helper binary.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: go test -json -bench ... | $0 OUT.json" >&2
    exit 2
fi
out=$1

awk -v out="$out" '
# Collect the Output payloads of the test2json stream in order. Each event
# is one JSON object per line; the Output field is the last field, so the
# payload is everything between "Output":" and the closing "} . JSON
# escapes that matter for bench lines are \t, \n, \" and \\ .
function unescape(s) {
    gsub(/\\t/, "\t", s)
    gsub(/\\n/, "\n", s)
    gsub(/\\"/, "\"", s)
    gsub(/\\\\/, "\\", s)
    return s
}
function flushline(line,    n, f, i, name, iters, rec) {
    if (line !~ /^Benchmark/ || line !~ /ns\/op/)
        return
    n = split(line, f, /[ \t]+/)
    name = f[1]
    iters = f[2]
    rec = sprintf("{\"name\":\"%s\",\"iterations\":%s", name, iters)
    for (i = 3; i < n; i++) {
        if (f[i + 1] == "ns/op")
            rec = rec sprintf(",\"ns_per_op\":%s", f[i])
        else if (f[i + 1] == "B/op")
            rec = rec sprintf(",\"bytes_per_op\":%s", f[i])
        else if (f[i + 1] == "allocs/op")
            rec = rec sprintf(",\"allocs_per_op\":%s", f[i])
    }
    rec = rec "}"
    records = records (nrec ? ",\n    " : "") rec
    nrec++
}
/"Output":"/ {
    payload = $0
    sub(/^.*"Output":"/, "", payload)
    sub(/"}[ \t\r]*$/, "", payload)
    buf = buf unescape(payload)
    # Emit and parse only complete lines; go test writes a benchmark name
    # and its results in separate output events on the same logical line.
    while ((i = index(buf, "\n")) > 0) {
        line = substr(buf, 1, i - 1)
        buf = substr(buf, i + 1)
        print line
        flushline(line)
    }
}
END {
    if (buf != "") {
        print buf
        flushline(buf)
    }
    printf "{\n  \"benchmarks\": [\n    %s\n  ]\n}\n", records > out
    if (nrec == 0) {
        print "benchjson: no benchmark result lines in input" | "cat >&2"
        exit 1
    }
}
' || exit 1

echo "benchjson: wrote $out"
