# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet test chaos cluster predictive sampled prune obs docs linkcheck bench bench-all benchcmp allocs examples experiments outputs clean

# Repetitions for the detector benchmarks; raise for benchstat-grade noise
# bounds (e.g. `make bench BENCH_COUNT=10`).
BENCH_COUNT ?= 5

all: build vet test obs docs linkcheck cluster prune examples

build:
	go build ./...

# gofmt gate: any unformatted file fails vet (and so test and all).
# perfbench is its own module, so `./...` at the root neither builds nor
# vets it; it calls the exported serve and store API, so it is built and
# vetted here too.
vet:
	go vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l: unformatted files:"; echo "$$out"; exit 1; fi
	cd perfbench && go build ./... && go vet ./...

# -race: the detector hunts web races while racing its own sharded
# sweeps; the engine must be race-clean under the Go race detector.
test: vet
	go test -race ./...

# Deterministic chaos battery under the Go race detector: fault sweeps
# (worker-count determinism, fault-exposed races, panic/timeout
# degradation), degraded seed and delay-one sweeps (library and
# webracerd), injector unit tests, XHR error paths and the pinned
# fault-sweep golden — the robustness surface in one command.
chaos:
	go test -race -run 'TestFault|TestGoldenFaultSweep|TestXHR|TestSweepDegraded' . ./internal/fault/ ./internal/browser/ ./internal/serve/
	go run ./cmd/experiments -faults

# Service-level chaos battery under the Go race detector: boots a
# 3-backend + router topology in-process, kills a backend mid-sweep,
# corrupts 10% of the persisted store entries, and asserts byte-identical
# results vs a healthy single node with zero 5xx and golden-pinned
# retry/quarantine counters (internal/serve/testdata/golden/). The store
# crash-recovery battery, the router/persistence tests (the integrity
# gate's answer digest and its GET /v1/jobs check among them), the
# request memo's tests, the FuzzServeKey seed
# corpus (a repeat answered from its bytes must equal the decode path's
# answer; two bodies with one key must run to the same bytes), the job
# poll tests (TestJobAnswer*: the topology differential replaying one
# request sequence against a node, a store node, its restart and routers
# over 1 and 3 backends with and without chaos, every body a fresh
# node's; the job-history heap bound), and the load replay (2000
# concurrent requests through the router at backend workers 1 and 4,
# every answer byte-identical to its cold bytes, endpoint and cache-level
# counts pinned) ride along.
cluster:
	go test -race -run 'TestChaos|TestRouter|TestStore|TestRequestBodyLimit|TestRetryAfter|TestMemo|FuzzServeKey|TestJobAnswer|TestClusterLoadByteIdentical' ./internal/serve/
	go test -race ./internal/store/

# Predictive-detection battery under the Go race detector: the
# sweep-recovery differential (32-seed ground truth vs one predictive
# trace, recall floor and soundness pinned as goldens), the witness
# corruption/replay tests, the predictive differential containments, the
# hb/race unit layers, and a short run of the end-to-end soundness
# fuzzer. The E10 table reprints the recall numbers.
predictive:
	go test -race -run 'TestPredictive|TestWitness|TestDifferential' . ./internal/hb/ ./internal/race/
	go test -run '^$$' -fuzz FuzzPredictiveSound -fuzztime 30s .
	go run ./cmd/experiments -predictive

# Sampled-tier battery under the Go race detector: the rate-1 exactness
# and subset/monotonicity unit layer, the shadow-table oracle battery
# (the sampled core query for query against the exact map-based detector
# on admitted locations, and its tier counters against the
# certificate-free reference), the corpus differential (subset at every
# rate, byte identity at rate 1), worker-count determinism, the
# escalation contract, the replay escalation against direct exact runs
# (including a run cut short by a safety bound), the live-clock log
# replay and the chunked trace recorder it rests on, the tiering API
# validation tests, the serve-layer tier tests (capability endpoint,
# default tier, cache cross-population, no caching of interrupted
# escalations), and the pinned sampled metrics golden. The E11 table
# reprints the cost/recall trade.
sampled:
	go test -race -run 'TestSampled|TestSampledReplayEscalation|TestSampledEscalationInterrupted|TestDifferentialSampled|TestConfigValidate|TestDetectorKindRoundTrip|TestRunPanics|TestGoldenMetricsSampled|TestShadowMatchesMapOracles|TestRecorder|TestLiveClocksLogReplay' . ./internal/race/ ./internal/hb/
	go test -race -run 'TestSampled|TestDetectors|TestEscalation|TestEscalationInterruptedNotCached|TestDefaultDetector' ./internal/serve/
	go run ./cmd/experiments -sampled

# Schedule-pruning battery under the Go race detector: the pruned-vs-
# unpruned differential (byte-identical sweeps at workers 1 vs 4 across
# the sched/fault/stress corpora, all five detectors with the pairwise
# sweep's classes, filters and fault plans), the fingerprint's
# invariance layer and its partition differentials against the
# DAG-canonicalizer oracle, the class-accounting unit tests, the
# serve-layer prune tests, the degraded-sweep tests (one report, pruned
# or not), and the pinned explore.classes.* golden; then one iteration
# of the pruning benchmarks and a short run of the partition fuzzer. The
# E12 table reprints the class and repeat counts.
prune:
	go test -race -run 'TestPrune|TestFingerprint|TestClassSet|TestClassStats|TestGoldenMetricsPrune|TestSweepDegraded' . ./internal/canon/ ./internal/explore/ ./internal/serve/
	go test -run '^$$' -bench 'Fingerprint|SeedSweep' -benchtime 1x .
	go test -run '^$$' -fuzz FuzzCanonicalFingerprint -fuzztime 30s ./internal/canon/
	go run ./cmd/experiments -prune

# Telemetry determinism gate: regenerate the golden-site metrics
# snapshots with `experiments -obs` and byte-compare them against the
# pinned goldens (testdata/golden/metrics-*.json). Drift means the
# counters moved — update deliberately with
# `go test -run TestGoldenMetrics -update .`.
obs:
	./scripts/metricsdiff.sh

# Godoc coverage gate: every exported identifier in the documented
# surface (root package, serve, store, obs, fault, canon, explore) must
# carry a doc comment. scripts/checkdocs is a tiny go/ast walker —
# presence only, wording is review's job.
docs:
	go run ./scripts/checkdocs . internal/serve internal/store internal/obs internal/fault internal/canon internal/explore

# Documentation rot gate: every relative markdown link and backticked
# `*.go` reference in the repo's *.md files must resolve to a real file.
linkcheck:
	go run ./scripts/checklinks

# Where `make bench` writes its machine-readable summary.
BENCH_OUT ?= BENCH_detectors.json

# The detector/replay benchmarks (the E4 graph and epoch arms, the E11
# sampled-tier arms and the per-run floor), repeated BENCH_COUNT times so
# scripts/benchcmp.sh can bound the noise. The -json stream is rendered
# back to the usual text on stdout while scripts/benchjson.sh distills it
# into machine-readable $(BENCH_OUT).
bench:
	go test -run '^$$' -bench 'Detector|ReplayVC' -benchmem -count $(BENCH_COUNT) -json . | ./scripts/benchjson.sh $(BENCH_OUT)

# Every benchmark in the repo, single pass.
bench-all:
	go test -bench=. -benchmem ./...

# Compare two saved benchmark outputs (benchstat when available).
benchcmp:
	./scripts/benchcmp.sh $(OLD) $(NEW)

# Bytes per cold run by the layer that allocated them (internal/hb, op,
# js, browser, race, html, root): BenchmarkDetectorRunCorpusCold under a
# full-rate memory profile, one run on each of its 400 corpus pages.
allocs:
	./scripts/allocs.sh

examples: build
	go run ./examples/quickstart
	go run ./examples/papergallery
	go run ./examples/explorer
	go run ./examples/fortune100 -sites 10
	go run ./examples/doctor
	go run ./examples/cigate

# Regenerate every paper artifact (Tables 1-2, perf, ablation).
experiments:
	go run ./cmd/experiments

# The archived outputs referenced from EXPERIMENTS.md.
outputs:
	go test ./... 2>&1 | tee test_output.txt
	go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	rm -f test_output.txt bench_output.txt
