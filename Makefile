# Tier-1 verification for the repo (see ROADMAP.md). `make verify` is what
# CI and pre-merge checks should run.

GO ?= go

.PHONY: all build test vet fmtcheck lint lintselftest race traceguard verify figures calibrate bench benchsmoke benchcheck jobscheck topocheck pdescheck congestioncheck breakdowncheck tracetoolcheck simdcheck resultscheck loc clean

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmtcheck fails when any Go file in the tree (simbench included) is not
# gofmt-formatted, and lists the offenders.
fmtcheck:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

# simlint mechanically enforces the determinism contract (virtual time only,
# no map-order dependence, no ad-hoc concurrency, unit-carrying durations,
# constant trace/metric names) plus the interprocedural shard-safety and
# zero-alloc contracts (sharedstate, noalloc, seedrand) and reports stale
# allow directives. See docs/static-analysis.md.
lint:
	$(GO) run ./cmd/simlint ./...

# lintselftest runs the analyzer toolchain's own tests — the testdata-driven
# analyzer suites, the runner's stale-directive test and the allow-directive
# budget — under the race detector (analyzers must be safe to parallelize
# per package later; -race keeps them honest now).
lintselftest:
	$(GO) test -race ./internal/lint/...

# The simulation engine, the metrics registry, and the MPI layer are
# single-threaded by design; the race detector proves the tests don't
# violate that. internal/parallel is the opposite — deliberately
# concurrent — so its pool tests run under the race detector too.
race:
	$(GO) test -race ./internal/sim/... ./internal/metrics/... ./internal/mpi/... ./internal/parallel/... ./internal/bench/...

# Guard the zero-cost-when-disabled contract of the tracer: recording
# against a nil tracer must not allocate (see internal/trace).
traceguard:
	$(GO) test -run TestTraceOverhead ./internal/trace/...

verify: build fmtcheck test vet lint lintselftest race traceguard calibrate

figures:
	$(GO) run ./cmd/figures

# The 20 paper anchors double as the regression net for every model change:
# calibrate exits non-zero when any headline number drifts outside its
# tolerance, so it is part of the tier-1 gate.
calibrate:
	$(GO) run ./cmd/calibrate

# bench runs the repository benchmark (simbench: every workload, the
# per-layer CPU shares, the work counters and the engine microbenchmarks)
# and refreshes BENCH_engine.json, which names the host it ran on (see
# docs/performance.md).
bench:
	bash simbench/run.sh -out BENCH_engine.json

# benchsmoke is the CI-sized version: one iteration of every engine
# microbenchmark, no figure sweeps — it proves the benchmarks still compile
# and run, not how fast they are.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/sim/

# benchcheck gates the benchmark's build. simbench is a Go module of its
# own that calls exported hooks of repro/internal/..., so the root build,
# vet and tests never compile it: a change to one of those hooks would only
# break at benchmark time. This runs simbench's vet and tests, then its
# pre-merge smoke (two traced runs of the degraded workload must pass every
# output check and agree on every exact counter; under a minute).
benchcheck:
	cd simbench && $(GO) vet ./... && $(GO) test ./...
	bash simbench/run.sh -check

# jobscheck proves the parallel runner's determinism contract end to end:
# a thinned full-catalogue figure run at -j 1 and at -j 8 must emit
# byte-identical output.
jobscheck:
	$(GO) build -o /tmp/repro-figures ./cmd/figures
	/tmp/repro-figures -scale 4 -j 1 > /tmp/repro-figures-j1.txt
	/tmp/repro-figures -scale 4 -j 8 > /tmp/repro-figures-j8.txt
	cmp /tmp/repro-figures-j1.txt /tmp/repro-figures-j8.txt

# topocheck smoke-tests the multi-switch topology family: a thinned
# leaf-spine run must succeed and — because ECMP hashing, trunk queueing,
# and lazy QP wiring all feed the same virtual clock — stay byte-identical
# between a serial and a parallel run.
topocheck:
	$(GO) build -o /tmp/repro-figures ./cmd/figures
	/tmp/repro-figures -only topo -scale 2 -j 1 > /tmp/repro-topo-j1.txt
	/tmp/repro-figures -only topo -scale 2 -j 8 > /tmp/repro-topo-j8.txt
	cmp /tmp/repro-topo-j1.txt /tmp/repro-topo-j8.txt

# pdescheck gates the conservative parallel (sharded) runtime: the topo
# family run on one engine (-shards 0 and -shards 1, which must agree) and
# with every world split across 8 shard engines must emit byte-identical
# tables, and the sharded binary is built with -race so the barrier
# protocol's happens-before claims are machine-checked on every CI run, not
# just argued in comments.
pdescheck:
	$(GO) build -race -o /tmp/repro-figures-race ./cmd/figures
	/tmp/repro-figures-race -only topo -scale 2 -j 1 -shards 0 > /tmp/repro-topo-s0.txt
	/tmp/repro-figures-race -only topo -scale 2 -j 1 -shards 1 > /tmp/repro-topo-s1.txt
	/tmp/repro-figures-race -only topo -scale 2 -j 1 -shards 8 > /tmp/repro-topo-s8.txt
	cmp /tmp/repro-topo-s0.txt /tmp/repro-topo-s1.txt
	cmp /tmp/repro-topo-s1.txt /tmp/repro-topo-s8.txt

# congestioncheck gates the congestion-control family: bounded queues, ECN
# echoes, DCQCN pacing, VL credits, uplink throttling and the background
# aggressors all keep per-shard state, so the loaded figure grid run on one
# engine (-shards 0 and -shards 1) and with every world split across 8 shard
# engines must emit byte-identical tables — under -race, like pdescheck, so
# the merge paths are also machine-checked for data races.
congestioncheck:
	$(GO) build -race -o /tmp/repro-figures-race ./cmd/figures
	/tmp/repro-figures-race -only congestion -scale 2 -j 1 -shards 0 > /tmp/repro-congestion-s0.txt
	/tmp/repro-figures-race -only congestion -scale 2 -j 1 -shards 1 > /tmp/repro-congestion-s1.txt
	/tmp/repro-figures-race -only congestion -scale 2 -j 1 -shards 8 > /tmp/repro-congestion-s8.txt
	cmp /tmp/repro-congestion-s0.txt /tmp/repro-congestion-s1.txt
	cmp /tmp/repro-congestion-s1.txt /tmp/repro-congestion-s8.txt

# breakdowncheck covers the latency-attribution family: causal tracing and
# blame run inside every breakdown world, so a serial and a parallel run of
# the family must emit byte-identical tables.
breakdowncheck:
	$(GO) build -o /tmp/repro-figures ./cmd/figures
	/tmp/repro-figures -only breakdown -scale 2 -j 1 > /tmp/repro-breakdown-j1.txt
	/tmp/repro-figures -only breakdown -scale 2 -j 8 > /tmp/repro-breakdown-j8.txt
	cmp /tmp/repro-breakdown-j1.txt /tmp/repro-breakdown-j8.txt

# resultscheck gates the committed results byte for byte: it regenerates
# the full figure catalogue (tables and one CSV per figure) and the
# calibration table into a temp dir and cmps every file of results/ against
# its regenerated copy. A model change that moves any committed number
# fails here until results/ is regenerated in the same change.
resultscheck:
	@set -e; tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/figures" ./cmd/figures; \
	$(GO) build -o "$$tmp/calibrate" ./cmd/calibrate; \
	mkdir "$$tmp/out"; \
	"$$tmp/figures" -j 2 -csv "$$tmp/out" > "$$tmp/out/figures.txt"; \
	"$$tmp/calibrate" > "$$tmp/out/calibrate.txt"; \
	for f in results/*; do cmp "$$f" "$$tmp/out/$${f#results/}"; done; \
	echo "resultscheck: $$(ls results | wc -l) files match results/"

# simdcheck exercises the simulation-as-a-service job server end to end over
# real loopback HTTP: boot the server against a throwaway cache, submit a
# small spec twice — the second with scrambled field order and whitespace —
# and require the repeat to be served from the cache byte-identically
# (store counters: exactly one miss, one hit), then cancel a queued job and
# prove the job ahead of it is unaffected. See docs/simd.md.
simdcheck:
	$(GO) build -o /tmp/repro-simd ./cmd/simd
	/tmp/repro-simd -check

# tracetoolcheck exercises the offline tracing pipeline end to end: capture
# JSONL traces from netbench, reconstruct the causal DAG, and run every
# tracetool subcommand. blame exits non-zero unless the attribution buckets
# tile the blame window exactly, so this smoke also asserts the bucket-sum
# invariant on real traces.
tracetoolcheck:
	$(GO) build -o /tmp/repro-netbench ./cmd/netbench
	$(GO) build -o /tmp/repro-tracetool ./cmd/tracetool
	/tmp/repro-netbench -net iwarp -test latency -size 1024 -tracejsonl /tmp/repro-iwarp.jsonl > /dev/null
	/tmp/repro-netbench -net ib -test latency -size 1024 -tracejsonl /tmp/repro-ib.jsonl > /dev/null
	/tmp/repro-tracetool crit /tmp/repro-iwarp.jsonl > /dev/null
	/tmp/repro-tracetool blame /tmp/repro-iwarp.jsonl
	/tmp/repro-tracetool blame /tmp/repro-ib.jsonl
	/tmp/repro-tracetool diff /tmp/repro-iwarp.jsonl /tmp/repro-ib.jsonl > /dev/null

# loc prints the root module's Go line counts, non-test and test, without
# simbench/ (a module of its own) and testdata/ (analyzer fixtures): the two
# numbers a change's net Go line delta is taken from.
GOSRC = find . -name '*.go' -not -path './simbench/*' -not -path '*/testdata/*'
loc:
	@echo "non-test Go lines: $$($(GOSRC) -not -name '*_test.go' -exec cat {} + | wc -l)"
	@echo "test Go lines:     $$($(GOSRC) -name '*_test.go' -exec cat {} + | wc -l)"

clean:
	$(GO) clean ./...
