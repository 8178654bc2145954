GO ?= go

.PHONY: tier1 race vet lint bench-lint bench bench-build bench-gate bench-parallel bench-dist bench-obs race-obs bench-qos bench-prov bench-latency build test

# tier1 is the acceptance gate: everything builds and every test passes.
tier1: build test

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

# race runs the whole suite under the race detector.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint runs the standard toolchain vet plus confvet, the repo's own
# engine-invariant analyzers (see DESIGN.md, sections "Static analysis"
# and "Dataflow analysis"): the five syntactic checks plus the poolsafe /
# ringsafe / waitersafe dataflow tier. The ./... pattern covers the whole
# module — internal/, cmd/ and examples/ alike. Both legs must be clean
# for the tree to be mergeable.
lint: vet
	$(GO) run ./cmd/confvet ./...

# bench-lint times one full confvet pass (load + type-check + every
# analyzer) over the tree, plus the isolated dataflow tier. The CI lint
# job logs the numbers so analyzer wall-time regressions are visible
# before they make `make lint` painful.
bench-lint:
	$(GO) test ./internal/analysis/ -run '^$$' -bench BenchmarkConfvet -benchtime 1x -count 1

# bench reruns the hot-path microbenchmarks whose numbers are recorded in
# BENCH_hotpath.json (see DESIGN.md, section "Hot path"), plus the
# event-layer and scheduler-policy microbenchmarks.
bench:
	$(GO) test ./internal/director/ -run xxx -bench . -benchtime 2s -count 1
	$(GO) test ./internal/event/ -run xxx -bench . -benchtime 2s -count 1
	$(GO) test ./internal/sched/ -run xxx -bench . -benchtime 2s -count 1

# bench-build compiles and tests the benchmark, a nested module
# (repro/benchmark, `replace repro => ../`) that `build` and `test` do not
# reach although it calls this module's exported constructors — a changed
# signature in internal/director, stafilos, model, ring or window breaks it
# silently otherwise. ~5 s: every workload at 1/100 size plus the oracles.
bench-build:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# bench-gate enforces the lock-free hot-path acceptance criteria (see
# DESIGN.md, section "Zero-alloc hot path"): the steady-state firing loop
# and SCWF passthrough delivery must allocate nothing, a pipeline on the
# sequential SCWF director at most 0.05 objects per event, keyed records
# through group-by sliding and timed windows on it at most 2, the lock-free
# ring invariants must hold at 1, 2 and 8 schedulable cores, and pipeline
# throughput must stay within 10% of the recorded lockfree baseline in
# BENCH_hotpath.json. The throughput leg is wall-clock sensitive, so it
# takes the best of up to three fresh processes (the gate test itself also
# keeps the best of three in-process runs).
bench-gate:
	$(GO) test ./internal/director/ -run TestFiringLoopZeroAlloc -v -count 1
	$(GO) test ./internal/director/ -run 'TestRingReceiver|TestWaiter' -count 1
	GOMAXPROCS=1 $(GO) test ./internal/ring/ -count 1
	GOMAXPROCS=2 $(GO) test ./internal/ring/ -count 1
	GOMAXPROCS=8 $(GO) test ./internal/ring/ -count 1
	$(GO) test ./internal/stafilos/ -run 'TestSCWFPassthroughDeliveryZeroAlloc|TestSequentialPipelineSteadyStateAllocs|TestWindowedDeliverySteadyStateAllocs' -v -count 1
	$(GO) test ./internal/stafilos/ -run xxx -bench BenchmarkSCWFPassthroughDelivery -benchmem -benchtime 2s -count 1
	$(GO) test ./internal/director/ -run xxx -bench 'BenchmarkPipelineThroughput|BenchmarkRingReceiverPut' -benchmem -benchtime 2s -count 1
	@n=0; until BENCH_GATE=1 $(GO) test ./internal/director/ -run TestPipelineThroughputGate -v -count 1; do \
		n=$$((n+1)); \
		if [ $$n -ge 3 ]; then echo "bench-gate: throughput below 90% of baseline in all 3 processes"; exit 1; fi; \
		echo "bench-gate: throughput below the bar, retrying ($$n/3) in a fresh process"; \
	done

# bench-parallel reruns the multi-worker scaling benchmarks whose numbers
# are recorded in BENCH_parallel.json (see DESIGN.md, section "Parallel
# SCWF"). The Linear Road runs take ~10 wall seconds each (fixed
# window-timeout tail), so everything runs once.
bench-parallel:
	$(GO) test ./internal/stafilos/ -run xxx -bench BenchmarkParallelPipeline -benchtime 3x -count 1
	$(GO) test ./internal/lr/ -run xxx -bench BenchmarkLinearRoadParallel -benchtime 1x -count 1

# bench-dist reruns the bridge wire-format microbenchmarks whose numbers
# are recorded in BENCH_dist.json (see DESIGN.md, section "Bridge wire
# format"): binary frame encode/decode per event against the JSON-per-line
# baseline, which lives beside the benchmarks in internal/dist/json_test.go
# (it is not part of the shipped package). The binary encode column must
# show 0 allocs/op.
bench-dist:
	$(GO) test ./internal/dist/ -run xxx -bench BenchmarkWire -benchmem -benchtime 2s -count 1

# bench-obs reruns the observability overhead matrix (no engine vs attached
# engine with tracing disabled vs 1% vs 100% wave sampling) whose numbers are
# recorded in BENCH_obs.json (see DESIGN.md, section "Observability").
bench-obs:
	$(GO) test ./internal/obs/ -run xxx -bench BenchmarkObsOverhead -benchtime 2s -count 1

# race-obs runs the introspection layer and every sub-package under the
# race detector: the lineage-store stress under an 8-worker parallel
# executor, the live-server smoke, the QoS monitor stress, the store's
# concurrent record-vs-query stress, and the latency attribution engine.
race-obs:
	$(GO) test -race ./internal/obs/...

# bench-qos reruns the QoS monitor overhead pair (engine alone vs engine +
# subscribed monitor on an all-overhead pipeline) whose numbers are recorded
# in BENCH_qos.json (see DESIGN.md, section "QoS monitoring").
bench-qos:
	$(GO) test ./internal/obs/qos/ -run xxx -bench BenchmarkQoSOverhead -benchtime 2s -count 1

# bench-prov reruns the lineage-store microbenchmarks whose numbers are
# recorded in BENCH_obs.json (see DESIGN.md, section "Provenance"): the
# store's hot-path Record (must show 0 allocs/op) and the wave and
# sink-window queries. What recording costs a pipeline end to end is
# obs.overhead_frac in the benchmark (pipe_scwf_obs against pipe_scwf).
bench-prov:
	$(GO) test ./internal/obs/prov/ -run xxx -bench BenchmarkProv -benchmem -benchtime 2s -count 1

# bench-latency reruns the latency-attribution overhead pair (provenance
# tracing alone vs tracing + latency profile) whose numbers are recorded in
# BENCH_obs.json (see DESIGN.md, section "Latency attribution"). The
# profile's hot-path addition is one bounded-ring push per sampled wave
# endpoint; waterfall analysis is deferred to scrape time.
bench-latency:
	$(GO) test ./internal/obs/ -run xxx -bench BenchmarkLatencyOverhead -benchtime 10x -count 1
