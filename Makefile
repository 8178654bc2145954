GO ?= go

.PHONY: tier1 race vet lint bench-lint bench bench-build bench-gate build test

# tier1 is the acceptance gate: everything builds and every test passes.
tier1: build test

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

# race runs the whole suite under the race detector, the introspection
# layer's concurrent stresses (lineage store, QoS monitor, 8-worker
# parallel executor) included.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint runs the standard toolchain vet, a gofmt check over every tracked Go
# file (the nested benchmark module included), and confvet, the repo's own
# engine-invariant analyzers (see DESIGN.md, sections "Static analysis"
# and "Dataflow analysis"): the five syntactic checks plus the poolsafe /
# ringsafe / waitersafe dataflow tier. The ./... pattern covers the whole
# module — internal/, cmd/ and examples/ alike. Every leg must be clean
# for the tree to be mergeable; CI runs lint, so vet needs no job of its own.
lint: vet
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/confvet ./...

# bench-lint times one full confvet pass (load + type-check + every
# analyzer) over the tree, plus the isolated dataflow tier. The CI lint
# job logs the numbers so analyzer wall-time regressions are visible
# before they make `make lint` painful.
bench-lint:
	$(GO) test ./internal/analysis/ -run '^$$' -bench BenchmarkConfvet -benchtime 1x -count 1

# bench reruns the director, event-layer and scheduler-policy
# microbenchmarks for a quick local look; nothing records them. The numbers
# that enter the repository come from `bash benchmark/run.sh`, judged with
# benchmark/compare (see benchmark/README.md).
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

# bench-gate enforces the hot-path acceptance criteria (see DESIGN.md,
# section "Zero-alloc hot path"): the steady-state firing loop, SCWF
# passthrough delivery and the bridge's per-event encode must allocate
# nothing, a pipeline on the sequential SCWF director at most 0.05 objects
# per event, keyed records through group-by sliding and timed windows on it
# at most 2, and the lock-free ring invariants must hold at 1, 2 and 8
# schedulable cores. Every leg is exact: no wall-clock figure, no retry.
bench-gate:
	$(GO) test ./internal/director/ -run TestFiringLoopZeroAlloc -v -count 1
	$(GO) test ./internal/director/ -run 'TestRingReceiver|TestWaiter' -count 1
	GOMAXPROCS=1 $(GO) test ./internal/ring/ -count 1
	GOMAXPROCS=2 $(GO) test ./internal/ring/ -count 1
	GOMAXPROCS=8 $(GO) test ./internal/ring/ -count 1
	$(GO) test ./internal/stafilos/ -run 'TestSCWFPassthroughDeliveryZeroAlloc|TestSequentialPipelineSteadyStateAllocs|TestWindowedDeliverySteadyStateAllocs' -v -count 1
	$(GO) test ./internal/dist/ -run TestAppendEventZeroAlloc -v -count 1
