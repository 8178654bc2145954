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
# engine-invariant analyzers (see DESIGN.md, section "Static analysis"):
# hotpath and lockorder, each kept because it alone catches a seeded
# engine bug (internal/analysis/mutants_test.go). The ./... pattern
# covers the whole module — internal/, cmd/ and examples/ alike. Every leg
# must be clean for the tree to be mergeable; CI runs lint, so vet needs no
# job of its own.
lint: vet
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/confvet ./...

# bench-lint times one full confvet pass (load + type-check + every
# analyzer) over the tree. The CI lint job logs the number so analyzer
# wall-time regressions are visible before they make `make lint` painful.
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
# passthrough delivery, the binary value codec, the bridge's per-event
# encode, DDF and SDF composite firings, the sequential SCWF director's idle
# advances and an indexed relstore Lookup into a buffer with room (hit or
# miss) must allocate nothing, a back-pressured PNCWF pipeline draining
# 200k events and a pipeline on the sequential SCWF director at most 0.05
# objects per event, keyed records through group-by sliding and timed
# windows on it at most 2, NewRecord exactly one (its value slice), a short
# virtual-time Linear Road at most its stated allocations per report, and
# the lock-free ring invariants must hold at 1, 2 and 8 schedulable cores. Every leg is exact: allocations are counted
# over a whole run, not averaged per operation; no wall-clock figure, no
# retry.
bench-gate:
	$(GO) test ./internal/director/ -run 'TestFiringLoopZeroAlloc|TestPNCWFPipeDrainAllocs|TestCompositeFireAllocs' -v -count 1
	$(GO) test ./internal/director/ -run 'TestRingReceiver|TestWaiter' -count 1
	GOMAXPROCS=1 $(GO) test ./internal/ring/ -count 1
	GOMAXPROCS=2 $(GO) test ./internal/ring/ -count 1
	GOMAXPROCS=8 $(GO) test ./internal/ring/ -count 1
	$(GO) test ./internal/stafilos/ -run 'TestSCWFPassthroughDeliveryZeroAlloc|TestSequentialPipelineSteadyStateAllocs|TestWindowedDeliverySteadyStateAllocs|TestAdvanceIdleAllocs' -v -count 1
	$(GO) test ./internal/dist/ -run TestAppendEventZeroAlloc -v -count 1
	$(GO) test ./internal/value/ -run 'TestNewRecordAllocs|TestAppendBinaryZeroAlloc' -v -count 1
	$(GO) test ./internal/relstore/ -run TestIndexedLookupAllocs -v -count 1
	$(GO) test ./internal/lr/ -run TestLinearRoadAllocsPerReport -v -count 1
