package stafilos_test

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/stafilos"
	"repro/internal/value"
	"repro/internal/window"
)

// buildDiamond constructs the shared diamond workflow of the equivalence
// tests:
//
//	        ┌─ left (×2) ──┐
//	src ────┤              ├──► sink
//	        └─ right(×2+1)─┘
//
// The two branches emit disjoint value ranges (even vs. odd), so the merged
// sink output pins down exactly which tokens every branch processed.
func buildDiamond(n int) (*model.Workflow, *actors.Collect) {
	wf := model.NewWorkflow("diamond")
	src := actors.NewGenerator("src", time.Now().Add(-time.Minute), time.Millisecond, n,
		func(i int) value.Value { return value.Int(int64(i)) })
	branch := func(name string, f func(int64) int64) *actors.Func {
		return actors.NewFunc(name, window.Passthrough(),
			func(_ *model.FireContext, w *window.Window, emit func(value.Value)) error {
				for _, tok := range w.Tokens() {
					emit(value.Int(f(int64(tok.(value.Int)))))
				}
				return nil
			})
	}
	left := branch("left", func(v int64) int64 { return 2 * v })
	right := branch("right", func(v int64) int64 { return 2*v + 1 })
	sink := actors.NewCollect("sink")
	wf.MustAdd(src, left, right, sink)
	wf.MustConnect(src.Out(), left.In())
	wf.MustConnect(src.Out(), right.In())
	wf.MustConnect(left.Out(), sink.In())
	wf.MustConnect(right.Out(), sink.In())
	return wf, sink
}

// sortedInts flattens collected tokens to a sorted multiset.
func sortedInts(t *testing.T, toks []value.Value) []int64 {
	t.Helper()
	out := make([]int64, 0, len(toks))
	for _, tok := range toks {
		v, ok := tok.(value.Int)
		if !ok {
			t.Fatalf("unexpected token type %T", tok)
		}
		out = append(out, int64(v))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// policies is the equivalence-test policy table: every shipped scheduling
// policy, each built fresh per run (schedulers hold per-run state).
var policies = []struct {
	name string
	mk   func() stafilos.Scheduler
}{
	{"FIFO", func() stafilos.Scheduler { return sched.NewFIFO() }},
	{"RR", func() stafilos.Scheduler { return sched.NewRR(0) }},
	{"LQF", func() stafilos.Scheduler { return sched.NewLQF() }},
	{"QBS", func() stafilos.Scheduler { return sched.NewQBS(0) }},
	{"RB", func() stafilos.Scheduler { return sched.NewRB() }},
}

// TestSequentialParallelEquivalence runs the same diamond workflow under
// the sequential Director and under the ParallelDirector (4 workers) for
// every scheduling policy and asserts the merged sink outputs are the same
// multiset: parallel execution may interleave branches differently but must
// neither lose, duplicate nor corrupt tokens.
func TestSequentialParallelEquivalence(t *testing.T) {
	const n = 400
	want := make([]int64, 0, 2*n)
	for i := int64(0); i < n; i++ {
		want = append(want, 2*i, 2*i+1)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			run := func(d model.Director, wf *model.Workflow, sink *actors.Collect) []int64 {
				if err := d.Setup(wf); err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				if err := d.Run(ctx); err != nil {
					t.Fatal(err)
				}
				return sortedInts(t, sink.Tokens)
			}

			wfSeq, sinkSeq := buildDiamond(n)
			seq := run(stafilos.NewDirector(p.mk(), stafilos.Options{SourceInterval: 5}),
				wfSeq, sinkSeq)

			wfPar, sinkPar := buildDiamond(n)
			par := run(stafilos.NewParallelDirector(p.mk(), stafilos.Options{SourceInterval: 5}, 4),
				wfPar, sinkPar)

			if len(seq) != len(want) {
				t.Fatalf("sequential %s delivered %d tokens, want %d", p.name, len(seq), len(want))
			}
			if len(par) != len(seq) {
				t.Fatalf("parallel %s delivered %d tokens, sequential delivered %d",
					p.name, len(par), len(seq))
			}
			for i := range seq {
				if seq[i] != want[i] {
					t.Fatalf("sequential %s token[%d] = %d, want %d", p.name, i, seq[i], want[i])
				}
				if par[i] != seq[i] {
					t.Fatalf("parallel %s token[%d] = %d, sequential = %d",
						p.name, i, par[i], seq[i])
				}
			}
		})
	}
}

// buildWindowedDiamond is buildDiamond with real (non-passthrough) tuple
// windows on both branches, so the ring ingestion + consumer-owned operator
// path — not just the passthrough shell path — carries every event. Each
// branch emits one token per windowed event, so the expected sink multiset
// is identical to the passthrough diamond's.
func buildWindowedDiamond(n, winSize int) (*model.Workflow, *actors.Collect) {
	wf := model.NewWorkflow("windowed-diamond")
	src := actors.NewGenerator("src", time.Now().Add(-time.Minute), time.Millisecond, n,
		func(i int) value.Value { return value.Int(int64(i)) })
	branch := func(name string, f func(int64) int64) *actors.Func {
		return actors.NewFunc(name, window.Continuous(winSize),
			func(_ *model.FireContext, w *window.Window, emit func(value.Value)) error {
				for _, tok := range w.Tokens() {
					emit(value.Int(f(int64(tok.(value.Int)))))
				}
				return nil
			})
	}
	left := branch("left", func(v int64) int64 { return 2 * v })
	right := branch("right", func(v int64) int64 { return 2*v + 1 })
	sink := actors.NewCollect("sink")
	wf.MustAdd(src, left, right, sink)
	wf.MustConnect(src.Out(), left.In())
	wf.MustConnect(src.Out(), right.In())
	wf.MustConnect(left.Out(), sink.In())
	wf.MustConnect(right.Out(), sink.In())
	return wf, sink
}

// TestSequentialParallelEquivalenceWindowed is the windowed counterpart of
// TestSequentialParallelEquivalence: for every scheduling policy, a
// randomly sized tumbling window (logged seed) on both diamond branches
// must deliver the same token multiset under the sequential director and
// the 4-worker parallel director — the ring-vs-mutex equivalence pin for
// the windowed TMReceiver path across all five policies.
func TestSequentialParallelEquivalenceWindowed(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("seed %d", seed)

	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			sizes := []int{2, 4, 5, 8}
			winSize := sizes[rng.Intn(len(sizes))]
			n := winSize * (40 + rng.Intn(40)) // full windows only: no timeout tail
			want := make([]int64, 0, 2*n)
			for i := int64(0); i < int64(n); i++ {
				want = append(want, 2*i, 2*i+1)
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

			run := func(d model.Director, wf *model.Workflow, sink *actors.Collect) []int64 {
				if err := d.Setup(wf); err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				if err := d.Run(ctx); err != nil {
					t.Fatal(err)
				}
				return sortedInts(t, sink.Tokens)
			}

			wfSeq, sinkSeq := buildWindowedDiamond(n, winSize)
			seq := run(stafilos.NewDirector(p.mk(), stafilos.Options{SourceInterval: 5}),
				wfSeq, sinkSeq)
			wfPar, sinkPar := buildWindowedDiamond(n, winSize)
			par := run(stafilos.NewParallelDirector(p.mk(), stafilos.Options{SourceInterval: 5}, 4),
				wfPar, sinkPar)

			if len(seq) != len(want) {
				t.Fatalf("sequential %s delivered %d tokens, want %d (seed %d, win %d)",
					p.name, len(seq), len(want), seed, winSize)
			}
			if len(par) != len(seq) {
				t.Fatalf("parallel %s delivered %d tokens, sequential delivered %d (seed %d, win %d)",
					p.name, len(par), len(seq), seed, winSize)
			}
			for i := range seq {
				if seq[i] != want[i] || par[i] != seq[i] {
					t.Fatalf("%s token[%d]: seq=%d par=%d want=%d (seed %d, win %d)",
						p.name, i, seq[i], par[i], want[i], seed, winSize)
				}
			}
		})
	}
}

// TestParallelFanInToWindowedPort merges both diamond branches into one
// windowed port, which therefore has two upstream writers. The parallel
// director must give it the multi-producer ring: an SPSC ring shared by
// two workers loses or duplicates events, and -race reports the
// producers' unsynchronized cursor. Every token arrives exactly once.
func TestParallelFanInToWindowedPort(t *testing.T) {
	const n, winSize = 4000, 4
	wf := model.NewWorkflow("windowed-fan-in")
	src := actors.NewGenerator("src", time.Now().Add(-time.Minute), time.Microsecond, n,
		func(i int) value.Value { return value.Int(int64(i)) })
	branch := func(name string, f func(int64) int64) *actors.Func {
		return actors.NewFunc(name, window.Passthrough(),
			func(_ *model.FireContext, w *window.Window, emit func(value.Value)) error {
				for _, tok := range w.Tokens() {
					emit(value.Int(f(int64(tok.(value.Int)))))
				}
				return nil
			})
	}
	left := branch("left", func(v int64) int64 { return 2 * v })
	right := branch("right", func(v int64) int64 { return 2*v + 1 })
	merge := actors.NewFunc("merge", window.Continuous(winSize),
		func(_ *model.FireContext, w *window.Window, emit func(value.Value)) error {
			for _, tok := range w.Tokens() {
				emit(tok)
			}
			return nil
		})
	sink := actors.NewCollect("sink")
	wf.MustAdd(src, left, right, merge, sink)
	wf.MustConnect(src.Out(), left.In())
	wf.MustConnect(src.Out(), right.In())
	wf.MustConnect(left.Out(), merge.In())
	wf.MustConnect(right.Out(), merge.In())
	wf.MustConnect(merge.Out(), sink.In())

	d := stafilos.NewParallelDirector(sched.NewFIFO(), stafilos.Options{SourceInterval: 5}, 4)
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := d.Run(ctx); err != nil {
		t.Fatal(err)
	}
	got := sortedInts(t, sink.Tokens)
	if len(got) != 2*n {
		t.Fatalf("merge delivered %d tokens, want %d", len(got), 2*n)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("token[%d] = %d, want %d (lost or duplicated event)", i, v, i)
		}
	}
}

// TestParallelDirectorPeakFanOut asserts, through the public accessor, that
// a fan-out workflow with 4 workers genuinely overlaps firings: the
// observed peak concurrency exceeds one.
func TestParallelDirectorPeakFanOut(t *testing.T) {
	const n = 200
	wf := model.NewWorkflow("fanout")
	src := actors.NewGenerator("src", time.Now().Add(-time.Minute), time.Millisecond, n,
		func(i int) value.Value { return value.Int(int64(i)) })
	wf.MustAdd(src)
	for _, name := range []string{"a", "b", "c", "d"} {
		stage := actors.NewFunc(name, window.Passthrough(),
			func(_ *model.FireContext, w *window.Window, emit func(value.Value)) error {
				spinFor(100 * time.Microsecond)
				for _, tok := range w.Tokens() {
					emit(tok)
				}
				return nil
			})
		sink := actors.NewCollect("sink-" + name)
		wf.MustAdd(stage, sink)
		wf.MustConnect(src.Out(), stage.In())
		wf.MustConnect(stage.Out(), sink.In())
	}

	d := stafilos.NewParallelDirector(sched.NewFIFO(), stafilos.Options{SourceInterval: 5}, 4)
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := d.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if peak := d.PeakConcurrency(); peak <= 1 {
		t.Errorf("fan-out with 4 workers never overlapped firings (peak %d)", peak)
	}
}

// TestParallelDirectorStress pushes 10k source events through a fan-out /
// fan-in workflow on 8 workers. Run under -race it is the executor's data
// race probe; in any mode it checks nothing is lost or duplicated.
func TestParallelDirectorStress(t *testing.T) {
	const n = 10000
	wf := model.NewWorkflow("stress")
	src := actors.NewGenerator("src", time.Now().Add(-time.Hour), time.Millisecond, n,
		func(i int) value.Value { return value.Int(int64(i)) })
	pass := func(name string) *actors.Func {
		return actors.NewFunc(name, window.Passthrough(),
			func(_ *model.FireContext, w *window.Window, emit func(value.Value)) error {
				for _, tok := range w.Tokens() {
					emit(tok)
				}
				return nil
			})
	}
	left, right := pass("left"), pass("right")
	sinkL, sinkR := actors.NewCollect("sinkL"), actors.NewCollect("sinkR")
	wf.MustAdd(src, left, right, sinkL, sinkR)
	wf.MustConnect(src.Out(), left.In())
	wf.MustConnect(src.Out(), right.In())
	wf.MustConnect(left.Out(), sinkL.In())
	wf.MustConnect(right.Out(), sinkR.In())

	d := stafilos.NewParallelDirector(sched.NewQBS(0), stafilos.Options{SourceInterval: 5}, 8)
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := d.Run(ctx); err != nil {
		t.Fatal(err)
	}
	for _, sink := range []*actors.Collect{sinkL, sinkR} {
		got := sortedInts(t, sink.Tokens)
		if len(got) != n {
			t.Fatalf("%d tokens delivered, want %d", len(got), n)
		}
		for i, v := range got {
			if v != int64(i) {
				t.Fatalf("token[%d] = %d, want %d (lost or duplicated events)", i, v, i)
			}
		}
	}
}
