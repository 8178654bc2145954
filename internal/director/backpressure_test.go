package director

import (
	"context"
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/model"
	"repro/internal/value"
	"repro/internal/window"
)

// Liveness of PNCWF back-pressure: every shape here deadlocks if a producer
// waits on a full edge for as long as the edge stays full, and each test
// fails within its own deadline, with every goroutine's stack, when it does.

// backdated returns n feed items 0..n-1, all already due.
func backdated(n int) []actors.Item {
	items := make([]actors.Item, n)
	base := time.Now().Add(-time.Hour)
	for i := range items {
		items[i] = actors.Item{Tok: value.Int(int64(i)), Time: base.Add(time.Duration(i) * time.Microsecond)}
	}
	return items
}

func identity(v value.Value) value.Value { return v }

// runPNCWF sets wf up under PNCWF and runs it to quiescence within limit.
func runPNCWF(t *testing.T, wf *model.Workflow, limit time.Duration) {
	t.Helper()
	d := NewPNCWF(PNCWFOptions{})
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		err = d.Run(context.Background())
	}()
	awaitDone(t, done, limit, "PNCWF run")
	if err != nil {
		t.Fatal(err)
	}
}

// checkValues requires toks to hold every value 0..n-1 exactly once, plus
// extra copies of marker and nothing else.
func checkValues(t *testing.T, toks []value.Value, n int, marker int64, extra int) {
	t.Helper()
	seen := make([]bool, n)
	markers := 0
	for _, tok := range toks {
		v := int64(tok.(value.Int))
		switch {
		case v == marker:
			markers++
		case v < 0 || v >= int64(n) || seen[v]:
			t.Fatalf("value %d unexpected or duplicated", v)
		default:
			seen[v] = true
		}
	}
	if got := len(toks) - markers; got != n || markers != extra {
		t.Fatalf("sink got %d values and %d markers, want %d and %d", got, markers, n, extra)
	}
}

// pullJoin fires on its left (first) input and, every wide left events,
// pulls one window from its right input, a tuple window of wide events.
type pullJoin struct {
	model.Base
	left, right, out *model.Port
	wide, seen       int
	pulled           int
}

func newPullJoin(name string, wide int) *pullJoin {
	j := &pullJoin{Base: model.NewBase(name), wide: wide}
	j.Bind(j)
	j.left = j.Input("left")
	j.right = j.WindowedInput("right", window.Spec{Unit: window.Tuples, Size: wide, Step: wide, DeleteUsed: true})
	j.out = j.Output("out")
	return j
}

func (j *pullJoin) Fire(ctx *model.FireContext) error {
	w := ctx.Window(j.left)
	if w == nil {
		return nil
	}
	for _, ev := range w.Events {
		if j.seen%j.wide == 0 {
			if rw := ctx.Window(j.right); rw != nil && rw.Len() == j.wide {
				j.pulled++
			}
		}
		j.seen++
		ctx.Put(j.out, ev.Token)
	}
	return nil
}

// TestBackPressureDiamondPullsWideWindow: src feeds a and b; the join fires
// on a's edge and pulls b's through a tuple window four rings wide. While
// the join waits in its pull, a's edge into it fills, a waits, src's edge
// into a fills and src waits, long before b has carried a full window. Only
// the stall escape lets a and src run ahead into the overflow lists.
func TestBackPressureDiamondPullsWideWindow(t *testing.T) {
	const wide = 4 * window.InboxCap
	const n = 3 * wide
	wf := model.NewWorkflow("diamond")
	src := actors.NewSource("src", actors.NewSliceFeed(backdated(n)), 64)
	a := actors.NewMap("a", identity)
	b := actors.NewMap("b", identity)
	j := newPullJoin("j", wide)
	sink := actors.NewCollect("sink")
	wf.MustAdd(src, a, b, j, sink)
	wf.MustConnect(src.Out(), a.In())
	wf.MustConnect(src.Out(), b.In())
	wf.MustConnect(a.Out(), j.left)
	wf.MustConnect(b.Out(), j.right)
	wf.MustConnect(j.out, sink.In())
	runPNCWF(t, wf, 10*time.Second)
	checkValues(t, sink.Tokens, n, -1, 0)
	if j.pulled != n/wide {
		t.Fatalf("join pulled %d full right windows, want %d", j.pulled, n/wide)
	}
}

// TestBackPressureWindowedCycle runs the windowed cycle model.Vet accepts:
// a forwards src's events and b's feedback to b and the sink; b closes a
// tuple window of 4, spends 10 µs on it and answers a window holding any
// src event with one marker. b is the slowest actor, so a's edge into b
// fills and a waits on b, while src keeps b's edge back into a full and b
// waits on a.
func TestBackPressureWindowedCycle(t *testing.T) {
	const n = 20000
	const marker = -1
	wf := model.NewWorkflow("cycle")
	src := actors.NewSource("src", actors.NewSliceFeed(backdated(n)), 64)
	a := actors.NewMap("a", identity)
	windows := 0 // b's windows holding a src event; b's thread only
	b := actors.NewFunc("b", window.Spec{Unit: window.Tuples, Size: 4, Step: 4, Timeout: 20 * time.Millisecond, DeleteUsed: true},
		func(_ *model.FireContext, w *window.Window, emit func(value.Value)) error {
			for start := time.Now(); time.Since(start) < 10*time.Microsecond; {
			}
			for _, ev := range w.Events {
				if ev.Token.(value.Int) != marker {
					windows++
					emit(value.Int(marker))
					break
				}
			}
			return nil
		})
	sink := actors.NewCollect("sink")
	wf.MustAdd(src, a, b, sink)
	wf.MustConnect(src.Out(), a.In())
	wf.MustConnect(a.Out(), b.In())
	wf.MustConnect(b.Out(), a.In())
	wf.MustConnect(a.Out(), sink.In())
	runPNCWF(t, wf, 10*time.Second)
	checkValues(t, sink.Tokens, n, marker, windows)
}

// TestBackPressureCancelWhileParked cancels a run whose source waits on a
// full edge. The sink spends 20 µs per event, so the edge stays at the mark
// and the source parks between the batches the sink takes; a few batches
// in, the sink cancels the run from inside a firing, with the source
// parked, and takes nothing more. Run must still return promptly.
func TestBackPressureCancelWhileParked(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wf := model.NewWorkflow("cancel")
	src := actors.NewSource("src", actors.NewSliceFeed(backdated(64*window.InboxCap)), 64)
	var r *RingReceiver
	var seen int
	var cancelled time.Time
	sink := actors.NewSink("sink", window.Passthrough(), func(*model.FireContext, *window.Window) error {
		for start := time.Now(); time.Since(start) < 20*time.Microsecond; {
		}
		seen++
		// A full edge means the source fired after the sink's last take, so
		// a registration seen after it is the source waiting again.
		raw, _ := r.in.Backlog()
		if seen >= 4*fireBatchMax && cancelled.IsZero() && raw >= backlogMark && r.parked.Load() > 0 {
			cancelled = time.Now()
			cancel()
		}
		return nil
	})
	wf.MustAdd(src, sink)
	wf.MustConnect(src.Out(), sink.In())
	d := NewPNCWF(PNCWFOptions{})
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	r = d.receivers[sink.In()]
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.Run(ctx)
	}()
	awaitDone(t, done, 5*time.Second, "cancelled run")
	if cancelled.IsZero() {
		t.Fatal("the source never waited on the full edge")
	}
	if el := time.Since(cancelled); el > time.Second {
		t.Fatalf("Run returned %v after the cancellation", el)
	}
}
