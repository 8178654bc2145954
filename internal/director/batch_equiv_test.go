package director

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/model"
	"repro/internal/stafilos"
	"repro/internal/stats"
	"repro/internal/value"
	"repro/internal/window"
)

// equivSpecs are the window kinds the batched transport must treat
// identically to sequential delivery: tuple, timed and wave windows,
// including a grouped tuple variant.
func equivSpecs() map[string]window.Spec {
	return map[string]window.Spec{
		"tuple":         {Unit: window.Tuples, Size: 3, Step: 2},
		"tuple-grouped": {Unit: window.Tuples, Size: 2, Step: 2, DeleteUsed: true, GroupBy: []string{"k"}},
		"timed":         {Unit: window.Time, SizeDur: 4 * time.Second, StepDur: 2 * time.Second},
		"wave":          {Unit: window.Waves, Size: 1, Step: 1},
	}
}

// equivEvents builds a deterministic stream mixing multi-event waves and
// grouped records, the worst case for batched window evaluation.
func equivEvents(n int) []*event.Event {
	tk := event.NewTimekeeper()
	base := time.Unix(100, 0)
	var out []*event.Event
	i := 0
	for len(out) < n {
		ts := base.Add(time.Duration(i) * 700 * time.Millisecond)
		root := tk.External(value.NewRecord("k", value.Int(int64(i%3)), "v", value.Int(int64(i))), ts)
		// Every third external event fans out into a 3-event wave, so wave
		// windows see real sub-wave structure.
		if i%3 == 0 {
			tk.BeginFiring(root)
			for j := 0; j < 3; j++ {
				tk.Stamp(value.NewRecord("k", value.Int(int64(j%3)), "v", value.Int(int64(100*i+j))), ts)
			}
			out = append(out, tk.EndFiring()...)
		} else {
			out = append(out, root)
		}
		i++
	}
	return out[:n]
}

// windowFingerprint renders every observable property of a produced window
// so sequences can be compared exactly: group, partiality, bounds, and each
// member's token, timestamp and full wave-tag.
func windowFingerprint(w *window.Window) string {
	s := fmt.Sprintf("group=%q partial=%v start=%v end=%v time=%v wave=%v [", w.Group, w.Partial, w.Start, w.End, w.Time, w.Wave)
	for _, ev := range w.Events {
		s += fmt.Sprintf("(%v @%v %v)", ev.Token, ev.Time.UnixNano(), ev.Wave)
	}
	return s + "]"
}

func fingerprints(ws []*window.Window) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = windowFingerprint(w)
	}
	return out
}

func compareSequences(t *testing.T, kind string, seq, bat []string) {
	t.Helper()
	if len(seq) != len(bat) {
		t.Fatalf("%s: sequential produced %d windows, batched %d", kind, len(seq), len(bat))
	}
	for i := range seq {
		if seq[i] != bat[i] {
			t.Errorf("%s: window %d differs:\n  sequential: %s\n  batched:    %s", kind, i, seq[i], bat[i])
		}
	}
}

// drain pops every ready window without blocking.
func drain(r *BlockingReceiver) []*window.Window {
	var out []*window.Window
	for r.Pending() {
		w, ok := r.Get()
		if !ok {
			break
		}
		out = append(out, w)
	}
	return out
}

// TestPutBatchEquivalentToSequentialPuts asserts that PutBatch produces the
// identical window sequence — same windows, same member events, same
// wave-tags — as N sequential Put calls, for tuple, timed and wave window
// kinds, across varying batch sizes.
func TestPutBatchEquivalentToSequentialPuts(t *testing.T) {
	for kind, spec := range equivSpecs() {
		t.Run(kind, func(t *testing.T) {
			evs := equivEvents(60)
			for _, batchSize := range []int{1, 2, 5, 16, 60} {
				clk := clock.NewVirtual()
				clk.AdvanceTo(evs[len(evs)-1].Time)

				seqR := NewBlockingReceiver(spec, clk)
				for _, ev := range evs {
					seqR.Put(ev)
				}
				batR := NewBlockingReceiver(spec, clk)
				for i := 0; i < len(evs); i += batchSize {
					j := i + batchSize
					if j > len(evs) {
						j = len(evs)
					}
					batR.PutBatch(evs[i:j])
				}
				compareSequences(t, fmt.Sprintf("%s/batch=%d", kind, batchSize),
					fingerprints(drain(seqR)), fingerprints(drain(batR)))
			}
		})
	}
}

// tmHarness wires a TMReceiver to a collecting enqueue callback.
type tmHarness struct {
	recv  *stafilos.TMReceiver
	items []stafilos.ReadyItem
	st    *stats.Registry
	actor model.Actor
}

func newTMHarness(t *testing.T, spec window.Spec, clk clock.Clock) *tmHarness {
	t.Helper()
	sink := newCollectActor(t, spec)
	h := &tmHarness{st: stats.NewRegistry(), actor: sink}
	h.recv = stafilos.NewTMReceiver(sink.Inputs()[0], clk, h.st, func(it stafilos.ReadyItem) {
		h.items = append(h.items, it)
	})
	return h
}

func (h *tmHarness) windows() []*window.Window {
	out := make([]*window.Window, len(h.items))
	for i, it := range h.items {
		out[i] = it.Win
	}
	return out
}

// TestTMReceiverPutBatchEquivalence asserts the scheduler-mediated receiver
// enqueues the identical window sequence and records the identical stats
// counts whether events arrive one at a time or batched.
func TestTMReceiverPutBatchEquivalence(t *testing.T) {
	for kind, spec := range equivSpecs() {
		t.Run(kind, func(t *testing.T) {
			evs := equivEvents(60)
			clk := clock.NewVirtual()
			clk.AdvanceTo(evs[len(evs)-1].Time)

			seq := newTMHarness(t, spec, clk)
			for _, ev := range evs {
				seq.recv.Put(ev)
			}
			bat := newTMHarness(t, spec, clk)
			for i := 0; i < len(evs); i += 7 {
				j := i + 7
				if j > len(evs) {
					j = len(evs)
				}
				bat.recv.PutBatch(evs[i:j])
			}
			compareSequences(t, kind, fingerprints(seq.windows()), fingerprints(bat.windows()))

			seqStats := seq.st.Get(seq.actor.Name())
			batStats := bat.st.Get(bat.actor.Name())
			if seqStats.Arrivals != batStats.Arrivals {
				t.Errorf("%s: arrivals differ: sequential %d, batched %d", kind, seqStats.Arrivals, batStats.Arrivals)
			}
			if seqStats.Arrivals != int64(len(evs)) {
				t.Errorf("%s: arrivals = %d, want %d", kind, seqStats.Arrivals, len(evs))
			}
		})
	}
}

// TestBroadcastBatchFallsBackToPut asserts that a receiver implementing
// only Put (a third-party receiver) still gets every event, in order,
// through the batched broadcast path.
func TestBroadcastBatchFallsBackToPut(t *testing.T) {
	wf := model.NewWorkflow("compat")
	up := newCollectActor(t, window.Passthrough()) // donor of an output port
	down := newCollectActor(t, window.Passthrough())
	wf.MustAdd(up, down)
	wf.MustConnect(up.Outputs()[0], down.Inputs()[0])

	var got []*event.Event
	down.Inputs()[0].SetReceiver(putOnlyReceiver{sink: &got})

	evs := equivEvents(10)
	up.Outputs()[0].BroadcastBatch(evs)
	if len(got) != len(evs) {
		t.Fatalf("put-only receiver got %d events, want %d", len(got), len(evs))
	}
	for i := range evs {
		if got[i] != evs[i] {
			t.Errorf("event %d out of order", i)
		}
	}
}

// TestBlockingReceiverReleasesConsumedWindows asserts the pop path does not
// retain consumed windows through the ready queue's backing array: vacated
// slots are nilled and the queue resets/compacts as it drains.
func TestBlockingReceiverReleasesConsumedWindows(t *testing.T) {
	clk := clock.NewVirtual()
	r := NewBlockingReceiver(window.Passthrough(), clk)
	evs := equivEvents(100)
	r.PutBatch(evs)

	r.mu.Lock()
	queued := r.ready.len()
	r.mu.Unlock()
	if queued != 100 {
		t.Fatalf("queued %d windows, want 100", queued)
	}
	for i := 0; i < 40; i++ {
		if _, ok := r.Get(); !ok {
			t.Fatal("receiver drained early")
		}
		r.mu.Lock()
		for j := 0; j < r.ready.head; j++ {
			if r.ready.q[j] != nil {
				t.Fatalf("consumed slot %d still references its window", j)
			}
		}
		r.mu.Unlock()
	}
	// Popping past the halfway mark must compact the queue: the dead prefix
	// never exceeds half the backing array (once past the 32-slot minimum).
	for i := 0; i < 60; i++ {
		if _, ok := r.Get(); !ok {
			t.Fatal("receiver drained early")
		}
		r.mu.Lock()
		if q := &r.ready; q.head >= 32 && q.head*2 > len(q.q) {
			t.Errorf("queue never compacted: dead prefix %d of %d", q.head, len(q.q))
		}
		r.mu.Unlock()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ready.q) != 0 || r.ready.head != 0 {
		t.Errorf("drained queue not reset: len=%d head=%d", len(r.ready.q), r.ready.head)
	}
}

// putOnlyReceiver implements model.Receiver but NOT model.BatchReceiver —
// the compatibility shim must fall back to per-event delivery.
type putOnlyReceiver struct{ sink *[]*event.Event }

func (r putOnlyReceiver) Put(ev *event.Event) { *r.sink = append(*r.sink, ev) }

// collectActor is a minimal one-input one-output actor for receiver tests.
type collectActor struct {
	model.Base
}

var collectSeq int

func newCollectActor(t *testing.T, spec window.Spec) model.Actor {
	t.Helper()
	collectSeq++
	a := &collectActor{Base: model.NewBase(fmt.Sprintf("collect%d", collectSeq))}
	a.Bind(a)
	a.WindowedInput("in", spec)
	a.Output("out")
	return a
}

func (a *collectActor) Fire(*model.FireContext) error { return nil }
