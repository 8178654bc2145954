package obs

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/model"
	"repro/internal/obs/prov"
)

// traceStore is the lineage store as an engine without provenance sizes it.
func traceStore(capacity int) *prov.Store { return prov.NewStore(traceRetention(capacity)) }

func TestParseWaveID(t *testing.T) {
	cases := []struct {
		in      string
		root    int64
		rootSeq uint64
		hasSeq  bool
		wantErr bool
	}{
		{"t123-4", 123, 4, true, false},
		{"t123", 123, 0, false, false},
		{"t123.0.2*", 123, 0, false, false}, // rendered wave-tag string
		{"t123.1", 123, 0, false, false},
		{"t-5", -5, 0, false, false}, // negative root (pre-epoch timestamp)
		{"t-5-3", -5, 3, true, false},
		{"123-4", 0, 0, false, true}, // missing t prefix
		{"t12-abc", 0, 0, false, true},
		{"tfoo", 0, 0, false, true},
		{"t", 0, 0, false, true},
	}
	for _, tc := range cases {
		root, rootSeq, hasSeq, err := ParseWaveID(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseWaveID(%q): want error, got (%d,%d,%v)", tc.in, root, rootSeq, hasSeq)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseWaveID(%q): %v", tc.in, err)
			continue
		}
		if root != tc.root || rootSeq != tc.rootSeq || hasSeq != tc.hasSeq {
			t.Errorf("ParseWaveID(%q) = (%d,%d,%v), want (%d,%d,%v)",
				tc.in, root, rootSeq, hasSeq, tc.root, tc.rootSeq, tc.hasSeq)
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	for _, w := range []struct {
		root int64
		seq  uint64
	}{{0, 0}, {1, 2}, {-7, 9}, {1_700_000_000_000_000_000, 3}} {
		id := FormatWaveID(w.root, w.seq)
		root, seq, hasSeq, err := ParseWaveID(id)
		if err != nil || !hasSeq || root != w.root || seq != w.seq {
			t.Errorf("round trip %q -> (%d,%d,%v,%v)", id, root, seq, hasSeq, err)
		}
	}
}

func TestSamplingDeterministicAndDisabled(t *testing.T) {
	off := NewTracer(0)
	if off.Enabled() {
		t.Error("rate 0 tracer reports Enabled")
	}
	if off.Sampled(event.WaveTag{Root: 1}) {
		t.Error("disabled tracer sampled a wave")
	}
	var nilT *Tracer
	if nilT.Enabled() || nilT.Sampled(event.WaveTag{Root: 1}) {
		t.Error("nil tracer should be disabled")
	}
	var nilS *prov.Store
	if nilS.Wave(1, 0) != nil || nilS.WavesByRoot(1) != nil || nilS.Recent(5) != nil {
		t.Error("nil store lookups should return nil")
	}

	all := NewTracer(1)
	for i := int64(0); i < 100; i++ {
		if !all.Sampled(event.WaveTag{Root: i, RootSeq: uint64(i)}) {
			t.Fatalf("rate 1 tracer skipped wave %d", i)
		}
	}

	// A fractional rate must be deterministic per wave and land near the
	// requested fraction.
	tr := NewTracer(0.01)
	sampled := 0
	const n = 100_000
	for i := 0; i < n; i++ {
		w := event.WaveTag{Root: int64(i) * 1_000_003, RootSeq: uint64(i % 7)}
		first := tr.Sampled(w)
		if tr.Sampled(w) != first {
			t.Fatalf("sampling decision for wave %d not deterministic", i)
		}
		if first {
			sampled++
		}
	}
	frac := float64(sampled) / n
	if frac < 0.005 || frac > 0.02 {
		t.Errorf("1%% sampling hit %.4f of waves", frac)
	}
}

func TestRingWrapKeepsNewestSpans(t *testing.T) {
	// Total capacity 32 across 16 stripes = 2 hops per stripe; all hops of
	// one wave share a stripe, so the third record evicts the oldest.
	tr := traceStore(32)
	for i := 0; i < 5; i++ {
		tr.Record(prov.Hop{Actor: fmt.Sprintf("a%d", i), Root: 42, RootSeq: 1})
	}
	spans := tr.Wave(42, 1)
	if len(spans) != 2 {
		t.Fatalf("got %d spans after wrap, want 2", len(spans))
	}
	if spans[0].Actor != "a3" || spans[1].Actor != "a4" {
		t.Errorf("wrap kept %s,%s; want a3,a4", spans[0].Actor, spans[1].Actor)
	}
}

func TestWaveLookupOrderAndIsolation(t *testing.T) {
	tr := traceStore(traceCapacity)
	tr.Record(prov.Hop{Actor: "src", Root: 7, RootSeq: 0})
	tr.Record(prov.Hop{Actor: "other", Root: 8, RootSeq: 0})
	tr.Record(prov.Hop{Actor: "stage", Root: 7, RootSeq: 0})
	tr.Record(prov.Hop{Actor: "sink", Root: 7, RootSeq: 0})

	spans := tr.Wave(7, 0)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for i, want := range []string{"src", "stage", "sink"} {
		if spans[i].Actor != want {
			t.Errorf("span[%d] = %s, want %s", i, spans[i].Actor, want)
		}
	}
	if got := tr.Wave(9, 0); got != nil {
		t.Errorf("unknown wave returned %d spans", len(got))
	}
}

func TestWavesByRootGroupsRootSeq(t *testing.T) {
	tr := traceStore(traceCapacity)
	// Two external events with the same timestamp: same Root, distinct RootSeq.
	tr.Record(prov.Hop{Actor: "src", Root: 5, RootSeq: 1})
	tr.Record(prov.Hop{Actor: "src", Root: 5, RootSeq: 0})
	tr.Record(prov.Hop{Actor: "sink", Root: 5, RootSeq: 1})
	waves := tr.WavesByRoot(5)
	if len(waves) != 2 {
		t.Fatalf("got %d waves, want 2", len(waves))
	}
	if waves[0][0].RootSeq != 0 || len(waves[0]) != 1 {
		t.Errorf("first group = seq %d, %d spans; want seq 0 with 1 span", waves[0][0].RootSeq, len(waves[0]))
	}
	if waves[1][0].RootSeq != 1 || len(waves[1]) != 2 {
		t.Errorf("second group = seq %d, %d spans; want seq 1 with 2 spans", waves[1][0].RootSeq, len(waves[1]))
	}
}

func TestRecentOrdersByRecency(t *testing.T) {
	tr := traceStore(traceCapacity)
	tr.Record(prov.Hop{Actor: "src", Root: 1, RootSeq: 0})
	tr.Record(prov.Hop{Actor: "src", Root: 2, RootSeq: 0})
	tr.Record(prov.Hop{Actor: "sink", Root: 1, RootSeq: 0}) // wave 1 touched last
	refs := tr.Recent(10)
	if len(refs) != 2 {
		t.Fatalf("got %d waves, want 2", len(refs))
	}
	if refs[0].Root != 1 || refs[0].Hops != 2 {
		t.Errorf("most recent = root %d with %d spans, want root 1 with 2", refs[0].Root, refs[0].Hops)
	}
	if refs[1].Root != 2 || refs[1].Hops != 1 {
		t.Errorf("second = root %d with %d spans, want root 2 with 1", refs[1].Root, refs[1].Hops)
	}
	if got := tr.Recent(1); len(got) != 1 || got[0].Root != 1 {
		t.Errorf("Recent(1) = %+v, want just root 1", got)
	}
}

// TestEngineHooksNilSafe checks every director hook is a no-op on a nil
// engine — the contract that lets call sites skip observability with one
// pointer check.
func TestEngineHooksNilSafe(t *testing.T) {
	var e *Engine
	e.FiringObserved("a", nil, nil, time.Time{}, 0, 0, 0)
	e.ClaimObserved("a", 0)
	e.PickObserved("a")
	e.ParkObserved("a")
	e.Watch("wf", nil, nil, nil)
	e.WatchResponses()
	e.SetQoS(nil)
	e.Mount("/x", nil)
	e.QueueDepths(func(string, int, int) {})
	if e.Addr() != "" {
		t.Error("nil engine Addr() non-empty")
	}
	if err := e.Close(); err != nil {
		t.Errorf("nil engine Close: %v", err)
	}
	if _, err := e.Serve("127.0.0.1:0"); err == nil {
		t.Error("nil engine Serve should error")
	}
}

// TestFiringObservedSourceRecordsPerWave checks a source firing that emits
// several waves records one span per distinct wave.
func TestFiringObservedSourceRecordsPerWave(t *testing.T) {
	e := NewEngine(Options{SampleRate: 1})
	waves := []struct {
		root int64
		seq  uint64
	}{{10, 0}, {10, 0}, {11, 0}, {11, 1}}
	emissions := make([]model.Emission, len(waves))
	for i, w := range waves {
		emissions[i] = model.Emission{Ev: &event.Event{Wave: event.WaveTag{Root: w.root, RootSeq: w.seq}}}
	}
	e.FiringObserved("src", nil, emissions, time.Now(), time.Millisecond, 0, 0)

	if got := len(e.Lineage().Wave(10, 0)); got != 1 {
		t.Errorf("wave t10-0: %d spans, want 1 (duplicate emissions collapsed)", got)
	}
	if got := len(e.Lineage().Wave(11, 0)); got != 1 {
		t.Errorf("wave t11-0: %d spans, want 1", got)
	}
	if got := len(e.Lineage().Wave(11, 1)); got != 1 {
		t.Errorf("wave t11-1: %d spans, want 1", got)
	}
	if got := e.spans.Value(); got != 3 {
		t.Errorf("span counter = %d, want 3", got)
	}
}

// TestForceEnablesWaveTracing pins the bridge-propagation contract: a wave
// the local sampler would skip becomes sampled once a bridge forces it, and
// forcing is what flips a rate-0 tracer to Enabled.
func TestForceEnablesWaveTracing(t *testing.T) {
	tr := NewTracer(0)
	if tr.Enabled() {
		t.Fatal("rate-0 tracer enabled before any force")
	}
	tr.Force(7, 3)
	if !tr.Enabled() {
		t.Error("forced wave did not enable the tracer")
	}
	if !tr.Sampled(event.WaveTag{Root: 7, RootSeq: 3}) {
		t.Error("forced wave not sampled")
	}
	if tr.Sampled(event.WaveTag{Root: 7, RootSeq: 4}) {
		t.Error("unforced wave sampled on a rate-0 tracer")
	}
	// Forcing is idempotent: re-forcing must not consume another slot.
	tr.Force(7, 3)
	tr.Force(7, 3)
	if got := tr.forcedN.Load(); got != 1 {
		t.Errorf("re-forcing grew the forced count to %d, want 1", got)
	}

	// Firings of a forced wave are recorded like any sampled wave's, and
	// only those.
	e := NewEngine(Options{})
	e.traceForced(7, 3, 0)
	for _, seq := range []uint64{3, 4} {
		trigger := &event.Event{Wave: event.WaveTag{Root: 7, RootSeq: seq}}
		e.FiringObserved("recv", trigger, nil, time.Now(), 0, 0, 1)
	}
	if hops := e.Lineage().Wave(7, 3); len(hops) != 1 || hops[0].Actor != "recv" {
		t.Errorf("forced wave hops = %+v", hops)
	}
	if hops := e.Lineage().Wave(7, 4); hops != nil {
		t.Errorf("unforced wave recorded on a rate-0 engine: %+v", hops)
	}

	var nilT *Tracer
	nilT.Force(1, 2) // must not panic
}

// TestForceTableOverwriteKeepsNewest floods the forced-wave table far past
// its capacity: Force stays best-effort (newest wins its home slot, no
// unbounded growth) and never makes an unforced wave read as sampled.
func TestForceTableOverwriteKeepsNewest(t *testing.T) {
	tr := NewTracer(0)
	const n = forcedSlots * 4
	for i := 0; i < n; i++ {
		tr.Force(int64(i), uint64(i))
	}
	// The table is fixed-size: the probe windows fill and overwrite.
	forced := 0
	for i := 0; i < n; i++ {
		if tr.Sampled(event.WaveTag{Root: int64(i), RootSeq: uint64(i)}) {
			forced++
		}
	}
	if forced == 0 || forced > forcedSlots {
		t.Errorf("%d of %d flooded waves still forced, want (0, %d]", forced, n, forcedSlots)
	}
	// False positives stay impossible: waves never forced never sample.
	for i := n; i < n+1000; i++ {
		if tr.Sampled(event.WaveTag{Root: int64(i), RootSeq: uint64(i)}) {
			t.Fatalf("never-forced wave %d reads as sampled", i)
		}
	}
}

// TestForceWithFractionalRate checks forcing composes with a configured
// sample rate rather than replacing it.
func TestForceWithFractionalRate(t *testing.T) {
	tr := NewTracer(0.000001) // samples almost nothing on its own
	w := event.WaveTag{Root: 1_000_003, RootSeq: 5}
	if tr.Sampled(w) {
		t.Skip("wave happens to hash into the sample set")
	}
	tr.Force(w.Root, w.RootSeq)
	if !tr.Sampled(w) {
		t.Error("forced wave not sampled under a fractional rate")
	}
}
