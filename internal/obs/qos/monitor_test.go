package qos

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/event"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/stafilos"
	"repro/internal/stats"
	"repro/internal/value"
	"repro/internal/window"
)

// TestFirstPickIsRecorded pins the pick-sampling phase: an alert can raise at
// the first bad wave, before pickSampleEvery picks exist, and the dump it
// freezes must still show the scheduler picking.
func TestFirstPickIsRecorded(t *testing.T) {
	m := NewMonitor(nil, Options{Logger: discardLogger()})
	for i := 0; i < pickSampleEvery+1; i++ {
		m.QoSDecision(obs.DecisionPick, "stage")
	}
	m.rec.Freeze("test", "slo", nil)
	if got := len(m.Frozen().Decisions); got != 2 {
		t.Fatalf("%d picks recorded %d decisions, want 2 (picks 1 and %d)",
			pickSampleEvery+1, got, pickSampleEvery+1)
	}
}

// TestMonitorRaisesFreezesAndServes drives the full alert flow through the
// engine's hook stream on a synthetic clock: scheduler decisions stream into
// the recorder, 20 deadline-missing sink firings raise the burn-rate alert,
// the raise freezes a non-empty flight recorder, and /slo,
// /debug/flightrecorder and /metrics all serve the resulting state.
func TestMonitorRaisesFreezesAndServes(t *testing.T) {
	eng := obs.NewEngine(obs.Options{SampleRate: 1})
	m := NewMonitor(eng, Options{Logger: discardLogger()})
	m.SetPolicy("QBS")
	m.AddSLO(testSLO())

	serve := func(path string) (string, int) {
		rr := httptest.NewRecorder()
		eng.Handler().ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		return rr.Body.String(), rr.Code
	}

	if _, code := serve("/debug/flightrecorder"); code != 404 {
		t.Fatalf("/debug/flightrecorder before any alert: status %d, want 404", code)
	}

	for i := 0; i < 50; i++ {
		eng.PickObserved("stage")
		eng.ParkObserved("sink")
	}
	eng.ClaimObserved("", time.Millisecond)

	// 20 sink firings, each missing the 10ms deadline by 40ms, 300ms apart
	// in engine time.
	now := time.Unix(2000, 0)
	for i := 0; i < 20; i++ {
		ev := &event.Event{Time: now, Wave: event.WaveTag{Root: now.UnixNano(), RootSeq: uint64(i)}}
		eng.FiringObserved("sink", ev, nil, now.Add(50*time.Millisecond),
			time.Millisecond, 5*time.Millisecond, 1)
		now = now.Add(300 * time.Millisecond)
	}

	rep := m.Snapshot()
	if rep.Policy != "QBS" {
		t.Errorf("policy = %q, want QBS", rep.Policy)
	}
	if len(rep.Sinks) != 1 || rep.Sinks[0].Sink != "sink" {
		t.Fatalf("sinks = %+v, want one tracker for sink", rep.Sinks)
	}
	sr := rep.Sinks[0]
	if sr.Count != 20 || sr.MaxSeconds != 0.05 {
		t.Errorf("sink window count=%d max=%v, want 20 and 0.05", sr.Count, sr.MaxSeconds)
	}
	if sr.P50Seconds < 0.025 || sr.P50Seconds > 0.1 {
		t.Errorf("p50 = %v, want within 2x of the true 0.05", sr.P50Seconds)
	}
	if len(rep.SLOs) != 1 {
		t.Fatalf("slos = %+v, want one", rep.SLOs)
	}
	slo := rep.SLOs[0]
	if !slo.Firing || slo.AlertsTotal != 1 || slo.RaisedAt == "" {
		t.Fatalf("slo = %+v, want firing with one alert", slo)
	}
	if slo.FastBurn < slo.BurnThreshold || slo.FastTotal != 20 || slo.FastGood != 0 {
		t.Errorf("slo burn state = %+v", slo)
	}
	if !rep.FlightRecorder.Frozen || rep.FlightRecorder.SLO != "test" {
		t.Errorf("flight recorder report = %+v, want frozen by slo test", rep.FlightRecorder)
	}

	d := m.Frozen()
	if d == nil {
		t.Fatal("no flight-recorder dump after the alert raised")
	}
	if d.SLO != "test" || d.Reason == "" {
		t.Errorf("dump attribution = %q/%q", d.SLO, d.Reason)
	}
	kinds := map[string]bool{}
	for _, dec := range d.Decisions {
		kinds[dec.Kind] = true
	}
	for _, want := range []string{"pick", "park", "claim-empty"} {
		if !kinds[want] {
			t.Errorf("dump decisions missing kind %q (have %v)", want, kinds)
		}
	}
	if len(d.Waves) == 0 {
		t.Error("dump carries no sampled wave lineages")
	}

	// The mounted endpoints serve the same state.
	body, code := serve("/slo")
	if code != 200 {
		t.Fatalf("/slo status %d", code)
	}
	var served Report
	if err := json.Unmarshal([]byte(body), &served); err != nil {
		t.Fatalf("/slo JSON: %v\n%s", err, body)
	}
	if !served.SLOs[0].Firing || served.Policy != "QBS" {
		t.Errorf("/slo = %+v", served)
	}
	body, code = serve("/debug/flightrecorder")
	if code != 200 {
		t.Fatalf("/debug/flightrecorder status %d: %s", code, body)
	}
	var dumped struct {
		SLO       string     `json:"slo"`
		Decisions []Decision `json:"decisions"`
	}
	if err := json.Unmarshal([]byte(body), &dumped); err != nil {
		t.Fatalf("/debug/flightrecorder JSON: %v", err)
	}
	if dumped.SLO != "test" || len(dumped.Decisions) == 0 {
		t.Errorf("/debug/flightrecorder = slo %q with %d decisions", dumped.SLO, len(dumped.Decisions))
	}
	body, code = serve("/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		`confluence_qos_latency_count{sink="sink"} 20`,
		`confluence_qos_latency_p99_seconds{sink="sink"}`,
		`confluence_qos_slo_firing{slo="test"} 1`,
		`confluence_qos_slo_alerts_total{slo="test"} 1`,
		`confluence_qos_slo_fast_burn{slo="test"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Reset clears windows, alert state and the dump (cumulative alert
	// counts survive); with no data the engine-time watermark falls back to
	// wall clock, far from the synthetic samples.
	m.Reset()
	rep = m.Snapshot()
	if rep.Sinks[0].Count != 0 {
		t.Errorf("sink count after reset = %d", rep.Sinks[0].Count)
	}
	if rep.SLOs[0].Firing || rep.SLOs[0].FastTotal != 0 {
		t.Errorf("slo after reset = %+v", rep.SLOs[0])
	}
	if rep.SLOs[0].AlertsTotal != 1 {
		t.Errorf("alerts_total after reset = %d, want the cumulative 1", rep.SLOs[0].AlertsTotal)
	}
	if m.Frozen() != nil || rep.FlightRecorder.Frozen {
		t.Error("flight recorder still frozen after reset")
	}
}

func TestBottleneckSelection(t *testing.T) {
	var tracks sync.Map
	slow := &actorTrack{}
	slow.observeWait(100 * time.Millisecond)
	fast := &actorTrack{}
	fast.observeWait(time.Millisecond)
	tracks.Store("slow", slow)
	tracks.Store("fast", fast)

	depths := func(yield func(string, int, int)) {
		yield("slow", 4, 0)     // 4 ready x 0.1s wait = 0.4
		yield("fast", 100, 0)   // 100 x 0.001 = 0.1
		yield("idle", 0, 3)     // no ready windows: not a bottleneck
		yield("unknown", 50, 0) // no wait watermark yet: score 0
	}
	b := bottleneckOf(&tracks, depths)
	if b.Actor != "slow" || b.Ready != 4 {
		t.Fatalf("bottleneck = %+v, want slow with 4 ready", b)
	}
	if math.Abs(b.Score-0.4) > 1e-9 || math.Abs(b.QueueWaitSeconds-0.1) > 1e-9 {
		t.Errorf("bottleneck score = %+v", b)
	}
	if b := bottleneckOf(&tracks, nil); b.Actor != "" {
		t.Errorf("nil depth sampler produced %+v", b)
	}
	if b := bottleneckOf(&tracks, func(func(string, int, int)) {}); b.Actor != "" {
		t.Errorf("empty depth sample produced %+v", b)
	}
}

func TestObserveWaitEWMA(t *testing.T) {
	var tr actorTrack
	tr.observeWait(time.Second)
	if got := tr.wait(); got != 1.0 {
		t.Fatalf("first sample should seed the EWMA, got %v", got)
	}
	tr.observeWait(0)
	if got := tr.wait(); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("EWMA after 1s,0s = %v, want 0.8 (alpha %v)", got, waitAlpha)
	}
}

// TestMonitorUnderParallelExecutor is the race-detector stress for the QoS
// hot path: an 8-worker parallel run with the monitor attached and a
// backdated source, so every wave misses its deadline and the alert (and its
// recorder freeze) fires while workers are mid-flight. Concurrent scraper
// goroutines hammer Snapshot/Bottleneck/Frozen throughout. Run under -race
// this is the data-race proof for the sketch ring, the SLO windows and the
// striped recorder; afterwards it checks the overload left a live alert and
// a non-empty dump covering the violation.
func TestMonitorUnderParallelExecutor(t *testing.T) {
	eng := obs.NewEngine(obs.Options{SampleRate: 1})
	m := NewMonitor(eng, Options{Logger: discardLogger()})
	m.SetPolicy("FIFO")
	m.AddSLO(SLO{
		Name: "stress", Sink: "sink", Target: 0.99, Threshold: 10 * time.Millisecond,
		MinSamples: 1, // raise on the first bad wave, mid-run
	})

	const events = 400
	st := stats.NewRegistry()
	wf := model.NewWorkflow("qoswf")
	src := actors.NewGenerator("src", time.Now().Add(-time.Hour), time.Millisecond, events,
		func(i int) value.Value { return value.Int(int64(i)) })
	stage := actors.NewFunc("stage", window.Passthrough(),
		func(_ *model.FireContext, w *window.Window, emit func(value.Value)) error {
			time.Sleep(100 * time.Microsecond)
			for _, tok := range w.Tokens() {
				emit(tok)
			}
			return nil
		})
	sink := actors.NewCollect("sink")
	wf.MustAdd(src, stage, sink)
	wf.MustConnect(src.Out(), stage.In())
	wf.MustConnect(stage.Out(), sink.In())
	d := stafilos.NewParallelDirector(sched.NewFIFO(),
		stafilos.Options{SourceInterval: 5, Stats: st, Obs: eng}, 8)
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	eng.Watch(wf.Name(), wf, st, d)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					m.Snapshot()
					m.Bottleneck()
					m.Frozen()
				}
			}
		}()
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if len(sink.Tokens) != events {
		t.Fatalf("sink got %d events, want %d", len(sink.Tokens), events)
	}
	rep := m.Snapshot()
	if len(rep.Sinks) != 1 || rep.Sinks[0].Count == 0 {
		t.Fatalf("sink window = %+v, want samples", rep.Sinks)
	}
	// The source is backdated an hour, so end-to-end latency is ~3600s.
	if rep.Sinks[0].P99Seconds < 3000 {
		t.Errorf("p99 = %vs, want ~3600s from the backdated source", rep.Sinks[0].P99Seconds)
	}
	slo := rep.SLOs[0]
	if !slo.Firing || slo.AlertsTotal == 0 {
		t.Fatalf("slo after overload = %+v, want a firing alert", slo)
	}
	dump := m.Frozen()
	if dump == nil {
		t.Fatal("no flight-recorder dump after the mid-run alert")
	}
	if len(dump.Decisions) == 0 || len(dump.Waves) == 0 {
		t.Fatalf("dump = %d decisions, %d waves; want both non-empty",
			len(dump.Decisions), len(dump.Waves))
	}
	hasPick := false
	for _, dec := range dump.Decisions {
		if dec.Kind == "pick" {
			hasPick = true
			break
		}
	}
	if !hasPick {
		t.Error("dump carries no pick decisions from the live scheduler")
	}
}
