package qos

import (
	"context"
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/stafilos"
	"repro/internal/value"
	"repro/internal/window"
)

// benchSpinSink defeats dead-code elimination of the stages' busy work.
var benchSpinSink uint64

// representativeStageWork approximates the cheap end of a real actor's
// per-firing compute (~2us on this class of machine — Linear Road's
// segment-statistics and toll stages do at least this much per firing).
// The all-overhead mode passes 0: empty passthroughs, every nanosecond is
// engine + instrumentation cost.
const representativeStageWork = 1500

// buildBenchPipeline mirrors the obs overhead pipeline: passthrough stages
// burning stageWork iterations of integer work per token. The source is
// backdated an hour so the director free-runs instead of pacing event times
// against the wall clock; whether the benchmark SLO judges the resulting
// ~1h latencies good or bad is set by the monitor's threshold (see
// attachBenchMonitor).
func buildBenchPipeline(events, stageWork int) (*model.Workflow, *actors.Collect) {
	wf := model.NewWorkflow("qosbench")
	src := actors.NewGenerator("src", time.Now().Add(-time.Hour), time.Millisecond, events,
		func(i int) value.Value { return value.Int(int64(i)) })
	stage := func(name string) *actors.Func {
		return actors.NewFunc(name, window.Passthrough(),
			func(_ *model.FireContext, w *window.Window, emit func(value.Value)) error {
				for _, tok := range w.Tokens() {
					var acc uint64
					for j := 0; j < stageWork; j++ {
						acc = acc*2654435761 + uint64(j)
					}
					benchSpinSink += acc
					emit(tok)
				}
				return nil
			})
	}
	s1, s2, s3 := stage("stage1"), stage("stage2"), stage("stage3")
	sink := actors.NewCollect("sink")
	wf.MustAdd(src, s1, s2, s3, sink)
	wf.MustConnect(src.Out(), s1.In())
	wf.MustConnect(s1.Out(), s2.In())
	wf.MustConnect(s2.Out(), s3.In())
	wf.MustConnect(s3.Out(), sink.In())
	return wf, sink
}

// runBenchPipeline executes one pipeline run under the sequential FIFO
// director with the given engine attached and returns the wall time.
func runBenchPipeline(tb testing.TB, eng *obs.Engine, events, stageWork int) time.Duration {
	tb.Helper()
	wf, sink := buildBenchPipeline(events, stageWork)
	d := stafilos.NewDirector(sched.NewFIFO(), stafilos.Options{SourceInterval: 5, Obs: eng})
	if err := d.Setup(wf); err != nil {
		tb.Fatal(err)
	}
	start := time.Now()
	if err := d.Run(context.Background()); err != nil {
		tb.Fatal(err)
	}
	elapsed := time.Since(start)
	if len(sink.Tokens) != events {
		tb.Fatalf("sink got %d events, want %d", len(sink.Tokens), events)
	}
	return elapsed
}

// attachBenchMonitor subscribes a monitor with one SLO on the sink. The
// pipeline's backdated source makes every wave ~1h late, so the threshold
// selects the path under test: 10ms marks every sample bad and drives the
// incident machinery (burn evaluation, alert, freeze) continuously — the
// worst case — while 2h keeps every sample good, the healthy steady state a
// deployment pays for around the clock.
func attachBenchMonitor(eng *obs.Engine, healthy bool) *Monitor {
	threshold := 10 * time.Millisecond
	if healthy {
		threshold = 2 * time.Hour
	}
	m := NewMonitor(eng, Options{Logger: discardLogger()})
	m.AddSLO(SLO{Name: "bench", Sink: "sink", Target: 0.99, Threshold: threshold})
	return m
}

// BenchmarkQoSOverhead is the monitor overhead matrix recorded in
// BENCH_qos.json (make bench-qos): engine alone versus engine plus
// subscribed QoS monitor, on the all-overhead pipeline (empty stages and an
// always-violated SLO, so every nanosecond is engine cost and the monitor
// walks its incident path — the worst case) and on the representative
// pipeline (~2us of compute per stage firing and a healthy SLO — the
// monitor's continuous steady-state cost); the all-overhead pair documents
// the worst case.
func BenchmarkQoSOverhead(b *testing.B) {
	const events = 5000
	run := func(b *testing.B, eng *obs.Engine, stageWork int) {
		b.ResetTimer()
		var total time.Duration
		for i := 0; i < b.N; i++ {
			total += runBenchPipeline(b, eng, events, stageWork)
		}
		b.ReportMetric(float64(events)*float64(b.N)/total.Seconds(), "events_per_sec")
	}
	for _, mode := range []struct {
		name      string
		stageWork int
		healthy   bool
	}{
		{"allOverhead", 0, false},
		{"representative", representativeStageWork, true},
	} {
		b.Run(mode.name+"/engine", func(b *testing.B) {
			run(b, obs.NewEngine(obs.Options{SampleRate: 0}), mode.stageWork)
		})
		b.Run(mode.name+"/engine+qos", func(b *testing.B) {
			eng := obs.NewEngine(obs.Options{SampleRate: 0})
			attachBenchMonitor(eng, mode.healthy)
			run(b, eng, mode.stageWork)
		})
	}
}
