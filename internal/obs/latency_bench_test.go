package obs_test

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

// provBenchSpinSink defeats dead-code elimination of the stages' busy work.
var provBenchSpinSink uint64

// provStageWork approximates the cheap end of a real actor's per-firing
// compute (~2us on this class of machine), matching the QoS bench's
// representative pipeline. The all-overhead mode passes 0.
const provStageWork = 1500

// buildProvBenchPipeline is the recording-overhead pipeline: a source and
// three stages burning stageWork iterations of integer work per token, into
// a sink. With full wave sampling every firing records a hop.
func buildProvBenchPipeline(events, stageWork int) (*model.Workflow, *actors.Collect) {
	wf := model.NewWorkflow("provbench")
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
					provBenchSpinSink += acc
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

// runProvBenchPipeline executes one run under the sequential FIFO director
// and returns the wall time.
func runProvBenchPipeline(tb testing.TB, eng *obs.Engine, events, stageWork int) time.Duration {
	tb.Helper()
	wf, sink := buildProvBenchPipeline(events, stageWork)
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

// latencyEngine builds the engine pair under test: provenance recording at
// the given sampling rate, with the latency profile off or on. The profile's
// marginal per-firing cost is one bounded-ring push per wave endpoint
// (NoteEndpoint); all waterfall analysis is deferred to scrape time, so the
// pair isolates exactly the hot-path addition.
func latencyEngine(withLatency bool, rate float64) *obs.Engine {
	return obs.NewEngine(obs.Options{
		SampleRate: rate, NodeName: "bench",
		Provenance: true, Latency: withLatency,
	})
}

// BenchmarkLatencyOverhead is the latency-attribution overhead pair recorded
// in BENCH_obs.json (make bench-latency): provenance-enabled tracing alone
// versus the same plus the latency profile, on the all-overhead pipeline
// (empty stages, 100% sampling: every nanosecond is engine cost, the worst
// case) and on the representative pipeline (~2us of compute per stage firing
// at 25% sampling — the steady state). The engine persists across runs so
// the profile's endpoint ring and the store's segments stay warm, as
// deployed.
func BenchmarkLatencyOverhead(b *testing.B) {
	const events = 5000
	run := func(b *testing.B, withLatency bool, stageWork int, rate float64) {
		eng := latencyEngine(withLatency, rate)
		runProvBenchPipeline(b, eng, events, stageWork) // warm: segments + ring allocated
		b.ResetTimer()
		var total time.Duration
		for i := 0; i < b.N; i++ {
			total += runProvBenchPipeline(b, eng, events, stageWork)
			eng.ResetLatency() // drain the endpoint ring between runs, as a scrape would
		}
		b.ReportMetric(float64(events)*float64(b.N)/total.Seconds(), "events_per_sec")
	}
	for _, mode := range []struct {
		name      string
		stageWork int
		rate      float64
	}{
		{"allOverhead", 0, 1},
		{"representative", provStageWork, 0.25},
	} {
		b.Run(mode.name+"/prov", func(b *testing.B) { run(b, false, mode.stageWork, mode.rate) })
		b.Run(mode.name+"/prov+latency", func(b *testing.B) { run(b, true, mode.stageWork, mode.rate) })
	}
}
