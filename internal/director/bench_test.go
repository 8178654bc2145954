// Microbenchmarks for the engine hot path: broadcast fan-out, receiver
// puts, timekeeper stamping, and an end-to-end pipeline-throughput
// benchmark reporting events_per_sec. The recorded end-to-end figure is the
// benchmark's drain_eps on pipe_pncwf; these locate a change by layer.
package director

import (
	"context"
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/model"
	"repro/internal/value"
	"repro/internal/window"
)

// benchEvents builds n pre-stamped external events.
func benchEvents(n int) []*event.Event {
	tk := event.NewTimekeeper()
	base := time.Unix(0, 0)
	evs := make([]*event.Event, n)
	for i := range evs {
		evs[i] = tk.External(value.Int(int64(i)), base.Add(time.Duration(i)*time.Millisecond))
	}
	return evs
}

// BenchmarkReceiverPut measures per-event delivery into a BlockingReceiver
// with passthrough semantics — the unbatched hot path.
func BenchmarkReceiverPut(b *testing.B) {
	clk := clock.NewVirtual()
	r := NewBlockingReceiver(window.Passthrough(), clk)
	evs := benchEvents(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Put(evs[i%len(evs)])
		if len(r.ready.q) >= 4096 {
			r.ready.q = r.ready.q[:0]
		}
	}
}

// BenchmarkReceiverPutBatch measures the same delivery through the batched
// path: 64 events per lock acquisition.
func BenchmarkReceiverPutBatch(b *testing.B) {
	clk := clock.NewVirtual()
	r := NewBlockingReceiver(window.Passthrough(), clk)
	evs := benchEvents(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.PutBatch(evs)
		r.ready.q = r.ready.q[:0]
	}
	b.ReportMetric(64, "events/op")
}

// BenchmarkRingReceiverPut measures per-event delivery into the lock-free
// RingReceiver with passthrough semantics, drained and recycled in batches
// of 64 — the engine's current hot path, comparable to BenchmarkReceiverPut.
func BenchmarkRingReceiverPut(b *testing.B) {
	clk := clock.NewVirtual()
	pool := event.NewPool(1024)
	r := NewRingReceiver(window.Passthrough(), clk, pool, false, 0)
	evs := benchEvents(256)
	var buf []*window.Window
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Put(evs[i%len(evs)])
		if i%64 == 63 {
			ws, _ := r.GetBatch(buf[:0], 64)
			buf = ws
			r.Recycle(ws)
		}
	}
}

// BenchmarkBroadcastBatchFanout measures one output port delivering a
// firing's 64-event emission set to 4 downstream passthrough ring receivers:
// one BroadcastBatch call delivers the whole set to each destination. Each
// iteration drains and recycles every destination — leaving the rings full
// would push deliveries onto the overflow slow path and grow it without
// bound.
func BenchmarkBroadcastBatchFanout(b *testing.B) {
	clk := clock.NewVirtual()
	pool := event.NewPool(1024)
	wf := model.NewWorkflow("fanout")
	src := actors.NewSource("src", actors.NewSliceFeed(nil), 0)
	wf.MustAdd(src)
	sinks := make([]*actors.Collect, 4)
	recvs := make([]*RingReceiver, 4)
	bufs := make([][]*window.Window, 4)
	for i := range sinks {
		sinks[i] = actors.NewCollect("sink" + string(rune('A'+i)))
		wf.MustAdd(sinks[i])
		wf.MustConnect(src.Out(), sinks[i].In())
		recvs[i] = NewRingReceiver(window.Passthrough(), clk, pool, false, 0)
		sinks[i].In().SetReceiver(recvs[i])
	}
	evs := benchEvents(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Out().BroadcastBatch(evs)
		for j, r := range recvs {
			ws, _ := r.GetBatch(bufs[j][:0], len(evs))
			bufs[j] = ws
			r.Recycle(ws)
		}
	}
	b.ReportMetric(float64(len(evs)*4), "deliveries/op")
}

// BenchmarkTimekeeperStamp measures stamping a 64-event emission set inside
// one firing (BeginFiring / 64×Stamp / EndFiring), the allocation-heavy
// part of every firing.
func BenchmarkTimekeeperStamp(b *testing.B) {
	tk := event.NewTimekeeper()
	base := time.Unix(0, 0)
	trigger := tk.External(value.Int(0), base)
	tok := value.Int(42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.BeginFiring(trigger)
		for j := 0; j < 64; j++ {
			tk.Stamp(tok, base)
		}
		out := tk.EndFiring()
		if len(out) != 64 {
			b.Fatal("short firing")
		}
	}
}

// BenchmarkPipelineThroughput runs a 4-stage pipeline (source → map →
// filter → sink) under the thread-based PNCWF director and reports
// events_per_sec: the number of source events pushed through the whole
// pipeline per wall-clock second. The recorded figure for this pipeline is
// drain_eps on the benchmark's pipe_pncwf workload.
func BenchmarkPipelineThroughput(b *testing.B) {
	const events = 20000
	b.ResetTimer()
	var total time.Duration
	for i := 0; i < b.N; i++ {
		items := make([]actors.Item, events)
		base := time.Now().Add(-time.Hour)
		for j := range items {
			items[j] = actors.Item{Tok: value.Int(int64(j)), Time: base.Add(time.Duration(j) * time.Microsecond)}
		}
		wf := model.NewWorkflow("pipeline")
		src := actors.NewSource("src", actors.NewSliceFeed(items), 64)
		mp := actors.NewMap("map", func(v value.Value) value.Value { return v })
		fl := actors.NewFilter("filter", func(v value.Value) bool { return true })
		sink := actors.NewCollect("sink")
		wf.MustAdd(src, mp, fl, sink)
		wf.MustConnect(src.Out(), mp.In())
		wf.MustConnect(mp.Out(), fl.In())
		wf.MustConnect(fl.Out(), sink.In())

		d := NewPNCWF(PNCWFOptions{})
		if err := d.Setup(wf); err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		if err := d.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		total += time.Since(start)
		if len(sink.Tokens) != events {
			b.Fatalf("sink got %d events, want %d", len(sink.Tokens), events)
		}
	}
	b.ReportMetric(float64(events)*float64(b.N)/total.Seconds(), "events_per_sec")
}
