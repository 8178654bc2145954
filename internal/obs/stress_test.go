package obs_test

import (
	"context"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/prov"
	"repro/internal/sched"
	"repro/internal/stafilos"
	"repro/internal/stats"
	"repro/internal/value"
	"repro/internal/window"
)

// buildObsPipeline assembles the linear src -> stage1..3 -> sink pipeline the
// observability tests run: a back-dated source so every event is immediately
// due, passthrough stages so each external event is one wave with exactly
// five hops.
func buildObsPipeline(events int, stageDelay time.Duration) (*model.Workflow, *actors.Collect) {
	wf := model.NewWorkflow("obswf")
	src := actors.NewGenerator("src", time.Now().Add(-time.Hour), time.Millisecond, events,
		func(i int) value.Value { return value.Int(int64(i)) })
	stage := func(name string) *actors.Func {
		return actors.NewFunc(name, window.Passthrough(),
			func(_ *model.FireContext, w *window.Window, emit func(value.Value)) error {
				if stageDelay > 0 {
					time.Sleep(stageDelay)
				}
				for _, tok := range w.Tokens() {
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

// TestTraceRingUnderParallelExecutor races the lineage store and the
// telemetry registry against an 8-worker parallel run: directors record hops
// and histogram samples from every worker while reader goroutines hammer the
// lookup and scrape paths. Run under -race this is the data-race proof for
// the lock-striped store; afterwards it checks a wave's lineage is the full
// five-hop actor path in order.
func TestTraceRingUnderParallelExecutor(t *testing.T) {
	const events = 300
	// Waves hash to 16 stripes; provenance retention gives every stripe
	// room for all hops of the run (5 per wave) so eviction cannot eat a
	// lineage even if the hash distributes unevenly.
	eng := obs.NewEngine(obs.Options{SampleRate: 1, Provenance: true})
	if got := eng.Lineage().Stats().CapacityHops / prov.Stripes; got < 5*events {
		t.Fatalf("stripe capacity %d < %d hops of the run", got, 5*events)
	}
	st := stats.NewRegistry()
	wf, sink := buildObsPipeline(events, 0)
	d := stafilos.NewParallelDirector(sched.NewFIFO(),
		stafilos.Options{SourceInterval: 5, Stats: st, Obs: eng}, 8)
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	eng.Watch(wf.Name(), wf, st, d)

	done := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, ref := range eng.Lineage().Recent(50) {
					eng.Lineage().Wave(ref.Root, ref.RootSeq)
				}
				if err := eng.Registry().WritePrometheus(io.Discard); err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
			}
		}()
	}

	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(done)
	readers.Wait()

	if len(sink.Tokens) != events {
		t.Fatalf("sink got %d events, want %d", len(sink.Tokens), events)
	}

	// Every wave was sampled and the store is big enough to hold them all:
	// at least one wave must show the complete lineage.
	want := []string{"src", "stage1", "stage2", "stage3", "sink"}
	refs := eng.Lineage().Recent(0)
	if len(refs) == 0 {
		t.Fatal("no waves recorded")
	}
	full := 0
	for _, ref := range refs {
		id := obs.FormatWaveID(ref.Root, ref.RootSeq)
		spans := eng.Lineage().Wave(ref.Root, ref.RootSeq)
		if len(spans) != len(want) {
			continue
		}
		ok := true
		for i, s := range spans {
			if s.Actor != want[i] {
				ok = false
				break
			}
		}
		if !ok {
			t.Errorf("wave %s path out of order: %v", id, actorsOf(spans))
			continue
		}
		full++
		// Downstream hops carry the trigger wave and a non-negative queue wait.
		for _, s := range spans[1:] {
			if s.In.Root != ref.Root {
				t.Errorf("wave %s: span %s In.Root = %d", id, s.Actor, s.In.Root)
			}
			if s.QueueWait < 0 {
				t.Errorf("wave %s: span %s negative queue wait %v", id, s.Actor, s.QueueWait)
			}
		}
	}
	if full != events {
		t.Errorf("complete five-hop lineages: %d, want %d", full, events)
	}
}

func actorsOf(spans []prov.Hop) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Actor
	}
	return out
}
