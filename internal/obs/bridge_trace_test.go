package obs_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/stafilos"
	"repro/internal/value"
)

// TestCrossBridgeTraceRoundTrip is the distributed provenance acceptance
// test: node A samples every wave and streams events over a real TCP
// bridge to node B, whose own sampler is OFF (rate 0). The trace context
// carried on the wire — traced flag + origin-node ID — must force each
// wave into node B's tracer before its events fire, so both nodes'
// provenance stores end up holding their halves of every lineage, stitched
// by A's node identity.
func TestCrossBridgeTraceRoundTrip(t *testing.T) {
	const n = 50

	// Node B: bridge receiver -> double -> sink. Sampler off: every span it
	// records is there because the bridge forced the wave.
	recv, err := dist.Listen("bridgeIn", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wfB := model.NewWorkflow("nodeB")
	double := actors.NewMap("double", func(v value.Value) value.Value {
		return value.Int(int64(v.(value.Int)) * 2)
	})
	sink := actors.NewCollect("sink")
	wfB.MustAdd(recv, double, sink)
	wfB.MustConnect(recv.Out(), double.In())
	wfB.MustConnect(double.Out(), sink.In())

	// Node A: generator -> bridge sender, sampling everything.
	wfA := model.NewWorkflow("nodeA")
	src := actors.NewGenerator("src", time.Now().Add(-time.Minute), time.Millisecond, n,
		func(i int) value.Value { return value.Int(int64(i)) })
	send := dist.NewSender("bridgeOut", recv.Addr())
	wfA.MustAdd(src, send)
	wfA.MustConnect(src.Out(), send.In())

	engA := obs.NewEngine(obs.Options{SampleRate: 1, NodeName: "ingest", Provenance: true})
	engB := obs.NewEngine(obs.Options{SampleRate: 0, NodeName: "analytics", Provenance: true})

	mkDir := func(e *obs.Engine) *stafilos.Director {
		return stafilos.NewDirector(sched.NewQBS(0), stafilos.Options{SourceInterval: 5, Obs: e})
	}
	dirA, dirB := mkDir(engA), mkDir(engB)
	// Watch auto-wires the bridge halves: A's sender stamps sampled waves
	// with A's node ID, B's receiver forces them into B's tracer + store.
	engA.Watch(wfA.Name(), wfA, nil, dirA)
	engB.Watch(wfB.Name(), wfB, nil, dirB)

	cluster := dist.NewCluster()
	if err := cluster.AddNode("A", wfA, dirA); err != nil {
		t.Fatal(err)
	}
	if err := cluster.AddNode("B", wfB, dirB); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cluster.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if len(sink.Tokens) != n {
		t.Fatalf("sink got %d tokens, want %d", len(sink.Tokens), n)
	}

	// Every wave that reached B's sink must be in B's provenance store —
	// purely by bridge forcing, B's own sampler never fired.
	refs := engB.Lineage().ByActor("sink", time.Time{}, time.Time{}, 0)
	if len(refs) != n {
		t.Fatalf("node B holds %d sink waves, want %d (bridge forcing missed some)", len(refs), n)
	}

	wantOrigin := uint64(dist.NodeIDOf("ingest"))
	for _, ref := range refs {
		// B's half of the lineage: receiver source firing, double, sink.
		hops := engB.Lineage().Wave(ref.Root, ref.RootSeq)
		actorsSeen := map[string]bool{}
		for _, h := range hops {
			actorsSeen[h.Actor] = true
			if h.Node != "analytics" {
				t.Fatalf("node B hop stamped %q, want analytics", h.Node)
			}
		}
		for _, want := range []string{"bridgeIn", "double", "sink"} {
			if !actorsSeen[want] {
				t.Fatalf("wave t%d-%d missing %s hop on node B: %v", ref.Root, ref.RootSeq, want, actorsSeen)
			}
		}
		// The stitch: B knows which node the wave arrived from.
		origin, ok := engB.Lineage().Origin(ref.Root, ref.RootSeq)
		if !ok {
			t.Fatalf("wave t%d-%d has no recorded origin on node B", ref.Root, ref.RootSeq)
		}
		if origin != wantOrigin {
			t.Fatalf("wave t%d-%d origin = %#x, want %#x (ingest)", ref.Root, ref.RootSeq, origin, wantOrigin)
		}
		// A's half: the source firing and the bridge-out hop for the SAME
		// wave identity — together the two stores answer the full
		// "which inputs produced this output?" walk.
		hopsA := engA.Lineage().Wave(ref.Root, ref.RootSeq)
		if len(hopsA) == 0 {
			t.Fatalf("wave t%d-%d has no lineage on node A", ref.Root, ref.RootSeq)
		}
		actorsA := map[string]bool{}
		for _, h := range hopsA {
			actorsA[h.Actor] = true
			if h.Node != "ingest" {
				t.Fatalf("node A hop stamped %q, want ingest", h.Node)
			}
		}
		if !actorsA["src"] || !actorsA["bridgeOut"] {
			t.Fatalf("wave t%d-%d node A lineage = %v, want src and bridgeOut", ref.Root, ref.RootSeq, actorsA)
		}
	}

	// The receiver's tracer enabled itself purely through forcing.
	if !engB.Tracer().Enabled() {
		t.Error("node B tracer not enabled after bridge forcing")
	}

	// Satellite: the bridge's transport counters surface as Prometheus
	// series on the watching engine.
	addr, err := engB.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer engB.Close()
	body, code := get(t, "http://"+addr+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		`confluence_bridge_received_total{actor="bridgeIn"} 50`,
		`confluence_bridge_dropped_total{actor="bridgeIn"} 0`,
		`confluence_bridge_decode_errors_total{actor="bridgeIn"} 0`,
		`confluence_bridge_seq_gaps_total{actor="bridgeIn"} 0`,
		`confluence_bridge_watermark{actor="bridgeIn"}`,
		`confluence_bridge_ring_capacity{actor="bridgeIn"}`,
		"confluence_prov_recorded_total",
		"confluence_prov_resident_hops",
		"confluence_trace_forced_waves_total 50",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
