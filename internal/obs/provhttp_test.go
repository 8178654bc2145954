package obs_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/obs/prov"
	"repro/internal/sched"
	"repro/internal/stafilos"
	"repro/internal/stats"
)

// seedLineage records one wave's 2-hop lineage into an engine's store with
// controlled start times, as if the engine's FiringObserved had run.
func seedLineage(e *obs.Engine, node string, root int64, rootSeq uint64, base time.Time, actors ...string) {
	for i, a := range actors {
		h := prov.Hop{
			Node: node, Actor: a, Root: root, RootSeq: rootSeq,
			Start: base.Add(time.Duration(i) * time.Millisecond),
			Cost:  time.Microsecond,
		}
		if i > 0 {
			h.In = event.WaveTag{Root: root, RootSeq: rootSeq, Path: pathOfDepth(i - 1)}
		}
		h.Out = event.WaveTag{Root: root, RootSeq: rootSeq, Path: pathOfDepth(i)}
		e.Lineage().Record(h)
	}
}

// pathOfDepth builds the wave path [1 1 ... 1] of the given depth.
func pathOfDepth(d int) []int {
	p := make([]int, d)
	for i := range p {
		p[i] = 1
	}
	return p
}

// TestProvenanceEndpoint exercises the /provenance query API end to end on
// one node: the index view, wave lineage, ancestor/descendant walks, the
// sink + time-window index, and every malformed-query rejection.
func TestProvenanceEndpoint(t *testing.T) {
	e := obs.NewEngine(obs.Options{SampleRate: 1, NodeName: "solo", Provenance: true})
	addr, err := e.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	base := "http://" + addr

	now := time.Now().Add(-time.Minute)
	seedLineage(e, "solo", 7, 1, now, "src", "stage", "sink")
	seedLineage(e, "solo", 8, 0, now.Add(time.Second), "src", "stage", "sink")

	// Index: store stats plus recent waves, newest recorded first.
	var idx struct {
		Node   string `json:"node"`
		NodeID string `json:"node_id"`
		Stats  struct {
			Recorded int64 `json:"recorded"`
			Resident int64 `json:"resident"`
		} `json:"stats"`
		Waves []struct {
			ID   string `json:"id"`
			Hops int    `json:"hops"`
		} `json:"waves"`
	}
	body, code := get(t, base+"/provenance")
	if code != http.StatusOK {
		t.Fatalf("/provenance status %d", code)
	}
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatalf("/provenance JSON: %v\n%s", err, body)
	}
	if idx.Node != "solo" || !strings.HasPrefix(idx.NodeID, "node-") {
		t.Errorf("index = node %q node_id %q", idx.Node, idx.NodeID)
	}
	if idx.Stats.Recorded != 6 || idx.Stats.Resident != 6 {
		t.Errorf("stats = %+v, want 6 recorded/resident", idx.Stats)
	}
	if len(idx.Waves) != 2 || idx.Waves[0].ID != "t8-0" || idx.Waves[0].Hops != 3 {
		t.Errorf("index waves = %+v, want t8-0 (3 hops) first", idx.Waves)
	}

	// One wave's lineage in record order.
	var wave struct {
		Node string `json:"node"`
		Wave struct {
			ID     string `json:"id"`
			Origin string `json:"origin"`
			Hops   []struct {
				Node  string `json:"node"`
				Actor string `json:"actor"`
				In    string `json:"in"`
				Out   string `json:"out"`
			} `json:"hops"`
		} `json:"wave"`
	}
	body, code = get(t, base+"/provenance?wave=t7-1")
	if code != http.StatusOK {
		t.Fatalf("wave query status %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &wave); err != nil {
		t.Fatalf("wave JSON: %v\n%s", err, body)
	}
	if wave.Wave.ID != "t7-1" || len(wave.Wave.Hops) != 3 {
		t.Fatalf("wave = %+v", wave.Wave)
	}
	if wave.Wave.Origin != "" {
		t.Errorf("local wave reports origin %q", wave.Wave.Origin)
	}
	for i, want := range []string{"src", "stage", "sink"} {
		if wave.Wave.Hops[i].Actor != want {
			t.Errorf("hop[%d] = %s, want %s", i, wave.Wave.Hops[i].Actor, want)
		}
	}

	// Ancestor walk anchored at the sink's input event.
	body, code = get(t, base+"/provenance?wave=t7-1&walk=ancestors&path=1.1")
	if code != http.StatusOK {
		t.Fatalf("ancestors status %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &wave); err != nil {
		t.Fatal(err)
	}
	if len(wave.Wave.Hops) != 3 {
		t.Fatalf("ancestors of [1 1] = %d hops, want 3 (src, stage, sink's producer set)", len(wave.Wave.Hops))
	}

	// Descendant walk from the stage's emission.
	body, code = get(t, base+"/provenance?wave=t7-1&walk=descendants&path=1")
	if code != http.StatusOK {
		t.Fatalf("descendants status %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &wave); err != nil {
		t.Fatal(err)
	}
	if len(wave.Wave.Hops) != 1 || wave.Wave.Hops[0].Actor != "sink" {
		t.Fatalf("descendants of [1] = %+v, want just the sink hop", wave.Wave.Hops)
	}

	// Sink index with a window that excludes the second wave.
	var sinkIdx struct {
		Sink  string `json:"sink"`
		Waves []struct {
			ID string `json:"id"`
		} `json:"waves"`
	}
	until := now.Add(500 * time.Millisecond).UTC().Format(time.RFC3339Nano)
	body, code = get(t, base+"/provenance?sink=sink&until="+until)
	if code != http.StatusOK {
		t.Fatalf("sink query status %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &sinkIdx); err != nil {
		t.Fatal(err)
	}
	if len(sinkIdx.Waves) != 1 || sinkIdx.Waves[0].ID != "t7-1" {
		t.Errorf("windowed sink index = %+v, want just t7-1", sinkIdx.Waves)
	}
	// Unix-seconds timestamps are accepted too.
	body, _ = get(t, base+"/provenance?sink=sink&since=0")
	if err := json.Unmarshal([]byte(body), &sinkIdx); err != nil {
		t.Fatal(err)
	}
	if len(sinkIdx.Waves) != 2 {
		t.Errorf("since=0 sink index = %d waves, want 2", len(sinkIdx.Waves))
	}

	// Rejections and misses.
	for path, want := range map[string]int{
		"/provenance?limit=0":                 http.StatusBadRequest,
		"/provenance?limit=nope":              http.StatusBadRequest,
		"/provenance?wave=bogus":              http.StatusBadRequest,
		"/provenance?wave=t7&walk=ancestors":  http.StatusBadRequest, // walks need -rootseq
		"/provenance?wave=t7&scope=cluster":   http.StatusBadRequest, // so does the fan-out
		"/provenance?wave=t999":               http.StatusNotFound,
		"/provenance?wave=t7-1&walk=banana":   http.StatusBadRequest,
		"/provenance?wave=t7-1&path=x":        http.StatusBadRequest,
		"/provenance?sink=sink&since=garbage": http.StatusBadRequest,
		"/provenance?wave=t999-9":             http.StatusNotFound,
	} {
		if _, code := get(t, base+path); code != want {
			t.Errorf("GET %s status %d, want %d", path, code, want)
		}
	}
}

// TestProvenanceDisabledEngine pins what Provenance: false still means:
// the store keeps the newest 4096 hops instead of ~65K, and nothing else
// changes — a traced firing is recorded and /provenance serves it.
func TestProvenanceDisabledEngine(t *testing.T) {
	e := obs.NewEngine(obs.Options{SampleRate: 1})
	if got := e.Lineage().Stats().CapacityHops; got != 4096 {
		t.Errorf("retention with Provenance off = %d hops, want 4096", got)
	}
	if on := obs.NewEngine(obs.Options{Provenance: true}); on.Lineage().Stats().CapacityHops <= 4096 {
		t.Errorf("retention with Provenance on = %d hops, want the larger default", on.Lineage().Stats().CapacityHops)
	}
	addr, err := e.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	trigger := &event.Event{Wave: event.WaveTag{Root: 1}}
	e.FiringObserved("sink", trigger, nil, time.Now(), 0, 0, 1)
	body, code := get(t, "http://"+addr+"/provenance")
	if code != http.StatusOK {
		t.Fatalf("/provenance status %d", code)
	}
	var idx struct {
		Stats prov.Stats `json:"stats"`
		Waves []struct {
			ID string `json:"id"`
		} `json:"waves"`
	}
	if err := json.Unmarshal([]byte(body), &idx); err != nil || idx.Stats.Recorded != 1 ||
		len(idx.Waves) != 1 || idx.Waves[0].ID != "t1-0" {
		t.Errorf("index with Provenance off = %s (err %v)", body, err)
	}
	if _, code := get(t, "http://"+addr+"/provenance?wave=t1-0"); code != http.StatusOK {
		t.Errorf("wave query with Provenance off status %d, want 200", code)
	}
}

// TestProvenanceWaveByRoot pins the two id forms that carry no sequence
// number: a bare t<root> and a rendered wave-tag t<root>.<path>* both
// answer with every wave under that root.
func TestProvenanceWaveByRoot(t *testing.T) {
	e := obs.NewEngine(obs.Options{SampleRate: 1})
	addr, err := e.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	base := time.Now().Add(-time.Minute)
	seedLineage(e, "", 7, 1, base, "src", "sink")
	seedLineage(e, "", 7, 2, base.Add(time.Second), "src", "sink")
	seedLineage(e, "", 8, 0, base.Add(2*time.Second), "src", "sink")

	for _, id := range []string{"t7", "t7.1.1*", "t7.1"} {
		body, code := get(t, "http://"+addr+"/provenance?wave="+url.QueryEscape(id))
		if code != http.StatusOK {
			t.Fatalf("wave=%s status %d: %s", id, code, body)
		}
		var out struct {
			Waves []struct {
				ID   string `json:"id"`
				Hops []struct {
					Actor string `json:"actor"`
				} `json:"hops"`
			} `json:"waves"`
		}
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatalf("wave=%s JSON: %v\n%s", id, err, body)
		}
		ids := map[string]int{}
		for _, w := range out.Waves {
			ids[w.ID] = len(w.Hops)
		}
		if len(ids) != 2 || ids["t7-1"] != 2 || ids["t7-2"] != 2 {
			t.Errorf("wave=%s = %v, want t7-1 and t7-2 with 2 hops each", id, ids)
		}
	}
}

// TestClusterScopeAndRollup spins two served engines pointed at each other
// and checks the cross-node surfaces: a cluster-scoped wave query merges
// both nodes' hops ordered by wall-clock time with the origin stitched in,
// /cluster rolls both nodes up with counter totals, and /cluster/metrics
// emits one exposition with a node label on every series. A third,
// unreachable peer degrades to an error entry.
func TestClusterScopeAndRollup(t *testing.T) {
	eA := obs.NewEngine(obs.Options{SampleRate: 1, NodeName: "alpha", Provenance: true})
	eB := obs.NewEngine(obs.Options{SampleRate: 1, NodeName: "beta", Provenance: true})
	addrA, err := eA.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer eA.Close()
	addrB, err := eB.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer eB.Close()
	eA.SetCluster([]string{addrB})
	eB.SetCluster([]string{addrA, "127.0.0.1:1"}) // second peer: nothing listens

	// Wave t7-1 ran on alpha (src, bridgeOut) then crossed to beta
	// (bridgeIn, sink); beta learned the origin from the wire.
	base := time.Now().Add(-time.Minute)
	seedLineage(eA, "alpha", 7, 1, base, "src", "bridgeOut")
	seedLineage(eB, "beta", 7, 1, base.Add(10*time.Millisecond), "bridgeIn", "sink")
	eB.Lineage().NoteOrigin(7, 1, uint64(dist.NodeIDOf("alpha")))

	var wave struct {
		Wave struct {
			Origin string `json:"origin"`
			Hops   []struct {
				Node  string `json:"node"`
				Actor string `json:"actor"`
			} `json:"hops"`
		} `json:"wave"`
	}
	body, code := get(t, "http://"+addrB+"/provenance?wave=t7-1&scope=cluster")
	if code != http.StatusOK {
		t.Fatalf("cluster wave query status %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &wave); err != nil {
		t.Fatalf("cluster wave JSON: %v\n%s", err, body)
	}
	if len(wave.Wave.Hops) != 4 {
		t.Fatalf("merged lineage = %d hops, want 4: %s", len(wave.Wave.Hops), body)
	}
	// Upstream first: merge order is wall-clock start time.
	wantHops := []struct{ node, actor string }{
		{"alpha", "src"}, {"alpha", "bridgeOut"}, {"beta", "bridgeIn"}, {"beta", "sink"},
	}
	for i, want := range wantHops {
		if h := wave.Wave.Hops[i]; h.Node != want.node || h.Actor != want.actor {
			t.Errorf("merged hop[%d] = %s/%s, want %s/%s", i, h.Node, h.Actor, want.node, want.actor)
		}
	}
	if want := dist.NodeIDOf("alpha").String(); wave.Wave.Origin != want {
		t.Errorf("origin = %q, want %q", wave.Wave.Origin, want)
	}

	// /cluster: three entries (self + 2 peers), one of them in error.
	var cl struct {
		Node  string `json:"node"`
		Nodes []struct {
			Name string `json:"name"`
			Self bool   `json:"self"`
			Err  string `json:"error"`
		} `json:"nodes"`
		Reachable     int                `json:"reachable"`
		CounterTotals map[string]float64 `json:"counter_totals"`
	}
	body, code = get(t, "http://"+addrB+"/cluster")
	if code != http.StatusOK {
		t.Fatalf("/cluster status %d", code)
	}
	if err := json.Unmarshal([]byte(body), &cl); err != nil {
		t.Fatalf("/cluster JSON: %v\n%s", err, body)
	}
	if cl.Node != "beta" || len(cl.Nodes) != 3 || cl.Reachable != 2 {
		t.Fatalf("/cluster = node %q, %d nodes, %d reachable", cl.Node, len(cl.Nodes), cl.Reachable)
	}
	if !cl.Nodes[0].Self || cl.Nodes[0].Name != "beta" {
		t.Errorf("first /cluster entry = %+v, want self (beta)", cl.Nodes[0])
	}
	if cl.Nodes[1].Name != "alpha" || cl.Nodes[1].Err != "" {
		t.Errorf("peer entry = %+v, want reachable alpha", cl.Nodes[1])
	}
	if cl.Nodes[2].Err == "" {
		t.Error("dead peer carries no error")
	}
	if _, ok := cl.CounterTotals["confluence_trace_spans_total"]; !ok {
		t.Errorf("counter_totals missing confluence_trace_spans_total: %v", cl.CounterTotals)
	}

	// /cluster/metrics: one exposition, every series labeled with its node.
	body, code = get(t, "http://"+addrB+"/cluster/metrics")
	if code != http.StatusOK {
		t.Fatalf("/cluster/metrics status %d", code)
	}
	for _, want := range []string{
		`confluence_goroutines{node="beta"}`,
		`confluence_goroutines{node="alpha"}`,
		"# TYPE confluence_prov_resident_hops gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/cluster/metrics missing %q", want)
		}
	}
	// TYPE headers are emitted once per family, not once per node.
	if n := strings.Count(body, "# TYPE confluence_goroutines "); n != 1 {
		t.Errorf("confluence_goroutines TYPE header appears %d times, want 1", n)
	}
}

// TestOneRecordOneStore pins the single write whatever Options.Provenance
// says: a traced run records each sampled firing once (the store's Recorded
// equals the spans counter), and /provenance serves the recorded hops
// unchanged, by full id and under their root alike.
func TestOneRecordOneStore(t *testing.T) {
	for _, provenance := range []bool{true, false} {
		t.Run(fmt.Sprintf("provenance=%v", provenance), func(t *testing.T) {
			eng := obs.NewEngine(obs.Options{SampleRate: 1, Provenance: provenance})
			addr, err := eng.Serve("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			const events = 40
			st := stats.NewRegistry()
			wf, sink := buildObsPipeline(events, 0)
			d := stafilos.NewDirector(sched.NewFIFO(), stafilos.Options{SourceInterval: 5, Stats: st, Obs: eng})
			if err := d.Setup(wf); err != nil {
				t.Fatal(err)
			}
			eng.Watch(wf.Name(), wf, st, d)
			if err := d.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if len(sink.Tokens) != events {
				t.Fatalf("sink got %d events, want %d", len(sink.Tokens), events)
			}

			body, _ := get(t, "http://"+addr+"/metrics")
			for _, series := range []string{"confluence_trace_spans_total", "confluence_prov_recorded_total"} {
				if want := fmt.Sprintf("\n%s %d\n", series, 5*events); !strings.Contains(body, want) {
					t.Errorf("/metrics missing %q", strings.TrimSpace(want))
				}
			}

			ref := eng.Lineage().Recent(1)[0]
			id := obs.FormatWaveID(ref.Root, ref.RootSeq)
			var pv struct {
				Wave struct {
					Hops []map[string]any `json:"hops"`
				} `json:"wave"`
			}
			body, _ = get(t, "http://"+addr+"/provenance?wave="+id)
			if err := json.Unmarshal([]byte(body), &pv); err != nil {
				t.Fatalf("/provenance?wave=%s = %s (err %v)", id, body, err)
			}
			var stored []map[string]any
			raw, _ := json.Marshal(obs.HopViews(eng.Lineage().Wave(ref.Root, ref.RootSeq)))
			if err := json.Unmarshal(raw, &stored); err != nil {
				t.Fatal(err)
			}
			if len(pv.Wave.Hops) != 5 || !reflect.DeepEqual(stored, pv.Wave.Hops) {
				t.Errorf("served hops differ from the record:\nstore       %v\n/provenance %v", stored, pv.Wave.Hops)
			}

			var byRoot struct {
				Waves []struct {
					ID   string           `json:"id"`
					Hops []map[string]any `json:"hops"`
				} `json:"waves"`
			}
			body, _ = get(t, fmt.Sprintf("http://%s/provenance?wave=t%d", addr, ref.Root))
			if err := json.Unmarshal([]byte(body), &byRoot); err != nil {
				t.Fatalf("/provenance?wave=t%d = %s (err %v)", ref.Root, body, err)
			}
			found := false
			for _, w := range byRoot.Waves {
				if w.ID == id {
					found = reflect.DeepEqual(w.Hops, pv.Wave.Hops)
				}
			}
			if !found {
				t.Errorf("root query did not serve %s as recorded: %s", id, body)
			}
		})
	}
}

// TestTraceIndexLimit pins the index's ?limit=: it honors the bound
// newest-first and rejects malformed values.
func TestTraceIndexLimit(t *testing.T) {
	e := obs.NewEngine(obs.Options{SampleRate: 1})
	addr, err := e.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 1; i <= 5; i++ {
		e.Lineage().Record(prov.Hop{Actor: "src", Root: int64(i), RootSeq: 0})
	}

	var idx struct {
		Waves []struct {
			ID string `json:"id"`
		} `json:"waves"`
	}
	body, code := get(t, "http://"+addr+"/provenance?limit=2")
	if code != http.StatusOK {
		t.Fatalf("/provenance?limit=2 status %d", code)
	}
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Waves) != 2 || idx.Waves[0].ID != "t5-0" || idx.Waves[1].ID != "t4-0" {
		t.Errorf("limited index = %+v, want [t5-0 t4-0]", idx.Waves)
	}
	for _, bad := range []string{"0", "-3", "abc"} {
		if _, code := get(t, "http://"+addr+"/provenance?limit="+bad); code != http.StatusBadRequest {
			t.Errorf("limit=%s status %d, want 400", bad, code)
		}
	}
}
