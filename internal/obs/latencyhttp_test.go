package obs_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/dist"
	"repro/internal/event"
	"repro/internal/model"
	"repro/internal/obs"
)

// seedEndpointLineage seeds one wave's lineage whose last hop produced
// nothing and queues it on the latency profile, as the engine's
// FiringObserved mirror would.
func seedEndpointLineage(e *obs.Engine, node string, root int64, rootSeq uint64, base time.Time, actors ...string) {
	seedLineage(e, node, root, rootSeq, base, actors...)
	e.LatencyProfile().NoteEndpoint(root, rootSeq)
}

// TestLatencyEndpoint exercises /latency and /latency/wave on one node:
// the profile view, the waterfall's exact segment sum, and the rejections.
func TestLatencyEndpoint(t *testing.T) {
	e := obs.NewEngine(obs.Options{SampleRate: 1, NodeName: "solo", Latency: true})
	if got := e.Lineage().Stats().CapacityHops; got <= 4096 {
		t.Fatalf("retention %d hops: Latency did not imply provenance retention", got)
	}
	addr, err := e.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	base := "http://" + addr

	now := time.Now().Add(-time.Minute)
	seedEndpointLineage(e, "solo", 7, 1, now, "src", "stage", "sink")
	seedEndpointLineage(e, "solo", 8, 0, now.Add(time.Second), "src", "stage", "sink")

	var prof struct {
		Enabled bool   `json:"enabled"`
		Node    string `json:"node"`
		Profile struct {
			Waves  int64 `json:"waves"`
			Actors []struct {
				Actor string  `json:"actor"`
				Share float64 `json:"share"`
			} `json:"actors"`
		} `json:"profile"`
	}
	body, code := get(t, base+"/latency")
	if code != http.StatusOK {
		t.Fatalf("/latency status %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &prof); err != nil {
		t.Fatalf("/latency JSON: %v\n%s", err, body)
	}
	if !prof.Enabled || prof.Node != "solo" {
		t.Errorf("enabled=%v node=%q", prof.Enabled, prof.Node)
	}
	if prof.Profile.Waves != 2 || len(prof.Profile.Actors) != 3 {
		t.Errorf("profile = %d waves, %d actors, want 2/3: %s", prof.Profile.Waves, len(prof.Profile.Actors), body)
	}

	// top=1 truncates.
	body, _ = get(t, base+"/latency?top=1")
	if err := json.Unmarshal([]byte(body), &prof); err != nil {
		t.Fatal(err)
	}
	if len(prof.Profile.Actors) != 1 {
		t.Errorf("top=1 returned %d actors", len(prof.Profile.Actors))
	}

	var wf struct {
		Wave struct {
			ID                string  `json:"id"`
			Scope             string  `json:"scope"`
			EndToEndSeconds   float64 `json:"end_to_end_seconds"`
			SegmentSumSeconds float64 `json:"segment_sum_seconds"`
			Path              []struct {
				Actor string `json:"actor"`
			} `json:"path"`
			Segments []struct {
				Kind string `json:"kind"`
			} `json:"segments"`
		} `json:"wave"`
	}
	body, code = get(t, base+"/latency/wave/t7-1")
	if code != http.StatusOK {
		t.Fatalf("waterfall status %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &wf); err != nil {
		t.Fatalf("waterfall JSON: %v\n%s", err, body)
	}
	if wf.Wave.ID != "t7-1" || wf.Wave.Scope != "local" {
		t.Errorf("wave = %s scope %s", wf.Wave.ID, wf.Wave.Scope)
	}
	if len(wf.Wave.Path) != 3 {
		t.Fatalf("critical path = %d hops, want 3", len(wf.Wave.Path))
	}
	// The acceptance invariant: segments sum to the end-to-end latency.
	if wf.Wave.SegmentSumSeconds != wf.Wave.EndToEndSeconds {
		t.Errorf("segment sum %.9f != end-to-end %.9f", wf.Wave.SegmentSumSeconds, wf.Wave.EndToEndSeconds)
	}

	for path, want := range map[string]int{
		"/latency?top=0":       http.StatusBadRequest,
		"/latency?top=x":       http.StatusBadRequest,
		"/latency/wave/bogus":  http.StatusBadRequest,
		"/latency/wave/t7":     http.StatusBadRequest, // needs -rootseq
		"/latency/wave/t999-9": http.StatusNotFound,
	} {
		if _, code := get(t, base+path); code != want {
			t.Errorf("GET %s status %d, want %d", path, code, want)
		}
	}
}

// TestLatencyDisabled: without Options.Latency the profile is off but the
// endpoint still answers.
func TestLatencyDisabled(t *testing.T) {
	e := obs.NewEngine(obs.Options{})
	addr, err := e.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	body, code := get(t, "http://"+addr+"/latency")
	if code != http.StatusOK {
		t.Fatalf("/latency status %d", code)
	}
	var prof struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.Unmarshal([]byte(body), &prof); err != nil || prof.Enabled {
		t.Errorf("disabled engine /latency = %s (err %v)", body, err)
	}
	if _, code := get(t, "http://"+addr+"/latency/wave/t1-0"); code != http.StatusNotFound {
		t.Errorf("waterfall on disabled engine status %d, want 404", code)
	}
}

// TestLatencyViaFiringObserved covers the hot-path wiring: a sampled firing
// that produced nothing must queue its wave for analysis without any
// manual profile call.
func TestLatencyViaFiringObserved(t *testing.T) {
	e := obs.NewEngine(obs.Options{SampleRate: 1, NodeName: "solo", Latency: true})
	now := time.Now()
	src := &event.Event{Time: now, Wave: event.WaveTag{Root: 3, RootSeq: 1}}
	e.FiringObserved("sink", src, nil, now, time.Millisecond, time.Millisecond, 1)
	if got := e.LatencyProfile().Noted(); got != 1 {
		t.Fatalf("endpoint notes = %d, want 1", got)
	}
	if v := e.LatencySummary(0); v.Waves != 1 {
		t.Errorf("folded waves = %d, want 1", v.Waves)
	}
	e.ResetLatency()
	if v := e.LatencySummary(0); v.Waves != 0 {
		t.Errorf("waves after reset = %d, want 0", v.Waves)
	}
}

// offsetCollect is a Collect actor that also reports a peer clock offset,
// standing in for a bridge receiver with a live skew estimate.
type offsetCollect struct {
	*actors.Collect
	offs []dist.PeerOffset
}

func (o *offsetCollect) PeerOffsets() []dist.PeerOffset { return o.offs }

// TestLatencyClusterSkewCorrection pins the cross-node behavior of both
// query surfaces: peer hops merge into /provenance ordered by
// skew-corrected wall clock (satellite: the cluster ordering fix), and
// /latency/wave stitches the same corrected hops into one waterfall with
// the applied correction reported.
func TestLatencyClusterSkewCorrection(t *testing.T) {
	eA := obs.NewEngine(obs.Options{SampleRate: 1, NodeName: "alpha", Provenance: true})
	eB := obs.NewEngine(obs.Options{SampleRate: 1, NodeName: "beta", Latency: true})
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
	eB.SetCluster([]string{addrA})

	// Beta's "bridge receiver" knows alpha's clock runs 30ms ahead.
	wf := model.NewWorkflow("stitch")
	rc := &offsetCollect{Collect: actors.NewCollect("rx"), offs: []dist.PeerOffset{{
		Origin: dist.NodeIDOf("alpha"), Offset: -30 * time.Millisecond,
		RTT: time.Millisecond, Samples: 4,
	}}}
	wf.MustAdd(rc)
	eB.Watch("stitch", wf, nil, nil)

	// Alpha's hops carry timestamps 30ms in beta's future: uncorrected they
	// would sort after beta's, inverting causality.
	base := time.Now().Add(-time.Minute)
	seedLineage(eA, "alpha", 7, 1, base.Add(32*time.Millisecond), "src", "bridgeOut")
	seedLineage(eB, "beta", 7, 1, base.Add(10*time.Millisecond), "bridgeIn", "sink")
	eB.LatencyProfile().NoteEndpoint(7, 1)

	// Satellite: /provenance cluster merge orders by corrected wall clock.
	var wave struct {
		Wave struct {
			Hops []struct {
				Node         string `json:"node"`
				Actor        string `json:"actor"`
				SkewOffsetNs int64  `json:"skew_offset_ns"`
			} `json:"hops"`
		} `json:"wave"`
	}
	body, code := get(t, "http://"+addrB+"/provenance?wave=t7-1&scope=cluster")
	if code != http.StatusOK {
		t.Fatalf("cluster wave status %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &wave); err != nil {
		t.Fatal(err)
	}
	if len(wave.Wave.Hops) != 4 {
		t.Fatalf("merged hops = %d, want 4", len(wave.Wave.Hops))
	}
	wantOrder := []string{"src", "bridgeOut", "bridgeIn", "sink"}
	for i, want := range wantOrder {
		if wave.Wave.Hops[i].Actor != want {
			t.Fatalf("corrected order[%d] = %s, want %s (full: %s)", i, wave.Wave.Hops[i].Actor, want, body)
		}
	}
	for _, h := range wave.Wave.Hops {
		wantOff := int64(0)
		if h.Node == "alpha" {
			wantOff = (-30 * time.Millisecond).Nanoseconds()
		}
		if h.SkewOffsetNs != wantOff {
			t.Errorf("hop %s/%s skew offset %d, want %d", h.Node, h.Actor, h.SkewOffsetNs, wantOff)
		}
	}

	// Tentpole: the cluster waterfall stitches both nodes, corrected.
	var wfall struct {
		Wave struct {
			Scope             string  `json:"scope"`
			EndToEndSeconds   float64 `json:"end_to_end_seconds"`
			SegmentSumSeconds float64 `json:"segment_sum_seconds"`
			Path              []struct {
				Node  string `json:"node"`
				Actor string `json:"actor"`
			} `json:"path"`
			Skew []struct {
				Node          string  `json:"node"`
				OffsetSeconds float64 `json:"offset_seconds"`
				Applied       int     `json:"applied_to_hops"`
			} `json:"skew"`
		} `json:"wave"`
	}
	body, code = get(t, "http://"+addrB+"/latency/wave/t7-1?scope=cluster")
	if code != http.StatusOK {
		t.Fatalf("cluster waterfall status %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &wfall); err != nil {
		t.Fatal(err)
	}
	if wfall.Wave.Scope != "cluster" {
		t.Errorf("scope = %s", wfall.Wave.Scope)
	}
	if len(wfall.Wave.Path) != 4 {
		t.Fatalf("stitched path = %d hops, want 4: %s", len(wfall.Wave.Path), body)
	}
	if wfall.Wave.Path[0].Node != "alpha" || wfall.Wave.Path[3].Node != "beta" {
		t.Errorf("path endpoints = %s..%s, want alpha..beta",
			wfall.Wave.Path[0].Node, wfall.Wave.Path[3].Node)
	}
	if wfall.Wave.SegmentSumSeconds != wfall.Wave.EndToEndSeconds {
		t.Errorf("segment sum %.9f != end-to-end %.9f",
			wfall.Wave.SegmentSumSeconds, wfall.Wave.EndToEndSeconds)
	}
	if len(wfall.Wave.Skew) != 1 || wfall.Wave.Skew[0].Node != "alpha" ||
		wfall.Wave.Skew[0].OffsetSeconds != -0.03 || wfall.Wave.Skew[0].Applied != 2 {
		t.Errorf("skew view = %+v, want alpha -30ms applied to 2 hops", wfall.Wave.Skew)
	}
}

// TestClusterViewsKeepUnnamedPeerHops: two engines without NodeName share
// the empty name, so a peer hop is indistinguishable by name from a local
// one. Both cluster views must still merge the peer's hops — a peer answers
// from its own store and cannot echo ours back.
func TestClusterViewsKeepUnnamedPeerHops(t *testing.T) {
	eA := obs.NewEngine(obs.Options{SampleRate: 1, Provenance: true})
	eB := obs.NewEngine(obs.Options{SampleRate: 1, Provenance: true})
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
	eB.SetCluster([]string{addrA})

	base := time.Now().Add(-time.Minute)
	seedLineage(eA, "", 7, 1, base, "src", "bridgeOut")
	seedLineage(eB, "", 7, 1, base.Add(10*time.Millisecond), "bridgeIn", "sink")

	for _, addr := range []string{addrA, addrB} {
		var pv struct {
			Wave struct {
				Hops []struct {
					Actor string `json:"actor"`
				} `json:"hops"`
			} `json:"wave"`
		}
		body, code := get(t, "http://"+addr+"/provenance?wave=t7-1&scope=cluster")
		if code != http.StatusOK {
			t.Fatalf("cluster wave status %d: %s", code, body)
		}
		if err := json.Unmarshal([]byte(body), &pv); err != nil || len(pv.Wave.Hops) != 4 {
			t.Errorf("%s: cluster /provenance = %s (err %v), want 4 hops", addr, body, err)
		}

		var wf struct {
			Wave struct {
				Path []struct {
					Actor string `json:"actor"`
				} `json:"path"`
			} `json:"wave"`
		}
		body, code = get(t, "http://"+addr+"/latency/wave/t7-1?scope=cluster")
		if code != http.StatusOK {
			t.Fatalf("cluster waterfall status %d: %s", code, body)
		}
		if err := json.Unmarshal([]byte(body), &wf); err != nil {
			t.Fatal(err)
		}
		var actors []string
		for _, h := range wf.Wave.Path {
			actors = append(actors, h.Actor)
		}
		if got := strings.Join(actors, ","); got != "src,bridgeOut,bridgeIn,sink" {
			t.Errorf("%s: cluster waterfall path = %s, want both nodes' hops", addr, got)
		}
	}
}

// TestLatencyMetricsSeries pins the satellite Prometheus series: prov store
// health and the latency endpoint counters appear in /metrics.
func TestLatencyMetricsSeries(t *testing.T) {
	e := obs.NewEngine(obs.Options{SampleRate: 1, NodeName: "solo", Latency: true})
	addr, err := e.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	seedEndpointLineage(e, "solo", 7, 1, time.Now().Add(-time.Minute), "src", "sink")

	body, code := get(t, "http://"+addr+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"confluence_prov_recorded_total 2",
		"confluence_prov_resident_hops 2",
		"confluence_prov_evicted_hops_total 0",
		"confluence_prov_segments",
		"confluence_latency_endpoints_total 1",
		"confluence_latency_dropped_total 0",
		"# TYPE confluence_bridge_transit_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
