// Two-node distributed Linear Road with queryable cross-process provenance.
//
// The paper's Section 5 scalability direction, plus the observability layer
// of internal/obs/prov: position-report ingestion runs on node "lr-ingest",
// windowed toll analytics on node "lr-analytics", linked by a TCP bridge.
// Each node serves its own introspection endpoint with provenance
// retention; sampled waves crossing the bridge carry trace
// context (traced flag + origin-node ID), so a toll alert's full lineage —
// source firing on node A, bridge hop, windowed analytics on node B — is
// answerable from either node with one /provenance query.
//
//	go run ./examples/distlinearroad
//
// The run ends by asking node B the provenance question the store exists to
// answer: "which inputs produced this toll alert?" — a cluster-scoped
// ancestor walk whose hops come from both processes, stitched by
// origin-node ID.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	confluence "repro"
	"repro/internal/dist"
	"repro/internal/lr"
	"repro/internal/sched"
	"repro/internal/stafilos"
)

func main() {
	sample := flag.Float64("sample", 0.25, "fraction of waves traced/persisted")
	duration := flag.Duration("duration", 90*time.Second, "generated workload length (fed at full speed)")
	flag.Parse()

	// ---- Node B (lr-analytics): bridge receiver -> per-segment windowed
	// speed -> toll alerts -> sink ----
	recv, err := dist.Listen("bridge", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	wfB := confluence.NewWorkflow("lr-analytics")
	segSpeed := confluence.NewAggregate("SegmentSpeed", confluence.WindowSpec{
		Unit: confluence.Tuples, Size: 10, Step: 10, GroupBy: []string{"seg"},
	}, func(w *confluence.Window) confluence.Value {
		n := w.Len()
		sum := 0.0
		for i := range n {
			sum += w.Record(i).Float("speed")
		}
		return confluence.NewRecord(
			"seg", w.Record(0).Field("seg"),
			"avgSpeed", confluence.Float(sum/float64(n)),
			"time", w.Record(n-1).Field("time"),
		)
	})
	congested := confluence.NewFilter("CongestionFilter", func(v confluence.Value) bool {
		return v.(confluence.Record).Float("avgSpeed") < 40 // LAV toll condition
	})
	toll := confluence.NewMap("TollAlerts", func(v confluence.Value) confluence.Value {
		r := v.(confluence.Record)
		base := 50 - r.Float("avgSpeed")
		return r.With("toll", confluence.Float(2*base*base/100))
	})
	sink := confluence.NewCollect("TollSink")
	wfB.MustAdd(recv, segSpeed, congested, toll, sink)
	wfB.MustConnect(recv.Out(), segSpeed.In())
	wfB.MustConnect(segSpeed.Out(), congested.In())
	wfB.MustConnect(congested.Out(), toll.In())
	wfB.MustConnect(toll.Out(), sink.In())

	// ---- Node A (lr-ingest): Linear Road position reports -> bridge ----
	workload := lr.Generate(lr.GenConfig{Seed: 7, Duration: *duration, RampSlope: 2, RateCap: 150})
	epoch := time.Now().Add(-*duration) // everything already due: full speed
	src := confluence.NewSource("PositionReports", workload.Feed(epoch), 0)
	send := dist.NewSender("bridge", recv.Addr())
	wfA := confluence.NewWorkflow("lr-ingest")
	wfA.MustAdd(src, send)
	wfA.MustConnect(src.Out(), send.In())

	// ---- Per-node introspection: provenance store + node identity ----
	obsA, err := confluence.Observe("127.0.0.1:0", confluence.ObserveOptions{
		SampleRate: *sample, NodeName: "lr-ingest", Provenance: true, Latency: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	obsB, err := confluence.Observe("127.0.0.1:0", confluence.ObserveOptions{
		SampleRate: *sample, NodeName: "lr-analytics", Provenance: true, Latency: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	obsA.SetCluster([]string{obsB.Addr()})
	obsB.SetCluster([]string{obsA.Addr()})

	mkDirector := func(o *confluence.Observer) *stafilos.Director {
		return stafilos.NewDirector(sched.NewQBS(0), stafilos.Options{SourceInterval: 5, Obs: o})
	}
	dirA, dirB := mkDirector(obsA), mkDirector(obsB)
	// Watch wires the bridge halves for trace propagation: the sender
	// stamps sampled waves with lr-ingest's node ID, the receiver forces
	// them into lr-analytics' tracer.
	obsA.Watch(wfA.Name(), wfA, nil, dirA)
	obsB.Watch(wfB.Name(), wfB, nil, dirB)

	cluster := dist.NewCluster()
	if err := cluster.AddNode("lr-ingest", wfA, dirA); err != nil {
		log.Fatal(err)
	}
	if err := cluster.AddNode("lr-analytics", wfB, dirB); err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	start := time.Now()
	if err := cluster.Run(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("linear road: %d reports over the bridge, %d toll alerts in %v\n",
		send.Sent(), len(sink.Tokens), time.Since(start).Round(time.Millisecond))
	fmt.Printf("node A introspection: http://%s/   node B: http://%s/\n", obsA.Addr(), obsB.Addr())

	// ---- The provenance question: which inputs produced this toll alert?
	// Find a sampled wave that reached the sink, then walk its ancestors
	// cluster-wide from node B.
	var index struct {
		Waves []struct {
			ID string `json:"id"`
		} `json:"waves"`
	}
	if err := getJSON(obsB.Addr(), "/provenance?sink=TollSink&limit=1", &index); err != nil {
		log.Fatal(err)
	}
	if len(index.Waves) == 0 {
		log.Fatal("no sampled toll alert in the provenance store (raise -sample)")
	}
	waveID := index.Waves[0].ID
	var lineage struct {
		Wave struct {
			ID     string `json:"id"`
			Origin string `json:"origin"`
			Hops   []struct {
				Node        string  `json:"node"`
				Actor       string  `json:"actor"`
				In          string  `json:"in"`
				Out         string  `json:"out"`
				CostSeconds float64 `json:"cost_seconds"`
			} `json:"hops"`
		} `json:"wave"`
	}
	q := "/provenance?wave=" + waveID + "&scope=cluster"
	if err := getJSON(obsB.Addr(), q, &lineage); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprovenance of toll alert wave %s (GET %s):\n", waveID, q)
	if lineage.Wave.Origin != "" {
		fmt.Printf("  arrived over bridge from origin %s\n", lineage.Wave.Origin)
	}
	sinkIn := ""
	for _, h := range lineage.Wave.Hops {
		fmt.Printf("  [%-12s] %-16s in=%-24s out=%-24s cost=%.1fµs\n",
			h.Node, h.Actor, h.In, h.Out, h.CostSeconds*1e6)
		if h.Actor == "TollSink" {
			sinkIn = h.In
		}
	}

	// Narrow to the backward walk: the ancestors of the exact event the
	// sink consumed — the inputs that produced this output.
	if sinkIn != "" {
		if _, _, path, ok := splitTag(sinkIn); ok {
			aq := "/provenance?wave=" + waveID + "&walk=ancestors&path=" + path + "&scope=cluster"
			if err := getJSON(obsB.Addr(), aq, &lineage); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\nancestors of the sink's input event %s (GET %s):\n", sinkIn, aq)
			for _, h := range lineage.Wave.Hops {
				fmt.Printf("  [%-12s] %-16s out=%s\n", h.Node, h.Actor, h.Out)
			}
		}
	}

	// ---- The latency question: where did this toll alert's time go? The
	// same wave's cluster-stitched waterfall from node B: source firing on
	// node A, skew-corrected bridge transit, analytics hops, per segment.
	var wfall struct {
		Wave struct {
			EndToEndSeconds      float64 `json:"end_to_end_seconds"`
			SegmentSumSeconds    float64 `json:"segment_sum_seconds"`
			BridgeTransitSeconds float64 `json:"bridge_transit_seconds"`
			Segments             []struct {
				Kind            string  `json:"kind"`
				Actor           string  `json:"actor"`
				Edge            string  `json:"edge"`
				Node            string  `json:"node"`
				DurationSeconds float64 `json:"duration_seconds"`
			} `json:"segments"`
			Skew []struct {
				Node            string  `json:"node"`
				OffsetSeconds   float64 `json:"offset_seconds"`
				ErrBoundSeconds float64 `json:"error_bound_seconds"`
			} `json:"skew"`
		} `json:"wave"`
	}
	lq := "/latency/wave/" + waveID + "?scope=cluster"
	if err := getJSON(obsB.Addr(), lq, &wfall); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwaterfall of toll alert wave %s (GET %s):\n", waveID, lq)
	fmt.Printf("  end-to-end %.3fms (segments sum %.3fms, bridge transit %.3fms)\n",
		wfall.Wave.EndToEndSeconds*1e3, wfall.Wave.SegmentSumSeconds*1e3, wfall.Wave.BridgeTransitSeconds*1e3)
	for _, s := range wfall.Wave.Segments {
		label := s.Actor
		if s.Edge != "" {
			label = s.Edge
		}
		fmt.Printf("  %-8s %-36s [%-12s] %8.3fms\n", s.Kind, label, s.Node, s.DurationSeconds*1e3)
	}
	for _, sk := range wfall.Wave.Skew {
		fmt.Printf("  skew: %s corrected by %+.3fms (±%.3fms)\n",
			sk.Node, sk.OffsetSeconds*1e3, sk.ErrBoundSeconds*1e3)
	}

	// ---- And fleet-wide: which actors own the critical path overall?
	var prof struct {
		Profile struct {
			Waves              int64   `json:"waves"`
			EndToEndP95Seconds float64 `json:"end_to_end_p95_seconds"`
			Actors             []struct {
				Actor string  `json:"actor"`
				Share float64 `json:"share"`
			} `json:"actors"`
		} `json:"profile"`
	}
	if err := getJSON(obsB.Addr(), "/latency?top=3", &prof); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlatency profile on lr-analytics (GET /latency?top=3): %d waves, p95 %.3fms\n",
		prof.Profile.Waves, prof.Profile.EndToEndP95Seconds*1e3)
	for _, a := range prof.Profile.Actors {
		fmt.Printf("  %-16s %5.1f%% of critical-path time\n", a.Actor, 100*a.Share)
	}
	obsA.Close()
	obsB.Close()
}

// splitTag splits a rendered wave tag "t<root>.<p1>.<p2>*" into its wave id
// and dotted path.
func splitTag(tag string) (root, id, path string, ok bool) {
	tag = strings.TrimSuffix(tag, "*")
	if !strings.HasPrefix(tag, "t") {
		return "", "", "", false
	}
	body := strings.TrimPrefix(tag, "t")
	if i := strings.IndexByte(body, '.'); i >= 0 {
		return body[:i], "t" + body[:i], body[i+1:], true
	}
	return body, tag, "", true
}

func getJSON(addr, path string, v any) error {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, body)
	}
	return json.Unmarshal(body, v)
}
