package obs

import (
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/event"
	"repro/internal/obs/latency"
	"repro/internal/obs/prov"
)

// /latency — the critical-path attribution API over the latency profile.
//
//	GET /latency                      fleet-wide attribution profile:
//	    ?top=N                        per-actor/per-edge critical-path
//	                                  shares with p50/p95, end-to-end
//	                                  quantiles
//	GET /latency/wave/{id}            one wave's waterfall: the critical
//	    ?scope=cluster                path decomposed into queue/cost/
//	                                  transit/gap segments; cluster scope
//	                                  stitches peer hops in, skew-corrected
//
// Waterfall segments tile the wave's [start, end] exactly: their durations
// sum to the end-to-end latency with zero rounding loss. Boundaries touched
// by a skew correction carry that estimate's ±RTT/2 bound, reported in the
// response.

// latencyEnabled reports whether the attribution engine is on.
func (e *Engine) latencyEnabled() bool { return e != nil && e.latency != nil }

// LatencyProfile returns the engine's attribution profile (nil when
// Options.Latency is off; the nil profile answers every call empty).
func (e *Engine) LatencyProfile() *latency.Profile {
	if e == nil {
		return nil
	}
	return e.latency
}

// LatencySummary folds pending waves and returns the top-n attribution
// view ({} when latency attribution is off) — the compact summary lrbench
// and /workflows embed.
func (e *Engine) LatencySummary(n int) latency.View {
	if !e.latencyEnabled() {
		return latency.View{}
	}
	return e.latency.Snapshot(n)
}

// ResetLatency clears the attribution between successive virtual-time runs.
func (e *Engine) ResetLatency() {
	if e.latencyEnabled() {
		e.latency.Reset()
	}
}

// resolveWave is the profile's lineage resolver: the wave's local hops
// plus any measured bridge transit.
func (e *Engine) resolveWave(root int64, rootSeq uint64) ([]prov.Hop, []prov.Transit) {
	hops := e.store.Wave(root, rootSeq)
	var transits []prov.Transit
	if t, ok := e.store.TransitOf(root, rootSeq); ok {
		transits = append(transits, t)
	}
	return hops, transits
}

// transitObserved is the bridge receiver hook: one traced wave's corrected
// bridge transit, attributed to the receiving bridge actor.
func (e *Engine) transitObserved(bridge string, root int64, rootSeq uint64, origin uint64,
	sentNs, recvNs int64, transit time.Duration) {
	e.bridgeTransit.With(bridge).Observe(transit)
	e.store.NoteTransit(root, rootSeq, origin, sentNs, recvNs, transit)
}

// transitSinkTarget is what a bridge receiver exposes for transit timing
// (dist.Receiver implements it; structural, like traceSinkTarget).
type transitSinkTarget interface {
	SetTransitSink(func(root int64, rootSeq uint64, origin uint64, sentNs, recvNs int64, transit time.Duration))
}

// offsetReporter is what a bridge receiver exposes for clock-skew
// estimates (dist.Receiver).
type offsetReporter interface {
	PeerOffsets() []dist.PeerOffset
}

// peerOffsets collects the freshest skew estimate per upstream node across
// every watched bridge receiver.
func (e *Engine) peerOffsets() map[uint64]dist.PeerOffset {
	out := map[uint64]dist.PeerOffset{}
	for _, w := range e.snapshotWatches() {
		if w.wf == nil {
			continue
		}
		for _, a := range w.wf.Actors() {
			rep, ok := a.(offsetReporter)
			if !ok {
				continue
			}
			for _, po := range rep.PeerOffsets() {
				if prev, seen := out[uint64(po.Origin)]; !seen || po.Samples > prev.Samples {
					out[uint64(po.Origin)] = po
				}
			}
		}
	}
	return out
}

// offsetForNode resolves the skew estimate for a peer node name, when one
// of this node's bridge receivers has measured that peer.
func (e *Engine) offsetForNode(offsets map[uint64]dist.PeerOffset, node string) (dist.PeerOffset, bool) {
	if node == "" || node == e.nodeName {
		return dist.PeerOffset{}, false
	}
	po, ok := offsets[uint64(dist.NodeIDOf(node))]
	return po, ok
}

// parseRenderedTag parses a rendered wave-tag string ("t<root>.<p1>.<p2>*")
// back into an event.WaveTag. The rendered form omits RootSeq, so the
// caller supplies the wave identity the tag belongs to.
func parseRenderedTag(s string, root int64, rootSeq uint64) (event.WaveTag, bool) {
	if s == "" {
		return event.WaveTag{}, false
	}
	tag := event.WaveTag{Root: root, RootSeq: rootSeq}
	if strings.HasSuffix(s, "*") {
		tag.Last = true
		s = s[:len(s)-1]
	}
	if !strings.HasPrefix(s, "t") {
		return event.WaveTag{}, false
	}
	body := s[1:]
	head, rest, hasPath := strings.Cut(body, ".")
	if _, err := strconv.ParseInt(head, 10, 64); err != nil {
		return event.WaveTag{}, false
	}
	if hasPath {
		path, err := parseWavePath(rest)
		if err != nil {
			return event.WaveTag{}, false
		}
		tag.Path = path
	}
	return tag, true
}

// hopFromView rebuilds a prov.Hop from its /provenance JSON view — the
// inverse of HopViews, used to stitch peer lineages into a cluster
// waterfall.
func hopFromView(v HopView, root int64, rootSeq uint64) prov.Hop {
	h := prov.Hop{
		Node:      v.Node,
		Actor:     v.Actor,
		Root:      root,
		RootSeq:   rootSeq,
		Start:     time.Unix(0, v.StartUnixNs),
		QueueWait: time.Duration(v.QueueWaitSeconds * float64(time.Second)),
		Cost:      time.Duration(v.CostSeconds * float64(time.Second)),
		Consumed:  v.Consumed,
		Produced:  v.Produced,
		Seq:       v.Seq,
	}
	if t, ok := parseRenderedTag(v.In, root, rootSeq); ok {
		h.In = t
	}
	if t, ok := parseRenderedTag(v.Out, root, rootSeq); ok {
		h.Out = t
	}
	return h
}

// segmentView is one waterfall segment in /latency/wave JSON.
type segmentView struct {
	Kind            string  `json:"kind"`
	Actor           string  `json:"actor"`
	Edge            string  `json:"edge,omitempty"`
	Node            string  `json:"node,omitempty"`
	StartUnixNs     int64   `json:"start_unix_ns"`
	DurationSeconds float64 `json:"duration_seconds"`
}

// pathHopView is one critical-path hop in /latency/wave JSON.
type pathHopView struct {
	Node             string  `json:"node,omitempty"`
	Actor            string  `json:"actor"`
	StartUnixNs      int64   `json:"start_unix_ns"`
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	CostSeconds      float64 `json:"cost_seconds"`
}

// skewView reports one applied clock correction in /latency/wave JSON.
type skewView struct {
	Node              string  `json:"node"`
	OffsetSeconds     float64 `json:"offset_seconds"`
	RTTSeconds        float64 `json:"rtt_seconds"`
	ErrBoundSeconds   float64 `json:"error_bound_seconds"`
	Samples           int     `json:"samples"`
	AppliedToHopCount int     `json:"applied_to_hops"`
}

// waterfallView is the /latency/wave JSON shape.
type waterfallView struct {
	ID                   string        `json:"id"`
	Node                 string        `json:"node,omitempty"`
	Scope                string        `json:"scope"`
	StartUnixNs          int64         `json:"start_unix_ns"`
	EndUnixNs            int64         `json:"end_unix_ns"`
	EndToEndSeconds      float64       `json:"end_to_end_seconds"`
	SegmentSumSeconds    float64       `json:"segment_sum_seconds"`
	BridgeTransitSeconds float64       `json:"bridge_transit_seconds"`
	Path                 []pathHopView `json:"path"`
	Segments             []segmentView `json:"segments"`
	Skew                 []skewView    `json:"skew,omitempty"`
}

// waterfallViewOf renders an analyzed waterfall.
func (e *Engine) waterfallViewOf(w *latency.Waterfall, scope string, skews []skewView) waterfallView {
	v := waterfallView{
		ID:                   FormatWaveID(w.Root, w.RootSeq),
		Node:                 e.nodeName,
		Scope:                scope,
		StartUnixNs:          w.StartNs,
		EndUnixNs:            w.EndNs,
		EndToEndSeconds:      w.EndToEnd.Seconds(),
		BridgeTransitSeconds: w.BridgeTransit.Seconds(),
		Path:                 []pathHopView{},
		Segments:             []segmentView{},
		Skew:                 skews,
	}
	var sum time.Duration
	for _, s := range w.Segments {
		sum += s.Duration
		v.Segments = append(v.Segments, segmentView{
			Kind:            s.Kind.String(),
			Actor:           s.Actor,
			Edge:            s.Edge,
			Node:            s.Node,
			StartUnixNs:     s.StartNs,
			DurationSeconds: s.Duration.Seconds(),
		})
	}
	v.SegmentSumSeconds = sum.Seconds()
	for _, h := range w.Path {
		v.Path = append(v.Path, pathHopView{
			Node:             h.Node,
			Actor:            h.Actor,
			StartUnixNs:      h.StartNs,
			QueueWaitSeconds: h.QueueWait.Seconds(),
			CostSeconds:      h.Cost.Seconds(),
		})
	}
	return v
}

// handleLatency serves the fleet-wide attribution profile.
func (e *Engine) handleLatency(w http.ResponseWriter, r *http.Request) {
	top := 0
	if ts := r.URL.Query().Get("top"); ts != "" {
		n, err := strconv.Atoi(ts)
		if err != nil || n <= 0 {
			http.Error(w, "top must be a positive integer", http.StatusBadRequest)
			return
		}
		top = n
	}
	writeJSON(w, map[string]any{
		"enabled": e.latencyEnabled(),
		"node":    e.nodeName,
		"profile": e.LatencySummary(top),
	})
}

// handleLatencyWave serves one wave's waterfall, optionally stitching and
// skew-correcting peer hops (scope=cluster).
func (e *Engine) handleLatencyWave(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/latency/wave/")
	root, rootSeq, hasSeq, err := ParseWaveID(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !hasSeq {
		http.Error(w, "waterfall query needs the full t<root>-<rootseq> form", http.StatusBadRequest)
		return
	}
	hops, transits := e.resolveWave(root, rootSeq)
	scope := "local"
	var skews []skewView
	if r.URL.Query().Get("scope") == "cluster" {
		scope = "cluster"
		peers := e.clusterWave(url.Values{"wave": {id}})
		for _, hv := range peers.hops {
			hops = append(hops, hopFromView(hv, root, rootSeq))
		}
		for node, sk := range peers.skew {
			skews = append(skews, skewView{
				Node:              node,
				OffsetSeconds:     sk.Offset.Seconds(),
				RTTSeconds:        sk.RTT.Seconds(),
				ErrBoundSeconds:   (sk.RTT / 2).Seconds(),
				Samples:           sk.Samples,
				AppliedToHopCount: sk.hops,
			})
		}
		sort.Slice(skews, func(i, j int) bool { return skews[i].Node < skews[j].Node })
	}
	if len(hops) == 0 {
		http.Error(w, "wave not in the lineage store (not sampled, or evicted)", http.StatusNotFound)
		return
	}
	wf := latency.Analyze(hops, transits)
	if wf == nil {
		http.Error(w, "wave has no analyzable hops", http.StatusNotFound)
		return
	}
	writeJSON(w, map[string]any{"node": e.nodeName, "wave": e.waterfallViewOf(wf, scope, skews)})
}
