package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/obs/prov"
)

// /provenance — the one lineage query API over the engine's lineage store.
//
//	GET /provenance?limit=N                 store stats + recent waves
//	GET /provenance?wave=t<root>-<seq>      one wave's full hop lineage
//	    &walk=ancestors|descendants&path=1.2   ancestor/descendant walk from
//	                                           the event at that wave path
//	    &scope=cluster                         merge hops from peer nodes too
//	GET /provenance?wave=t<root>            every wave under that root; a
//	    (or a rendered tag t<root>.<path>*)    rendered wave-tag omits the seq
//	GET /provenance?sink=<actor>            waves that reached an actor,
//	    &since=&until=&limit=                  bounded by a time window
//
// Timestamps accept RFC 3339 or integer unix seconds/nanoseconds. Every hop
// carries the recording node's name, and a wave that arrived over a bridge
// reports the upstream node it came from (origin) — the cross-process
// stitch.

// HopView is one lineage hop in JSON — the one rendering /provenance and
// the QoS flight recorder share.
type HopView struct {
	Node             string  `json:"node,omitempty"`
	Actor            string  `json:"actor"`
	In               string  `json:"in,omitempty"`
	Out              string  `json:"out,omitempty"`
	Start            string  `json:"start"`
	StartUnixNs      int64   `json:"start_unix_ns"`
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	CostSeconds      float64 `json:"cost_seconds"`
	Consumed         int     `json:"consumed"`
	Produced         int     `json:"produced"`
	Seq              uint64  `json:"seq"`
	// SkewOffsetNs is the clock correction applied to StartUnixNs when this
	// hop was merged from a peer whose skew a local bridge receiver has
	// estimated (cluster scope only). Start keeps the peer's own wall
	// clock; StartUnixNs is on the querying node's clock after correction.
	SkewOffsetNs int64 `json:"skew_offset_ns,omitempty"`
}

// provWaveView is one wave's lineage in /provenance JSON.
type provWaveView struct {
	ID string `json:"id"`
	// Origin names the upstream node the wave's events arrived from over a
	// bridge, when known ("node-<hex>").
	Origin string    `json:"origin,omitempty"`
	Hops   []HopView `json:"hops"`
}

// provRefView is one wave summary in /provenance index JSON.
type provRefView struct {
	ID    string `json:"id"`
	Hops  int    `json:"hops"`
	First string `json:"first,omitempty"`
	Last  string `json:"last,omitempty"`
}

// HopViews renders hops in the order given.
func HopViews(hops []prov.Hop) []HopView {
	out := make([]HopView, 0, len(hops))
	for _, h := range hops {
		v := HopView{
			Node:             h.Node,
			Actor:            h.Actor,
			Start:            h.Start.Format(time.RFC3339Nano),
			StartUnixNs:      h.Start.UnixNano(),
			QueueWaitSeconds: h.QueueWait.Seconds(),
			CostSeconds:      h.Cost.Seconds(),
			Consumed:         h.Consumed,
			Produced:         h.Produced,
			Seq:              h.Seq,
		}
		if h.In.Root != 0 || len(h.In.Path) > 0 {
			v.In = h.In.String()
		}
		if h.Out.Root != 0 || len(h.Out.Path) > 0 {
			v.Out = h.Out.String()
		}
		out = append(out, v)
	}
	return out
}

func provRefViews(refs []prov.WaveRef) []provRefView {
	out := make([]provRefView, 0, len(refs))
	for _, r := range refs {
		out = append(out, provRefView{
			ID:    FormatWaveID(r.Root, r.RootSeq),
			Hops:  r.Hops,
			First: r.First.Format(time.RFC3339Nano),
			Last:  r.Last.Format(time.RFC3339Nano),
		})
	}
	return out
}

// parseProvTime accepts RFC 3339 or integer unix seconds/nanoseconds.
func parseProvTime(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	if t, err := time.Parse(time.RFC3339Nano, s); err == nil {
		return t, nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return time.Time{}, fmt.Errorf("obs: time %q: want RFC3339 or unix seconds/nanos", s)
	}
	// Heuristic: values past the year ~2100 in seconds are nanoseconds.
	if n > 4e9 || n < -4e9 {
		return time.Unix(0, n), nil
	}
	return time.Unix(n, 0), nil
}

// parseWavePath parses a "1.2.3" wave-tag path.
func parseWavePath(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ".")
	path := make([]int, len(parts))
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("obs: wave path %q: %v", s, err)
		}
		path[i] = n
	}
	return path, nil
}

func (e *Engine) handleProvenance(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()

	limit := 100
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n <= 0 {
			http.Error(w, "limit must be a positive integer", http.StatusBadRequest)
			return
		}
		limit = n
	}

	if waveID := q.Get("wave"); waveID != "" {
		e.handleProvenanceWave(w, r, waveID)
		return
	}

	if sink := q.Get("sink"); sink != "" {
		since, err := parseProvTime(q.Get("since"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		until, err := parseProvTime(q.Get("until"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, map[string]any{
			"node":  e.nodeName,
			"sink":  sink,
			"waves": provRefViews(e.store.ByActor(sink, since, until, limit)),
		})
		return
	}

	writeJSON(w, map[string]any{
		"node":    e.nodeName,
		"node_id": dist.NodeID(e.nodeID).String(),
		"stats":   e.store.Stats(),
		"waves":   provRefViews(e.store.Recent(limit)),
	})
}

// waveView renders one wave's hops with its bridge origin, when known.
func (e *Engine) waveView(root int64, rootSeq uint64, hops []prov.Hop) provWaveView {
	v := provWaveView{ID: FormatWaveID(root, rootSeq), Hops: HopViews(hops)}
	if origin, ok := e.store.Origin(root, rootSeq); ok {
		v.Origin = dist.NodeID(origin).String()
	}
	return v
}

// handleProvenanceWave serves the wave-lineage queries, optionally walking
// ancestors/descendants of one event and optionally merging peer nodes'
// hops (scope=cluster). An id without a sequence number answers with every
// wave under that root.
func (e *Engine) handleProvenanceWave(w http.ResponseWriter, r *http.Request, waveID string) {
	q := r.URL.Query()
	root, rootSeq, hasSeq, err := ParseWaveID(waveID)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !hasSeq {
		if q.Get("walk") != "" || q.Get("scope") != "" {
			http.Error(w, "walk= and scope= need the full t<root>-<rootseq> form", http.StatusBadRequest)
			return
		}
		var waves []provWaveView
		for _, hops := range e.store.WavesByRoot(root) {
			waves = append(waves, e.waveView(root, hops[0].RootSeq, hops))
		}
		if len(waves) == 0 {
			http.Error(w, "no wave under that root in the lineage store (not sampled, or evicted)", http.StatusNotFound)
			return
		}
		writeJSON(w, map[string]any{"node": e.nodeName, "waves": waves})
		return
	}
	path, err := parseWavePath(q.Get("path"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	var hops []prov.Hop
	switch walk := q.Get("walk"); walk {
	case "", "wave":
		hops = e.store.Wave(root, rootSeq)
	case "ancestors":
		hops = e.store.Ancestors(root, rootSeq, path)
	case "descendants":
		hops = e.store.Descendants(root, rootSeq, path)
	default:
		http.Error(w, "walk must be ancestors or descendants", http.StatusBadRequest)
		return
	}
	wave := e.waveView(root, rootSeq, hops)

	if q.Get("scope") == "cluster" {
		// Merge in wall-clock start order, then per-store sequence, so
		// upstream hops come first.
		peers := e.clusterWave(q)
		wave.Hops = append(wave.Hops, peers.hops...)
		if wave.Origin == "" {
			wave.Origin = peers.origin
		}
		sort.SliceStable(wave.Hops, func(i, j int) bool {
			if wave.Hops[i].StartUnixNs != wave.Hops[j].StartUnixNs {
				return wave.Hops[i].StartUnixNs < wave.Hops[j].StartUnixNs
			}
			return wave.Hops[i].Seq < wave.Hops[j].Seq
		})
	}

	if len(wave.Hops) == 0 {
		http.Error(w, "wave not in the lineage store (not sampled, or evicted)", http.StatusNotFound)
		return
	}
	writeJSON(w, map[string]any{"node": e.nodeName, "wave": wave})
}

// peerWave is one wave's lineage as the cluster's peers hold it.
type peerWave struct {
	// hops are every peer's hops, each start mapped onto this node's clock
	// where a local bridge receiver has a skew estimate for its node.
	hops []HopView
	// origin is the first upstream node a peer reported.
	origin string
	// skew holds the applied corrections, by peer node name.
	skew map[string]*appliedSkew
}

// appliedSkew is one peer node's clock correction and how many of its hops
// it moved.
type appliedSkew struct {
	dist.PeerOffset
	hops int
}

// clusterWave is the one scope=cluster fan-out: it asks every peer the same
// /provenance wave query with scope removed from q, so the fan-out cannot
// recurse. A peer answers from its own store, so it never echoes this
// node's hops back; an unreachable peer is skipped.
func (e *Engine) clusterWave(q url.Values) peerWave {
	q.Del("scope")
	path := "/provenance?" + q.Encode()
	out := peerWave{skew: map[string]*appliedSkew{}}
	offsets := e.peerOffsets()
	for _, peer := range e.clusterPeers() {
		var pw struct {
			Wave provWaveView `json:"wave"`
		}
		if err := fetchPeerJSON(peer, path, &pw); err != nil {
			continue
		}
		for _, hv := range pw.Wave.Hops {
			if po, ok := e.offsetForNode(offsets, hv.Node); ok {
				hv.SkewOffsetNs = po.Offset.Nanoseconds()
				hv.StartUnixNs += hv.SkewOffsetNs
				sk := out.skew[hv.Node]
				if sk == nil {
					sk = &appliedSkew{PeerOffset: po}
					out.skew[hv.Node] = sk
				}
				sk.hops++
			}
			out.hops = append(out.hops, hv)
		}
		if out.origin == "" {
			out.origin = pw.Wave.Origin
		}
	}
	return out
}

// fetchPeerJSON GETs a path from a peer node's obs server and decodes the
// JSON response. Peers are "host:port" or full "http://…" base URLs.
func fetchPeerJSON(peer, path string, v any) error {
	body, err := fetchPeer(peer, path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

var peerClient = &http.Client{Timeout: 2 * time.Second}

func fetchPeer(peer, path string) ([]byte, error) {
	base := peer
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	resp, err := peerClient.Get(base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("obs: peer %s%s: %s", peer, path, resp.Status)
	}
	return readAllBounded(resp.Body)
}
