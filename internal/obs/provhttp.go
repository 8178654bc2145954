package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/obs/prov"
)

// /provenance — the lineage query API over the lineage store at provenance
// retention (Options.Provenance).
//
//	GET /provenance                         store stats + recent waves
//	GET /provenance?wave=t<root>-<seq>      one wave's full hop lineage
//	    &walk=ancestors|descendants&path=1.2   ancestor/descendant walk from
//	                                           the event at that wave path
//	    &scope=cluster                         merge hops from peer nodes too
//	GET /provenance?sink=<actor>            waves that reached an actor,
//	    &since=&until=&limit=                  bounded by a time window
//
// Timestamps accept RFC 3339 or integer unix seconds/nanoseconds. Every hop
// carries the recording node's name, and a wave that arrived over a bridge
// reports the upstream node it came from (origin) — the cross-process
// stitch.

// HopView is one lineage hop in JSON — the one rendering /trace/,
// /provenance and the QoS flight recorder share.
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
	store := e.Prov()
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
			"waves": provRefViews(store.ByActor(sink, since, until, limit)),
		})
		return
	}

	writeJSON(w, map[string]any{
		"enabled": store != nil,
		"node":    e.nodeName,
		"node_id": dist.NodeID(e.nodeID).String(),
		"stats":   store.Stats(),
		"waves":   provRefViews(store.Recent(limit)),
	})
}

// handleProvenanceWave serves the wave-lineage queries, optionally walking
// ancestors/descendants of one event and optionally merging peer nodes'
// hops (scope=cluster).
func (e *Engine) handleProvenanceWave(w http.ResponseWriter, r *http.Request, waveID string) {
	q := r.URL.Query()
	root, rootSeq, hasSeq, err := ParseWaveID(waveID)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !hasSeq {
		http.Error(w, "wave query needs the full t<root>-<rootseq> form", http.StatusBadRequest)
		return
	}
	path, err := parseWavePath(q.Get("path"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	store := e.Prov()
	var hops []prov.Hop
	switch walk := q.Get("walk"); walk {
	case "", "wave":
		hops = store.Wave(root, rootSeq)
	case "ancestors":
		hops = store.Ancestors(root, rootSeq, path)
	case "descendants":
		hops = store.Descendants(root, rootSeq, path)
	default:
		http.Error(w, "walk must be ancestors or descendants", http.StatusBadRequest)
		return
	}
	wave := provWaveView{ID: FormatWaveID(root, rootSeq), Hops: HopViews(hops)}
	if origin, ok := store.Origin(root, rootSeq); ok {
		wave.Origin = dist.NodeID(origin).String()
	}

	if q.Get("scope") == "cluster" {
		// Ask every peer the same question (scope stripped so the fan-out
		// does not recurse) and merge: upstream hops come first because the
		// merged list is ordered by wall-clock start time, then by
		// per-store sequence.
		peerQ := r.URL.Query()
		peerQ.Del("scope")
		offsets := e.peerOffsets()
		for _, peer := range e.clusterPeers() {
			var pw struct {
				Wave provWaveView `json:"wave"`
			}
			if err := fetchPeerJSON(peer, "/provenance?"+peerQ.Encode(), &pw); err != nil {
				continue // unreachable peer: report what we have
			}
			for _, hv := range pw.Wave.Hops {
				// Map peer timestamps onto this node's clock when a local
				// bridge receiver has a skew estimate for that node, so the
				// wall-clock sort below orders cross-node hops correctly
				// even under clock skew.
				if po, ok := e.offsetForNode(offsets, hv.Node); ok {
					hv.SkewOffsetNs = po.Offset.Nanoseconds()
					hv.StartUnixNs += hv.SkewOffsetNs
				}
				wave.Hops = append(wave.Hops, hv)
			}
			if wave.Origin == "" {
				wave.Origin = pw.Wave.Origin
			}
		}
		sort.SliceStable(wave.Hops, func(i, j int) bool {
			if wave.Hops[i].StartUnixNs != wave.Hops[j].StartUnixNs {
				return wave.Hops[i].StartUnixNs < wave.Hops[j].StartUnixNs
			}
			return wave.Hops[i].Seq < wave.Hops[j].Seq
		})
	}

	if len(wave.Hops) == 0 {
		http.Error(w, "wave not in provenance store (not sampled, or evicted)", http.StatusNotFound)
		return
	}
	writeJSON(w, map[string]any{"node": e.nodeName, "wave": wave})
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
