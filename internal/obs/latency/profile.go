package latency

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs/prov"
	"repro/internal/obs/sketch"
	"repro/internal/ring"
)

const (
	// defaultPendingCap bounds the endpoint ring: waves noted but not yet
	// folded. Beyond it notes are dropped (counted), never blocking the
	// firing path.
	defaultPendingCap = 2048

	// foldedCap bounds the folded-wave dedupe set: a wave can reach several
	// endpoints (a sink and a filter that dropped it), and each endpoint
	// enqueues it once.
	foldedCap = 4096
)

// waveKey identifies a wave in the pending ring and dedupe set.
type waveKey struct {
	root int64
	seq  uint64
}

// Resolver hands the profile one wave's lineage at fold time: its recorded
// hops (cluster-local; the profile attributes what this node can see) and
// any measured bridge transits. The obs engine implements it over the
// provenance store.
type Resolver func(root int64, rootSeq uint64) ([]prov.Hop, []prov.Transit)

// actorAttr accumulates one actor's share of sampled waves' critical paths.
type actorAttr struct {
	queueNs, costNs, gapNs, transitNs int64
	waves                             int64
	costSk, queueSk                   sketch.Sketch
}

// edgeAttr accumulates one edge's gap and transit time.
type edgeAttr struct {
	gapNs, transitNs int64
	waves            int64
	transitSk        sketch.Sketch
}

// Profile folds sampled waterfalls into a fleet-wide latency attribution:
// per-actor critical-path shares, per-edge gap/transit shares and
// end-to-end quantiles.
//
// The firing path only ever calls NoteEndpoint (one bounded ring push);
// all analysis happens in Fold, which the serving layer triggers on
// scrape/query with a throttle.
type Profile struct {
	resolver Resolver
	pending  *ring.MPMC[waveKey]
	dropped  atomic.Int64
	noted    atomic.Int64

	mu       sync.Mutex
	analyzed int64
	actors   map[string]*actorAttr
	edges    map[string]*edgeAttr
	endToEnd sketch.Sketch
	totalNs  int64
	folded   map[waveKey]struct{}
	foldedQ  []waveKey
}

// NewProfile builds a profile over the given lineage resolver.
func NewProfile(resolver Resolver) *Profile {
	return &Profile{
		resolver: resolver,
		pending:  ring.NewMPMC[waveKey](defaultPendingCap),
		actors:   map[string]*actorAttr{},
		edges:    map[string]*edgeAttr{},
		folded:   map[waveKey]struct{}{},
	}
}

// NoteEndpoint marks one sampled wave as complete on this node: a recorded
// hop produced nothing, so the wave's lineage ends here and is ready to
// fold. Never blocks and never allocates — a full ring drops the note and
// counts it.
//
//confvet:hotpath
func (p *Profile) NoteEndpoint(root int64, rootSeq uint64) {
	if p == nil {
		return
	}
	if !p.pending.TryPush(waveKey{root, rootSeq}) {
		p.dropped.Add(1)
		return
	}
	p.noted.Add(1)
}

// Dropped counts endpoint notes lost to a full pending ring.
func (p *Profile) Dropped() int64 { return p.dropped.Load() }

// Noted counts endpoint notes accepted into the pending ring.
func (p *Profile) Noted() int64 { return p.noted.Load() }

// Fold drains the pending ring, analyzes each wave's waterfall and folds
// it into the attribution. Safe to call concurrently; callers throttle.
func (p *Profile) Fold() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		k, ok := p.pending.TryPop()
		if !ok {
			return
		}
		if _, seen := p.folded[k]; seen {
			continue
		}
		if len(p.foldedQ) >= foldedCap {
			delete(p.folded, p.foldedQ[0])
			p.foldedQ = p.foldedQ[1:]
		}
		p.folded[k] = struct{}{}
		p.foldedQ = append(p.foldedQ, k)
		hops, transits := p.resolver(k.root, k.seq)
		w := Analyze(hops, transits)
		if w == nil || len(w.Path) == 0 {
			continue
		}
		p.foldLocked(w)
	}
}

// foldLocked accumulates one waterfall. Called with p.mu held.
func (p *Profile) foldLocked(w *Waterfall) {
	p.analyzed++
	p.totalNs += int64(w.EndToEnd)
	p.endToEnd.Observe(w.EndToEnd)
	seenActor := map[string]bool{}
	seenEdge := map[string]bool{}
	for _, s := range w.Segments {
		a := p.actors[s.Actor]
		if a == nil {
			a = &actorAttr{}
			p.actors[s.Actor] = a
		}
		if !seenActor[s.Actor] {
			seenActor[s.Actor] = true
			a.waves++
		}
		switch s.Kind {
		case SegmentCost:
			a.costNs += int64(s.Duration)
			a.costSk.Observe(s.Duration)
		case SegmentQueue:
			a.queueNs += int64(s.Duration)
			a.queueSk.Observe(s.Duration)
		case SegmentGap, SegmentTransit:
			if s.Kind == SegmentGap {
				a.gapNs += int64(s.Duration)
			} else {
				a.transitNs += int64(s.Duration)
			}
			e := p.edges[s.Edge]
			if e == nil {
				e = &edgeAttr{}
				p.edges[s.Edge] = e
			}
			if !seenEdge[s.Edge] {
				seenEdge[s.Edge] = true
				e.waves++
			}
			if s.Kind == SegmentGap {
				e.gapNs += int64(s.Duration)
			} else {
				e.transitNs += int64(s.Duration)
				e.transitSk.Observe(s.Duration)
			}
		}
	}
}

// Reset clears all accumulated attribution (between virtual-time benchmark
// runs). The pending ring drains; the dedupe set clears so the same wave
// ids from a restarted clock fold again.
func (p *Profile) Reset() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if _, ok := p.pending.TryPop(); !ok {
			break
		}
	}
	p.analyzed = 0
	p.totalNs = 0
	p.actors = map[string]*actorAttr{}
	p.edges = map[string]*edgeAttr{}
	p.endToEnd.Reset()
	p.folded = map[waveKey]struct{}{}
	p.foldedQ = nil
}

// ActorShare is one actor's slice of the fleet-wide attribution.
type ActorShare struct {
	Actor string `json:"actor"`
	// Share is the actor's fraction of all attributed critical-path time
	// (cost + queue + incoming gap/transit), in [0,1].
	Share float64 `json:"share"`
	// CostShare/QueueShare/GapShare/TransitShare split the actor's share
	// by segment kind, as fractions of all attributed time.
	CostShare    float64 `json:"cost_share"`
	QueueShare   float64 `json:"queue_share"`
	GapShare     float64 `json:"gap_share"`
	TransitShare float64 `json:"transit_share"`
	// Waves counts sampled waves whose critical path touched the actor.
	Waves int64 `json:"waves"`
	// CostP50/P95 and QueueP50/P95 are per-wave segment quantiles.
	CostP50Seconds  float64 `json:"cost_p50_seconds"`
	CostP95Seconds  float64 `json:"cost_p95_seconds"`
	QueueP50Seconds float64 `json:"queue_p50_seconds"`
	QueueP95Seconds float64 `json:"queue_p95_seconds"`
}

// EdgeShare is one edge's slice of the attribution.
type EdgeShare struct {
	Edge  string  `json:"edge"`
	Share float64 `json:"share"`
	// GapShare and TransitShare split the edge's time; TransitP50/P95 are
	// the measured bridge transit quantiles (0 on unbridged edges).
	GapShare          float64 `json:"gap_share"`
	TransitShare      float64 `json:"transit_share"`
	Waves             int64   `json:"waves"`
	TransitP50Seconds float64 `json:"transit_p50_seconds"`
	TransitP95Seconds float64 `json:"transit_p95_seconds"`
}

// View is the profile snapshot served at /latency.
type View struct {
	// Waves counts folded waterfalls; Noted/Dropped the endpoint ring's
	// accepted and lost notes.
	Waves   int64 `json:"waves"`
	Noted   int64 `json:"noted"`
	Dropped int64 `json:"dropped"`
	// EndToEndP50/P95/Max summarize folded waves' end-to-end latency.
	EndToEndP50Seconds float64 `json:"end_to_end_p50_seconds"`
	EndToEndP95Seconds float64 `json:"end_to_end_p95_seconds"`
	EndToEndMaxSeconds float64 `json:"end_to_end_max_seconds"`
	// Actors and Edges are ordered by descending share.
	Actors []ActorShare `json:"actors"`
	Edges  []EdgeShare  `json:"edges,omitempty"`
}

// Snapshot folds pending waves first, then summarizes the attribution.
// topN > 0 truncates the actor and edge lists.
func (p *Profile) Snapshot(topN int) View {
	if p == nil {
		return View{}
	}
	p.Fold()
	p.mu.Lock()
	defer p.mu.Unlock()
	v := View{
		Waves:   p.analyzed,
		Noted:   p.noted.Load(),
		Dropped: p.dropped.Load(),
		Actors:  []ActorShare{},
	}
	var e2e sketch.Snapshot
	p.endToEnd.Load(&e2e)
	v.EndToEndP50Seconds = e2e.Quantile(0.5).Seconds()
	v.EndToEndP95Seconds = e2e.Quantile(0.95).Seconds()
	v.EndToEndMaxSeconds = e2e.Max().Seconds()
	total := float64(p.totalNs)
	if total <= 0 {
		total = 1
	}
	for name, a := range p.actors {
		var cs, qs sketch.Snapshot
		a.costSk.Load(&cs)
		a.queueSk.Load(&qs)
		v.Actors = append(v.Actors, ActorShare{
			Actor:           name,
			Share:           float64(a.costNs+a.queueNs+a.gapNs+a.transitNs) / total,
			CostShare:       float64(a.costNs) / total,
			QueueShare:      float64(a.queueNs) / total,
			GapShare:        float64(a.gapNs) / total,
			TransitShare:    float64(a.transitNs) / total,
			Waves:           a.waves,
			CostP50Seconds:  cs.Quantile(0.5).Seconds(),
			CostP95Seconds:  cs.Quantile(0.95).Seconds(),
			QueueP50Seconds: qs.Quantile(0.5).Seconds(),
			QueueP95Seconds: qs.Quantile(0.95).Seconds(),
		})
	}
	sort.Slice(v.Actors, func(i, j int) bool {
		if v.Actors[i].Share != v.Actors[j].Share {
			return v.Actors[i].Share > v.Actors[j].Share
		}
		return v.Actors[i].Actor < v.Actors[j].Actor
	})
	for name, e := range p.edges {
		var ts sketch.Snapshot
		e.transitSk.Load(&ts)
		v.Edges = append(v.Edges, EdgeShare{
			Edge:              name,
			Share:             float64(e.gapNs+e.transitNs) / total,
			GapShare:          float64(e.gapNs) / total,
			TransitShare:      float64(e.transitNs) / total,
			Waves:             e.waves,
			TransitP50Seconds: ts.Quantile(0.5).Seconds(),
			TransitP95Seconds: ts.Quantile(0.95).Seconds(),
		})
	}
	sort.Slice(v.Edges, func(i, j int) bool {
		if v.Edges[i].Share != v.Edges[j].Share {
			return v.Edges[i].Share > v.Edges[j].Share
		}
		return v.Edges[i].Edge < v.Edges[j].Edge
	})
	if topN > 0 {
		if len(v.Actors) > topN {
			v.Actors = v.Actors[:topN]
		}
		if len(v.Edges) > topN {
			v.Edges = v.Edges[:topN]
		}
	}
	return v
}
