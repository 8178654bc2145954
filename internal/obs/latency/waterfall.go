// Package latency is the critical-path attribution engine over recorded
// lineages: given one wave's provenance hops (local, or cluster-stitched
// and skew-corrected by the caller), it reconstructs the chain of firings
// from source to the wave's endpoint and decomposes the end-to-end latency
// into queue-wait, firing-cost, bridge-transit and inter-hop gap segments —
// the per-wave waterfall. The Profile (profile.go) folds sampled waterfalls
// into a fleet-wide per-actor/per-edge attribution.
//
// The package sits below obs: it imports only the provenance store and the
// shared quantile sketch, so obs can serve it over HTTP while
// internal/obs/qos (which imports obs) reuses the same sketch without an
// import cycle.
package latency

import (
	"sort"
	"time"

	"repro/internal/event"
	"repro/internal/obs/prov"
)

// SegmentKind classifies one waterfall segment.
type SegmentKind uint8

const (
	// SegmentCost is time inside an actor's firing.
	SegmentCost SegmentKind = iota
	// SegmentQueue is time a ready window waited in scheduler queues before
	// its firing.
	SegmentQueue
	// SegmentTransit is skew-corrected one-way bridge time between nodes.
	SegmentTransit
	// SegmentGap is inter-hop time not explained by queue wait or a
	// measured bridge transit: channel delivery, windowing, and (on
	// unmeasured bridges) the wire.
	SegmentGap
)

// String names the segment kind in JSON and logs.
func (k SegmentKind) String() string {
	switch k {
	case SegmentCost:
		return "cost"
	case SegmentQueue:
		return "queue"
	case SegmentTransit:
		return "transit"
	case SegmentGap:
		return "gap"
	default:
		return "unknown"
	}
}

// Segment is one interval of a wave's critical path. Consecutive segments
// tile [Waterfall.StartNs, Waterfall.EndNs] with no overlap and no holes,
// so their durations sum exactly to the end-to-end latency.
type Segment struct {
	Kind SegmentKind
	// Actor is the actor charged with the segment: the firing actor for
	// cost and queue, the downstream actor for gaps and transit.
	Actor string
	// Edge labels gap and transit segments "upstream->downstream" ("" for
	// cost and queue).
	Edge string
	// Node is the node whose clock the segment is observed on.
	Node string
	// StartNs is the segment's start on the reference clock; Duration its
	// length.
	StartNs  int64
	Duration time.Duration
}

// PathHop is one hop along the critical path.
type PathHop struct {
	Node, Actor string
	StartNs     int64
	QueueWait   time.Duration
	Cost        time.Duration
}

// Waterfall is one wave's critical-path decomposition.
type Waterfall struct {
	Root    int64
	RootSeq uint64
	// StartNs is the source firing's start, EndNs the endpoint firing's
	// end, on the reference clock (the querying node's, after skew
	// correction).
	StartNs, EndNs int64
	// EndToEnd is EndNs − StartNs; the Segments tile it exactly.
	EndToEnd time.Duration
	Path     []PathHop
	Segments []Segment
	// BridgeTransit totals the measured transit segments on the path.
	BridgeTransit time.Duration
}

// hopEnd is a hop's firing end on the reference clock.
func hopEnd(h *prov.Hop) int64 { return h.Start.UnixNano() + int64(h.Cost) }

// hopReady is when the hop's window became fireable.
func hopReady(h *prov.Hop) int64 { return h.Start.UnixNano() - int64(h.QueueWait) }

// zeroTag reports whether a wave tag slot is unset (a source firing's In,
// or the Out of a firing that produced nothing).
func zeroTag(t event.WaveTag) bool { return t.Root == 0 && len(t.Path) == 0 }

// produces reports whether hop p's recorded emission tag could have
// produced hop h's trigger.
func produces(p, h *prov.Hop) bool {
	if zeroTag(p.Out) || zeroTag(h.In) {
		return false
	}
	return p.Out.SameEvent(h.In) || p.Out.AncestorOf(h.In)
}

// Analyze builds the waterfall for one wave from its recorded hops and any
// measured bridge transits. Hops must already share a reference clock (the
// caller applies peer skew corrections for cluster-stitched lineages). It
// returns nil when no hops are given.
func Analyze(hops []prov.Hop, transits []prov.Transit) *Waterfall {
	if len(hops) == 0 {
		return nil
	}
	// Work on pointers into a private copy ordered by firing end: the
	// critical path walks from the latest-ending hop backward.
	hs := make([]*prov.Hop, len(hops))
	for i := range hops {
		hs[i] = &hops[i]
	}
	sort.SliceStable(hs, func(i, j int) bool { return hopEnd(hs[i]) < hopEnd(hs[j]) })

	// Backward walk: from the terminal hop, choose the parent whose
	// recorded emission produced this hop's trigger — among several (an
	// aggregate's window spans many firings) the latest-ending one, since
	// that is the arrival that completed the window. Hops whose trigger tag
	// matches nothing (bridge receivers re-emitting with In unset, or
	// sibling emissions the recorded Out tag cannot witness) fall back to
	// the latest hop that finished before this one began — on a stitched
	// two-node lineage that is exactly the upstream bridge sender.
	terminal := hs[len(hs)-1]
	chain := []*prov.Hop{terminal}
	used := map[*prov.Hop]bool{terminal: true}
	for cur := terminal; ; {
		var parent *prov.Hop
		for i := len(hs) - 1; i >= 0; i-- {
			p := hs[i]
			if used[p] || p == cur {
				continue
			}
			if produces(p, cur) {
				parent = p
				break
			}
		}
		if parent == nil {
			start := cur.Start.UnixNano()
			for i := len(hs) - 1; i >= 0; i-- {
				p := hs[i]
				if used[p] || hopEnd(p) > start {
					continue
				}
				parent = p
				break
			}
		}
		if parent == nil {
			break
		}
		used[parent] = true
		chain = append(chain, parent)
		cur = parent
	}
	// chain is endpoint-first; reverse to source-first.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}

	w := &Waterfall{
		Root:    hops[0].Root,
		RootSeq: hops[0].RootSeq,
		StartNs: chain[0].Start.UnixNano(),
		EndNs:   hopEnd(chain[len(chain)-1]),
	}
	w.EndToEnd = time.Duration(w.EndNs - w.StartNs)

	// Tile [StartNs, EndNs] with segments along the chain. The cursor only
	// moves forward and the final segment is forced to end exactly at
	// EndNs, so durations telescope to EndToEnd with no rounding loss: the
	// documented error bound is ±0 on the sum (individual boundaries carry
	// the skew estimator's ±RTT/2 where a correction was applied).
	cur := w.StartNs
	emit := func(kind SegmentKind, actor, edge, node string, until int64) {
		if until < cur {
			until = cur // clock noise across nodes: collapse, never rewind
		}
		if until == cur && kind != SegmentCost {
			return // zero-width non-cost segments add noise, not signal
		}
		w.Segments = append(w.Segments, Segment{
			Kind: kind, Actor: actor, Edge: edge, Node: node,
			StartNs: cur, Duration: time.Duration(until - cur),
		})
		cur = until
	}
	for i, h := range chain {
		w.Path = append(w.Path, PathHop{
			Node: h.Node, Actor: h.Actor, StartNs: h.Start.UnixNano(),
			QueueWait: h.QueueWait, Cost: h.Cost,
		})
		if i > 0 {
			p := chain[i-1]
			edge := p.Actor + "->" + h.Actor
			// A measured bridge transit splits the inter-hop span into
			// pre-wire gap, wire, post-wire gap; it applies when the hop
			// crossed nodes and the measurement lies inside this span.
			var tr *prov.Transit
			if h.Node != p.Node {
				for t := range transits {
					sent := transits[t].SentAt.UnixNano()
					if sent >= hopEnd(p)-int64(time.Millisecond) && transits[t].RecvAt.UnixNano() <= h.Start.UnixNano()+int64(time.Millisecond) {
						tr = &transits[t]
						break
					}
				}
			}
			ready := hopReady(h)
			if tr != nil {
				emit(SegmentGap, h.Actor, edge, p.Node, tr.SentAt.UnixNano())
				emit(SegmentTransit, h.Actor, edge, h.Node, tr.RecvAt.UnixNano())
				if n := len(w.Segments); n > 0 && w.Segments[n-1].Kind == SegmentTransit {
					w.BridgeTransit += w.Segments[n-1].Duration
				}
			}
			emit(SegmentGap, h.Actor, edge, h.Node, ready)
			emit(SegmentQueue, h.Actor, "", h.Node, h.Start.UnixNano())
		}
		end := hopEnd(h)
		if i == len(chain)-1 {
			end = w.EndNs
		}
		emit(SegmentCost, h.Actor, "", h.Node, end)
	}
	return w
}
