// Package prov is the engine's lineage store: the one place a sampled
// firing is recorded, and what /provenance, latency attribution and the QoS
// flight recorder all read. It is append-only and bounded: hops are
// sealed into fixed-size segments with explicit retention and eviction
// counters, so "which inputs produced this toll alert?" (Cuevas-Vicenttín et
// al.'s provenance question) stays answerable for as long as the configured
// retention allows — across the run, and — together with the bridge trace
// propagation in internal/dist — across process boundaries.
//
// Recording is on the engine hot path (one Record per sampled firing) and
// follows the PR 6 zero-alloc idioms: hops are fixed-size structs written
// into pre-allocated segment arrays under a lock-striped mutex, segment
// rotation reuses evicted segments through a per-stripe spare, and the slow
// allocation path lives outside Record exactly like event.Pool's refill.
// Queries (by wave, by actor + time range, ancestor/descendant walks) scan
// the bounded segment set under the stripe locks and return copies, so
// readers never pin store memory.
package prov

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
)

const (
	// Stripes is the number of lock stripes, a power of two; all hops of one
	// wave hash to the same stripe, so wave lookups scan exactly one stripe.
	Stripes = 16

	// DefaultSegmentHops is the per-segment hop capacity when Options
	// leaves it zero.
	DefaultSegmentHops = 1024

	// DefaultMaxSegments is the store-wide segment retention bound when
	// Options leaves it zero: 64 segments × 1024 hops = 65536 resident
	// hops.
	DefaultMaxSegments = 64

	// originTableCap bounds the wave → origin-node table fed by bridge
	// trace propagation; oldest notes are dropped FIFO beyond it.
	originTableCap = 4096
)

// Options configures a Store.
type Options struct {
	// SegmentHops is the hop capacity of one segment (0 =
	// DefaultSegmentHops).
	SegmentHops int
	// MaxSegments bounds the store's total resident segments across all
	// stripes (0 = DefaultMaxSegments). Older segments are evicted whole.
	MaxSegments int
	// MaxAge, when non-zero, additionally evicts sealed segments whose
	// newest hop is older than this.
	MaxAge time.Duration
}

// Hop is one recorded firing of a sampled wave: which actor fired, for which
// wave, when, how long the consumed window waited and what the firing cost,
// stamped with the recording node so lineages stitched across processes
// stay attributable. A wave's hops in Seq order are its lineage.
type Hop struct {
	// Node is the recording node's name ("" when the engine runs without a
	// cluster identity).
	Node string
	// Actor is the firing actor's name.
	Actor string
	// Root and RootSeq identify the wave (the external event).
	Root    int64
	RootSeq uint64
	// In is the trigger event's wave-tag (zero for a source firing).
	In event.WaveTag
	// Out is the wave-tag of the firing's first emission (zero when the
	// firing produced nothing).
	Out event.WaveTag
	// Start is the engine time the firing began.
	Start time.Time
	// QueueWait is how long the consumed window sat ready before the
	// firing started; Cost is the firing's measured cost.
	QueueWait time.Duration
	Cost      time.Duration
	// Consumed and Produced count the firing's input and output events.
	Consumed int
	Produced int
	// Seq is the store-local record order; hops of one wave sorted by Seq
	// are the actor path from source to sink on this node.
	Seq uint64
}

// WaveRef summarizes one store-resident wave.
type WaveRef struct {
	Root    int64
	RootSeq uint64
	// Hops is how many hops of the wave the store holds.
	Hops int
	// First and Last bound the wave's recorded hop start times.
	First, Last time.Time
	// lastSeq orders waves by recency.
	lastSeq uint64
}

// Stats is the store's bookkeeping snapshot.
type Stats struct {
	// Recorded counts every hop ever recorded; Resident is how many are
	// currently queryable.
	Recorded int64 `json:"recorded"`
	Resident int64 `json:"resident"`
	// EvictedHops and EvictedSegments count retention evictions — lineage
	// that aged or overflowed out of the store.
	EvictedHops     int64 `json:"evicted_hops"`
	EvictedSegments int64 `json:"evicted_segments"`
	// Segments is the current segment count; CapacityHops the retention
	// bound in hops.
	Segments     int `json:"segments"`
	CapacityHops int `json:"capacity_hops"`
	// OriginWaves counts waves with a recorded bridge origin.
	OriginWaves int `json:"origin_waves"`
}

// segment is one sealed or active run of hops. hops is allocated once at
// rotation; n only grows while the segment is active.
type segment struct {
	hops               []Hop
	n                  int
	minStart, maxStart int64 // unix nanos, for time-range pruning
}

// stripe is one lock stripe: the active segment plus sealed history,
// oldest first, and a spare segment recycled from the last eviction so
// steady-state rotation allocates nothing.
type stripe struct {
	mu     sync.Mutex
	active *segment
	sealed []*segment
	spare  *segment
}

// waveKey identifies a wave in the origin table.
type waveKey struct {
	root int64
	seq  uint64
}

// originNote is one wave's bridge context: the upstream node its events
// arrived from, and — when the bridge measured one — the skew-corrected
// transit of its first traced frame.
type originNote struct {
	origin uint64
	// sentNs/recvNs bound the bridge hop on the receiving node's clock
	// (sentNs already skew-corrected); transitNs is their difference.
	// hasTransit distinguishes a measured zero from "no measurement".
	sentNs, recvNs, transitNs int64
	hasTransit                bool
}

// Transit is one wave's measured bridge hop, as returned by
// (*Store).Transit.
type Transit struct {
	// Origin is the upstream node the wave arrived from.
	Origin uint64
	// SentAt and RecvAt bound the hop on the receiving node's clock
	// (SentAt skew-corrected from the sender's send stamp).
	SentAt, RecvAt time.Time
	// Duration is the corrected one-way transit.
	Duration time.Duration
}

// Store is the bounded lineage store. A nil *Store is valid everywhere and
// records nothing.
type Store struct {
	segmentHops  int
	maxPerStripe int // segments per stripe, including the active one
	maxAge       time.Duration

	seq         atomic.Uint64
	recorded    atomic.Int64
	evictedHops atomic.Int64
	evictedSegs atomic.Int64

	stripes [Stripes]stripe

	// origins maps waves to their bridge context — upstream node ID and,
	// when measured, the corrected bridge transit (bounded FIFO; control
	// path only).
	omu     sync.Mutex
	origins map[waveKey]originNote
	originQ []waveKey
}

// NewStore builds a store with the given retention shape.
func NewStore(opts Options) *Store {
	segHops := opts.SegmentHops
	if segHops <= 0 {
		segHops = DefaultSegmentHops
	}
	maxSegs := opts.MaxSegments
	if maxSegs <= 0 {
		maxSegs = DefaultMaxSegments
	}
	per := (maxSegs + Stripes - 1) / Stripes
	if per < 1 {
		per = 1
	}
	return &Store{
		segmentHops:  segHops,
		maxPerStripe: per,
		maxAge:       opts.MaxAge,
		origins:      make(map[waveKey]originNote),
	}
}

// WaveHash mixes a wave identity into a well-distributed 64-bit value
// (splitmix64 finalizer). Stripe selection here and the sampling decision in
// obs.Tracer share it.
func WaveHash(root int64, rootSeq uint64) uint64 {
	x := uint64(root) ^ (rootSeq * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Record appends one hop. The caller has already made the sampling
// decision; Record never blocks beyond its stripe mutex and allocates
// nothing in steady state (segment rotation reuses the eviction spare; the
// cold refill lives in rotate, following the event.Pool idiom).
//
//confvet:hotpath
func (s *Store) Record(h Hop) {
	if s == nil {
		return
	}
	h.Seq = s.seq.Add(1)
	ns := h.Start.UnixNano()
	st := &s.stripes[WaveHash(h.Root, h.RootSeq)&(Stripes-1)]
	st.mu.Lock()
	seg := st.active
	if seg == nil || seg.n == len(seg.hops) {
		seg = s.rotate(st)
	}
	seg.hops[seg.n] = h
	if seg.n == 0 || ns < seg.minStart {
		seg.minStart = ns
	}
	if seg.n == 0 || ns > seg.maxStart {
		seg.maxStart = ns
	}
	seg.n++
	st.mu.Unlock()
	s.recorded.Add(1)
}

// rotate seals the stripe's active segment, evicts beyond the retention
// bound (recycling the newest eviction as the stripe's spare) and installs
// a fresh active segment. Called with st.mu held; this is the allocation
// slow path kept out of Record.
func (s *Store) rotate(st *stripe) *segment {
	if st.active != nil {
		st.sealed = append(st.sealed, st.active)
		st.active = nil
	}
	for len(st.sealed) > s.maxPerStripe-1 {
		s.evictOldest(st)
	}
	seg := st.spare
	st.spare = nil
	if seg == nil {
		seg = &segment{hops: make([]Hop, s.segmentHops)}
	}
	seg.n = 0
	seg.minStart, seg.maxStart = 0, 0
	st.active = seg
	return seg
}

// evictOldest drops the stripe's oldest sealed segment, counting the loss
// and keeping the segment as the stripe's spare for reuse. Called with
// st.mu held.
func (s *Store) evictOldest(st *stripe) {
	old := st.sealed[0]
	copy(st.sealed, st.sealed[1:])
	st.sealed[len(st.sealed)-1] = nil
	st.sealed = st.sealed[:len(st.sealed)-1]
	s.evictedSegs.Add(1)
	s.evictedHops.Add(int64(old.n))
	// Zero the recycled hops so stale lineage can never resurface through
	// a reader racing a future rotation, and so retained slice references
	// (wave paths, tokens via Out tags) are released to the GC.
	for i := range old.hops[:old.n] {
		old.hops[i] = Hop{}
	}
	old.n = 0
	st.spare = old
}

// expire applies the age bound: sealed segments whose newest hop is older
// than MaxAge are evicted. Queries call it on entry so retention holds even
// when recording has gone quiet.
func (s *Store) expire(now time.Time) {
	if s == nil || s.maxAge <= 0 {
		return
	}
	cutoff := now.Add(-s.maxAge).UnixNano()
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for len(st.sealed) > 0 && st.sealed[0].maxStart < cutoff {
			s.evictOldest(st)
		}
		st.mu.Unlock()
	}
}

// noteLocked inserts or updates one wave's note under s.omu, enforcing the
// FIFO bound on new keys.
func (s *Store) noteLocked(k waveKey, update func(*originNote)) {
	if _, ok := s.origins[k]; !ok {
		if len(s.originQ) >= originTableCap {
			delete(s.origins, s.originQ[0])
			s.originQ = s.originQ[1:]
		}
		s.originQ = append(s.originQ, k)
	}
	note := s.origins[k]
	update(&note)
	s.origins[k] = note
}

// NoteOrigin records that the given wave's events arrived over a bridge
// from the node with the given identity (see dist.NodeIDOf). The table is
// bounded; beyond originTableCap the oldest note is dropped.
func (s *Store) NoteOrigin(root int64, rootSeq uint64, origin uint64) {
	if s == nil {
		return
	}
	s.omu.Lock()
	s.noteLocked(waveKey{root, rootSeq}, func(n *originNote) { n.origin = origin })
	s.omu.Unlock()
}

// NoteTransit records one wave's measured bridge hop: the skew-corrected
// send time, local arrival time and their difference, all on the receiving
// node's clock. The first measurement per wave wins — later frames of the
// same wave re-cross the bridge only on retries, whose timing is not the
// wave's first hop.
func (s *Store) NoteTransit(root int64, rootSeq uint64, origin uint64, sentNs, recvNs int64, transit time.Duration) {
	if s == nil {
		return
	}
	s.omu.Lock()
	s.noteLocked(waveKey{root, rootSeq}, func(n *originNote) {
		if n.origin == 0 {
			n.origin = origin
		}
		if !n.hasTransit {
			n.sentNs, n.recvNs, n.transitNs = sentNs, recvNs, int64(transit)
			n.hasTransit = true
		}
	})
	s.omu.Unlock()
}

// Origin returns the upstream node identity the wave arrived from, if a
// bridge noted one.
func (s *Store) Origin(root int64, rootSeq uint64) (uint64, bool) {
	if s == nil {
		return 0, false
	}
	s.omu.Lock()
	n, ok := s.origins[waveKey{root, rootSeq}]
	s.omu.Unlock()
	if !ok || n.origin == 0 {
		return 0, false
	}
	return n.origin, true
}

// TransitOf returns the wave's measured bridge hop, if the receiving
// bridge recorded one.
func (s *Store) TransitOf(root int64, rootSeq uint64) (Transit, bool) {
	if s == nil {
		return Transit{}, false
	}
	s.omu.Lock()
	n, ok := s.origins[waveKey{root, rootSeq}]
	s.omu.Unlock()
	if !ok || !n.hasTransit {
		return Transit{}, false
	}
	return Transit{
		Origin:   n.origin,
		SentAt:   time.Unix(0, n.sentNs),
		RecvAt:   time.Unix(0, n.recvNs),
		Duration: time.Duration(n.transitNs),
	}, true
}

// forEach yields every resident hop of one stripe under its lock.
func (st *stripe) forEach(yield func(*Hop)) {
	st.mu.Lock()
	for _, seg := range st.sealed {
		for i := range seg.hops[:seg.n] {
			yield(&seg.hops[i])
		}
	}
	if seg := st.active; seg != nil {
		for i := range seg.hops[:seg.n] {
			yield(&seg.hops[i])
		}
	}
	st.mu.Unlock()
}

// Wave returns the store's hops for one wave in record order (the actor
// path from source to sink as executed on this node), or nil when the wave
// was not sampled or has been evicted.
func (s *Store) Wave(root int64, rootSeq uint64) []Hop {
	return s.walk(root, rootSeq, func(*Hop) bool { return true })
}

// WavesByRoot returns the hops of every resident wave whose root timestamp
// matches, grouped per wave in record order, groups ordered by RootSeq.
// Rendered wave-tag strings do not carry the root sequence number, so a
// lookup by tag can match several external events with equal timestamps.
func (s *Store) WavesByRoot(root int64) [][]Hop {
	if s == nil {
		return nil
	}
	s.expire(time.Now())
	byWave := map[uint64][]Hop{}
	for i := range s.stripes {
		s.stripes[i].forEach(func(h *Hop) {
			if h.Root == root {
				byWave[h.RootSeq] = append(byWave[h.RootSeq], *h)
			}
		})
	}
	out := make([][]Hop, 0, len(byWave))
	for _, hops := range byWave {
		sort.Slice(hops, func(i, j int) bool { return hops[i].Seq < hops[j].Seq })
		out = append(out, hops)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0].RootSeq < out[j][0].RootSeq })
	return out
}

// Ancestors returns the hops that produced the event identified by
// (root, rootSeq, path): the wave's source firings plus every firing whose
// trigger tag is a proper ancestor of the event — the "which inputs
// produced this output?" walk. An empty path asks for the external event's
// producers (its source firings).
func (s *Store) Ancestors(root int64, rootSeq uint64, path []int) []Hop {
	target := event.WaveTag{Root: root, RootSeq: rootSeq, Path: path}
	return s.walk(root, rootSeq, func(h *Hop) bool {
		if h.In.Root == 0 && len(h.In.Path) == 0 {
			return true // source firing: starts the wave
		}
		return h.In.AncestorOf(target)
	})
}

// Descendants returns the hops triggered by the event identified by
// (root, rootSeq, path) or by anything it produced — the forward walk
// ("what did this input cause?"). An empty path returns every non-source
// hop of the wave.
func (s *Store) Descendants(root int64, rootSeq uint64, path []int) []Hop {
	target := event.WaveTag{Root: root, RootSeq: rootSeq, Path: path}
	return s.walk(root, rootSeq, func(h *Hop) bool {
		return target.SameEvent(h.In) || target.AncestorOf(h.In)
	})
}

// walk filters one wave's hops.
func (s *Store) walk(root int64, rootSeq uint64, keep func(*Hop) bool) []Hop {
	if s == nil {
		return nil
	}
	s.expire(time.Now())
	st := &s.stripes[WaveHash(root, rootSeq)&(Stripes-1)]
	var out []Hop
	st.forEach(func(h *Hop) {
		if h.Root == root && h.RootSeq == rootSeq && keep(h) {
			out = append(out, *h)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// ByActor returns up to limit waves that recorded a hop at the given actor
// whose start time falls in [from, until], newest first. Zero from/until
// leave that side of the range open — this is the "which waves reached
// this sink in that window?" index.
func (s *Store) ByActor(actor string, from, until time.Time, limit int) []WaveRef {
	if s == nil {
		return nil
	}
	s.expire(time.Now())
	fromNs, untilNs := timeBound(from, until)
	refs := map[waveKey]*WaveRef{}
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for _, seg := range st.sealed {
			s.scanActor(seg, actor, fromNs, untilNs, refs)
		}
		if st.active != nil {
			s.scanActor(st.active, actor, fromNs, untilNs, refs)
		}
		st.mu.Unlock()
	}
	return sortRefs(refs, limit)
}

// scanActor accumulates one segment's actor matches, pruning by the
// segment's time bounds first. Called with the stripe lock held.
func (s *Store) scanActor(seg *segment, actor string, fromNs, untilNs int64, refs map[waveKey]*WaveRef) {
	if seg.n == 0 || seg.maxStart < fromNs || seg.minStart > untilNs {
		return
	}
	for i := range seg.hops[:seg.n] {
		h := &seg.hops[i]
		ns := h.Start.UnixNano()
		if h.Actor != actor || ns < fromNs || ns > untilNs {
			continue
		}
		addRef(refs, h)
	}
}

// Recent summarizes up to limit store-resident waves, most recently
// recorded first.
func (s *Store) Recent(limit int) []WaveRef {
	if s == nil {
		return nil
	}
	s.expire(time.Now())
	refs := map[waveKey]*WaveRef{}
	for i := range s.stripes {
		s.stripes[i].forEach(func(h *Hop) { addRef(refs, h) })
	}
	return sortRefs(refs, limit)
}

// addRef folds one hop into the wave summary map.
func addRef(refs map[waveKey]*WaveRef, h *Hop) {
	k := waveKey{h.Root, h.RootSeq}
	r := refs[k]
	if r == nil {
		r = &WaveRef{Root: h.Root, RootSeq: h.RootSeq, First: h.Start, Last: h.Start}
		refs[k] = r
	}
	r.Hops++
	if h.Start.Before(r.First) {
		r.First = h.Start
	}
	if h.Start.After(r.Last) {
		r.Last = h.Start
	}
	if h.Seq > r.lastSeq {
		r.lastSeq = h.Seq
	}
}

// sortRefs orders wave summaries newest-first and truncates to limit.
func sortRefs(refs map[waveKey]*WaveRef, limit int) []WaveRef {
	out := make([]WaveRef, 0, len(refs))
	for _, r := range refs {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].lastSeq > out[j].lastSeq })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// timeBound converts an optional [from, until] pair to inclusive unix-nano
// bounds with open sides.
func timeBound(from, until time.Time) (int64, int64) {
	fromNs := int64(-1 << 62)
	if !from.IsZero() {
		fromNs = from.UnixNano()
	}
	untilNs := int64(1<<62 - 1)
	if !until.IsZero() {
		untilNs = until.UnixNano()
	}
	return fromNs, untilNs
}

// Stats returns the store's bookkeeping counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.expire(time.Now())
	st := Stats{
		Recorded:        s.recorded.Load(),
		EvictedHops:     s.evictedHops.Load(),
		EvictedSegments: s.evictedSegs.Load(),
		CapacityHops:    s.segmentHops * s.maxPerStripe * Stripes,
	}
	for i := range s.stripes {
		sp := &s.stripes[i]
		sp.mu.Lock()
		for _, seg := range sp.sealed {
			st.Resident += int64(seg.n)
		}
		st.Segments += len(sp.sealed)
		if sp.active != nil {
			st.Resident += int64(sp.active.n)
			st.Segments++
		}
		sp.mu.Unlock()
	}
	s.omu.Lock()
	st.OriginWaves = len(s.origins)
	s.omu.Unlock()
	return st
}
