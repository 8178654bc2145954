package qos

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/prov"
)

// Flight-recorder defaults.
const (
	DefaultRecorderSpan = 30 * time.Second
	// recorderStripes spreads decision recording across mutexes keyed by
	// record sequence, so eight workers rarely contend.
	recorderStripes = 8
	// stripeCapacity bounds each stripe's ring; 8x4096 decisions cover tens
	// of seconds of scheduler churn.
	stripeCapacity = 4096
	// freezeCooldown suppresses re-freezing while an earlier dump is still
	// fresh, so a flapping alert cannot thrash the recorder.
	freezeCooldown = 5 * time.Second
	// dumpWaves bounds how many sampled wave lineages a dump carries.
	dumpWaves = 32
	// timestampEvery is how many records share one wall-clock reading.
	// Decision recording sits on the scheduler hot path, where a clock read
	// per decision costs more than the record itself; a coarse stamp (at
	// most timestampEvery decisions stale) is plenty for trimming a freeze
	// to its span. Ordering does not rely on it — see Decision.seq.
	timestampEvery = 16
)

// Decision is one recorded scheduler decision.
type Decision struct {
	// At is the wall-clock record time, coarsened to the recorder's last
	// clock refresh (scheduler hooks carry no engine timestamp, and the
	// recorder's job is "what just happened", so wall time is the honest
	// axis even under a virtual engine clock). Filled from atNS at freeze.
	At time.Time `json:"at"`
	// Kind is pick | park | claim-empty.
	Kind string `json:"kind"`
	// Actor is the decision's subject ("" for claim-empty).
	Actor string `json:"actor,omitempty"`

	// seq is the global record order (coarse At values tie in bursts);
	// atNS is the coarse record time in unix nanos.
	seq  uint64
	atNS int64
}

// WaveLineage is one sampled wave's actor path included in a dump.
type WaveLineage struct {
	ID   string
	Hops []prov.Hop
}

// Dump is a frozen flight-recorder capture: the scheduler decisions of the
// last Span seconds before the freeze plus sampled wave lineages.
type Dump struct {
	FrozenAt  time.Time
	Reason    string
	SLO       string
	Span      time.Duration
	Decisions []Decision
	Waves     []WaveLineage
}

// recorderStripe is one mutex-guarded decision ring.
type recorderStripe struct {
	mu   sync.Mutex
	buf  []Decision
	next int
}

func (s *recorderStripe) record(d Decision) {
	s.mu.Lock()
	// Grow-on-demand: the ring only ever costs what was actually recorded
	// (a freshly attached monitor does not pay stripeCapacity up front),
	// and append's geometric growth amortizes to a handful of copies over
	// the ring's entire fill.
	if len(s.buf) < stripeCapacity {
		s.buf = append(s.buf, d)
	} else {
		s.buf[s.next] = d
	}
	s.next = (s.next + 1) % stripeCapacity
	s.mu.Unlock()
}

// snapshot copies the stripe's decisions (unordered).
func (s *recorderStripe) snapshot(into []Decision) []Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(into, s.buf...)
}

// flightRecorder continuously records scheduler decisions into striped
// rings; Freeze captures an immutable, time-ordered dump of the trailing
// span, attached to the raising SLO.
type flightRecorder struct {
	span   time.Duration
	stripe [recorderStripes]recorderStripe
	seq    atomic.Uint64
	// lastNS is the shared coarse wall clock (unix nanos), refreshed by
	// whichever record crosses a timestampEvery boundary of seq.
	lastNS atomic.Int64

	freezeMu   sync.Mutex
	lastFreeze atomic.Int64
	frozen     atomic.Pointer[Dump]
}

func newFlightRecorder(span time.Duration) *flightRecorder {
	if span <= 0 {
		span = DefaultRecorderSpan
	}
	return &flightRecorder{span: span}
}

// Record appends one decision to the ring. Striping follows the sequence
// number rather than the actor: stripes exist only to spread lock
// contention, and Freeze restores global order by seq, so round-robin
// placement is as good as affinity and skips hashing the actor name.
//
//confvet:hotpath
func (r *flightRecorder) Record(kind, actor string) {
	seq := r.seq.Add(1)
	if seq%timestampEvery == 1 {
		r.lastNS.Store(time.Now().UnixNano()) //confvet:ignore -- coarse shared clock, amortized 1-in-16
	}
	d := Decision{Kind: kind, Actor: actor, seq: seq, atNS: r.lastNS.Load()}
	r.stripe[seq%recorderStripes].record(d)
}

// Freeze captures the trailing window of decisions plus sampled wave
// lineages from the engine's lineage store (nil-safe) and publishes the
// dump. Freezes inside the cooldown of a previous one are dropped, so a
// flapping alert keeps its first — most diagnostic — capture.
func (r *flightRecorder) Freeze(reason, slo string, lineage *prov.Store) {
	now := time.Now()
	if last := r.lastFreeze.Load(); last != 0 && now.Sub(time.Unix(0, last)) < freezeCooldown {
		return
	}
	r.freezeMu.Lock()
	defer r.freezeMu.Unlock()
	if last := r.lastFreeze.Load(); last != 0 && now.Sub(time.Unix(0, last)) < freezeCooldown {
		return
	}

	var all []Decision
	for i := range r.stripe {
		all = r.stripe[i].snapshot(all)
	}
	cutoffNS := now.Add(-r.span).UnixNano()
	kept := all[:0]
	for _, d := range all {
		if d.atNS > cutoffNS {
			d.At = time.Unix(0, d.atNS)
			kept = append(kept, d)
		}
	}
	// Coarse stamps tie within a refresh window; the global sequence is
	// the true record order.
	sort.Slice(kept, func(i, j int) bool { return kept[i].seq < kept[j].seq })

	dump := &Dump{
		FrozenAt:  now,
		Reason:    reason,
		SLO:       slo,
		Span:      r.span,
		Decisions: append([]Decision(nil), kept...),
	}
	for _, ref := range lineage.Recent(dumpWaves) {
		hops := lineage.Wave(ref.Root, ref.RootSeq)
		if len(hops) == 0 {
			continue
		}
		dump.Waves = append(dump.Waves, WaveLineage{ID: obs.FormatWaveID(ref.Root, ref.RootSeq), Hops: hops})
	}
	r.frozen.Store(dump)
	r.lastFreeze.Store(now.UnixNano())
}

// Frozen returns the latest dump, or nil.
func (r *flightRecorder) Frozen() *Dump { return r.frozen.Load() }

// Reset drops the rings and any frozen dump.
func (r *flightRecorder) Reset() {
	for i := range r.stripe {
		s := &r.stripe[i]
		s.mu.Lock()
		s.buf = s.buf[:0]
		s.next = 0
		s.mu.Unlock()
	}
	r.seq.Store(0)
	r.lastNS.Store(0)
	r.frozen.Store(nil)
	r.lastFreeze.Store(0)
}
