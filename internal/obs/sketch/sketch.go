// Package sketch provides the introspection layer's one latency summary: a
// mergeable quantile sketch with one atomic counter per power-of-two
// microsecond bucket, a nanosecond sum and an atomic max, so an observation
// is three increments and (rarely) one CAS. It is a leaf package — no obs
// imports — shared by the Prometheus histograms (internal/obs), the QoS
// monitor (internal/obs/qos) and the latency attribution engine
// (internal/obs/latency), which sit on both sides of the obs package and
// therefore cannot share code through it.
package sketch

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Buckets is the bucket count of the latency sketch: power-of-two
// microsecond buckets 1µs..2^27µs (~134s) plus an overflow bucket, wide
// enough to place a 5s deadline with headroom (the /metrics histograms
// render only the first 23, up to ~4.2s, too tight for SLO thresholds in
// that range).
const Buckets = 28

// Sketch is a mergeable quantile sketch. Quantile estimates carry a
// worst-case relative error of 2x (one bucket width), which is enough to
// judge an SLO whose threshold the caller chose, or to rank attribution
// shares — exact conformance is counted by the callers, not estimated from
// the sketch.
type Sketch struct {
	counts [Buckets + 1]atomic.Int64 // [Buckets] = overflow
	total  atomic.Int64
	sumNS  atomic.Int64
	maxUS  atomic.Int64
}

// BucketOf maps a latency to its sketch bucket: bucket i covers
// (2^(i-1), 2^i] microseconds, bucket 0 covers <=1µs.
func BucketOf(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	if us <= 1 {
		return 0
	}
	b := bits.Len64(us - 1)
	if b >= Buckets {
		return Buckets
	}
	return b
}

// Observe records one latency sample.
//
//confvet:hotpath
func (s *Sketch) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.counts[BucketOf(d)].Add(1)
	s.total.Add(1)
	s.sumNS.Add(int64(d))
	us := int64(d / time.Microsecond)
	for {
		cur := s.maxUS.Load()
		if us <= cur || s.maxUS.CompareAndSwap(cur, us) {
			return
		}
	}
}

// Reset zeroes the sketch. Concurrent observations may survive partially —
// acceptable for monitoring-grade windows.
func (s *Sketch) Reset() {
	for i := range s.counts {
		s.counts[i].Store(0)
	}
	s.total.Store(0)
	s.sumNS.Store(0)
	s.maxUS.Store(0)
}

// Snapshot is an immutable copy of a sketch (or a merge of several), from
// which quantiles are computed.
type Snapshot struct {
	Counts [Buckets + 1]int64
	Total  int64
	SumNS  int64
	MaxUS  int64
}

// Load copies the sketch's live counters into the snapshot, accumulating
// onto whatever is already there (so windows merge by repeated Load).
func (s *Sketch) Load(into *Snapshot) {
	for i := range s.counts {
		into.Counts[i] += s.counts[i].Load()
	}
	into.Total += s.total.Load()
	into.SumNS += s.sumNS.Load()
	if m := s.maxUS.Load(); m > into.MaxUS {
		into.MaxUS = m
	}
}

// Merge folds another snapshot into this one.
func (s *Snapshot) Merge(o Snapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Total += o.Total
	s.SumNS += o.SumNS
	if o.MaxUS > s.MaxUS {
		s.MaxUS = o.MaxUS
	}
}

// Max returns the largest observed latency.
func (s *Snapshot) Max() time.Duration {
	return time.Duration(s.MaxUS) * time.Microsecond
}

// Quantile estimates the q-quantile (0 < q <= 1) by rank walk over the
// bucket counts with geometric interpolation inside the landing bucket.
// The estimate never exceeds the observed max; the overflow bucket reports
// the max directly.
func (s *Snapshot) Quantile(q float64) time.Duration {
	if s.Total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Total)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Total {
		rank = s.Total
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum < rank {
			continue
		}
		if i == Buckets {
			return s.Max()
		}
		// Bucket i spans (2^(i-1), 2^i] µs; place the rank geometrically
		// within it. frac in (0,1]: the fraction of this bucket's count at
		// or below the rank.
		lower := 1.0
		if i > 0 {
			lower = math.Exp2(float64(i - 1))
		}
		frac := float64(rank-(cum-c)) / float64(c)
		est := lower * math.Exp2(frac)
		if i == 0 {
			est = frac // bucket 0 is <=1µs; interpolate linearly
		}
		d := time.Duration(est * float64(time.Microsecond))
		if max := s.Max(); max > 0 && d > max {
			d = max
		}
		return d
	}
	return s.Max()
}

// defaultSlotWidth and defaultSlots give the windowed sketch a ~60s span at
// 5s granularity, covering the fast SLO window with slack.
const (
	defaultSlotWidth = 5 * time.Second
	defaultSlots     = 12
)

// Windowed rotates a ring of sketches through time slots so a snapshot can
// merge exactly the slots inside the requested window. Slot epochs advance
// lazily on observe: the first observation landing in a new quotient CASes
// the slot's epoch forward and resets it. Races lose at most a handful of
// samples across a rotation boundary — monitoring-grade.
type Windowed struct {
	width time.Duration
	slots []windowSlot
}

type windowSlot struct {
	epoch atomic.Int64 // now/width quotient currently stored in this slot
	sk    Sketch
}

// NewWindowed builds a slot ring covering width × slots of time
// (zero/negative arguments take the ~60s/5s defaults).
func NewWindowed(width time.Duration, slots int) *Windowed {
	if width <= 0 {
		width = defaultSlotWidth
	}
	if slots <= 0 {
		slots = defaultSlots
	}
	return &Windowed{width: width, slots: make([]windowSlot, slots)}
}

// Span is the total time the ring covers.
func (w *Windowed) Span() time.Duration {
	return w.width * time.Duration(len(w.slots))
}

// Observe records one sample at engine time now.
//
//confvet:hotpath
func (w *Windowed) Observe(now time.Time, d time.Duration) {
	q := now.UnixNano() / int64(w.width)
	slot := &w.slots[int(q%int64(len(w.slots)))]
	for {
		cur := slot.epoch.Load()
		if cur == q {
			break
		}
		if cur > q {
			// Sample older than what the slot now holds: drop it rather
			// than pollute the newer window.
			return
		}
		if slot.epoch.CompareAndSwap(cur, q) {
			slot.sk.Reset()
			break
		}
	}
	slot.sk.Observe(d)
}

// Snapshot merges every slot whose epoch falls inside (now-window, now].
func (w *Windowed) Snapshot(now time.Time, window time.Duration) Snapshot {
	if window <= 0 || window > w.Span() {
		window = w.Span()
	}
	qnow := now.UnixNano() / int64(w.width)
	k := int64(window / w.width)
	if k < 1 {
		k = 1
	}
	var snap Snapshot
	for i := range w.slots {
		slot := &w.slots[i]
		e := slot.epoch.Load()
		if e > qnow || e <= qnow-k {
			continue
		}
		slot.sk.Load(&snap)
	}
	return snap
}

// Reset clears every slot (between successive virtual-time runs, whose
// clock restarts at the epoch).
func (w *Windowed) Reset() {
	for i := range w.slots {
		w.slots[i].epoch.Store(0)
		w.slots[i].sk.Reset()
	}
}
