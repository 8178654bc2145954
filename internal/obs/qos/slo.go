package qos

import (
	"log/slog"
	"sync/atomic"
	"time"
)

// Default SLO evaluation parameters.
const (
	DefaultFastWindow    = time.Minute
	DefaultSlowWindow    = time.Hour
	DefaultBurnThreshold = 10.0
	DefaultMinSamples    = 20
	// evalInterval throttles burn-rate evaluation: under overload every
	// sample is bad, and walking the slot ring per sample would cost more
	// than the sample did.
	evalInterval = 200 * time.Millisecond
)

// SLO is a declarative service-level objective over one sink actor's
// end-to-end wave latency: "Target fraction of waves complete within
// Threshold". Burn rate compares the observed bad fraction against the
// error budget (1-Target); an alert is raised when both the fast and the
// slow window burn faster than BurnThreshold, and cleared with hysteresis
// once the fast window recovers below half the threshold.
type SLO struct {
	// Name identifies the SLO in logs, series and the /slo view.
	Name string
	// Sink is the sink actor whose firings the SLO judges.
	Sink string
	// Target is the conformance goal in (0,1), e.g. 0.99.
	Target float64
	// Threshold is the latency deadline.
	Threshold time.Duration
	// FastWindow/SlowWindow are the burn-rate windows (default 1m / 1h).
	FastWindow time.Duration
	SlowWindow time.Duration
	// BurnThreshold is the burn-rate multiple that raises the alert
	// (default 10: the error budget is being consumed 10x too fast).
	BurnThreshold float64
	// MinSamples gates alerting until the fast window holds enough data
	// (default 20).
	MinSamples int64
}

// withDefaults fills zero fields.
func (s SLO) withDefaults() SLO {
	if s.FastWindow <= 0 {
		s.FastWindow = DefaultFastWindow
	}
	if s.SlowWindow <= 0 {
		s.SlowWindow = DefaultSlowWindow
	}
	if s.BurnThreshold <= 0 {
		s.BurnThreshold = DefaultBurnThreshold
	}
	if s.MinSamples <= 0 {
		s.MinSamples = DefaultMinSamples
	}
	return s
}

// sloSlot is one time slot of good/total conformance counts.
type sloSlot struct {
	epoch atomic.Int64
	good  atomic.Int64
	total atomic.Int64
}

// sloWindow is a rotating ring of conformance counts, sliced into both the
// fast and the slow window at evaluation time. Slot width is a sixth of the
// fast window so the fast burn rate tracks load shifts promptly.
type sloWindow struct {
	width time.Duration
	slots []sloSlot
}

func newSLOWindow(fast, slow time.Duration) *sloWindow {
	width := fast / 6
	if width <= 0 {
		width = 10 * time.Second
	}
	n := int(slow/width) + 1
	if n < 8 {
		n = 8
	}
	return &sloWindow{width: width, slots: make([]sloSlot, n)}
}

// observe counts one sample at engine time now.
func (w *sloWindow) observe(now time.Time, good bool) {
	q := now.UnixNano() / int64(w.width)
	slot := &w.slots[int(q%int64(len(w.slots)))]
	for {
		cur := slot.epoch.Load()
		if cur == q {
			break
		}
		if cur > q {
			return // late sample for a slot already recycled
		}
		if slot.epoch.CompareAndSwap(cur, q) {
			slot.good.Store(0)
			slot.total.Store(0)
			break
		}
	}
	if good {
		slot.good.Add(1)
	}
	slot.total.Add(1)
}

// counts sums good/total over (now-window, now].
func (w *sloWindow) counts(now time.Time, window time.Duration) (good, total int64) {
	qnow := now.UnixNano() / int64(w.width)
	k := int64(window / w.width)
	if k < 1 {
		k = 1
	}
	for i := range w.slots {
		slot := &w.slots[i]
		e := slot.epoch.Load()
		if e > qnow || e <= qnow-k {
			continue
		}
		good += slot.good.Load()
		total += slot.total.Load()
	}
	return good, total
}

// reset clears every slot.
func (w *sloWindow) reset() {
	for i := range w.slots {
		w.slots[i].epoch.Store(0)
		w.slots[i].good.Store(0)
		w.slots[i].total.Store(0)
	}
}

// sloTracker is the live state of one SLO: its conformance window ring and
// the alert state machine.
type sloTracker struct {
	spec SLO
	win  *sloWindow

	firing   atomic.Bool
	raisedAt atomic.Int64 // unix nanos of the last raise, 0 when clear
	alerts   atomic.Int64 // total raises
	lastEval atomic.Int64 // engine time of the last evaluation (throttle)
}

func newSLOTracker(spec SLO) *sloTracker {
	spec = spec.withDefaults()
	return &sloTracker{spec: spec, win: newSLOWindow(spec.FastWindow, spec.SlowWindow)}
}

// burn converts a good/total count into a burn-rate multiple: the observed
// bad fraction over the error budget. Zero totals burn nothing.
func (t *sloTracker) burn(good, total int64) float64 {
	if total == 0 {
		return 0
	}
	budget := 1 - t.spec.Target
	if budget <= 0 {
		budget = 1e-9
	}
	bad := float64(total-good) / float64(total)
	return bad / budget
}

// observe counts one sink latency and, when due, evaluates the alert.
// onRaise runs (outside any lock) when the alert transitions to firing.
func (t *sloTracker) observe(now time.Time, latency time.Duration, log *slog.Logger, onRaise func(*sloTracker)) {
	good := latency <= t.spec.Threshold
	t.win.observe(now, good)
	if good && !t.firing.Load() {
		return // only bad samples (or a firing alert) pay for evaluation
	}
	t.maybeEvaluate(now, log, onRaise)
}

// maybeEvaluate runs the burn-rate state machine at most once per
// evalInterval of engine time.
func (t *sloTracker) maybeEvaluate(now time.Time, log *slog.Logger, onRaise func(*sloTracker)) {
	ns := now.UnixNano()
	last := t.lastEval.Load()
	if ns-last < int64(evalInterval) && last != 0 {
		return
	}
	if !t.lastEval.CompareAndSwap(last, ns) {
		return // another goroutine is evaluating
	}
	t.evaluate(now, log, onRaise)
}

// evaluate applies the multi-window burn-rate rule and flips the alert
// state machine, logging raise/clear transitions.
func (t *sloTracker) evaluate(now time.Time, log *slog.Logger, onRaise func(*sloTracker)) {
	fastGood, fastTotal := t.win.counts(now, t.spec.FastWindow)
	slowGood, slowTotal := t.win.counts(now, t.spec.SlowWindow)
	fastBurn := t.burn(fastGood, fastTotal)
	slowBurn := t.burn(slowGood, slowTotal)

	if t.firing.Load() {
		// Hysteresis: clear only once the fast window burns below half the
		// raise threshold, so a rate oscillating at the threshold does not
		// flap the alert.
		if fastBurn < t.spec.BurnThreshold/2 {
			t.firing.Store(false)
			t.raisedAt.Store(0)
			if log != nil {
				log.Info("slo alert cleared",
					"slo", t.spec.Name, "sink", t.spec.Sink,
					"fast_burn", fastBurn, "slow_burn", slowBurn,
					"engine_time", now)
			}
		}
		return
	}
	if fastTotal == 0 {
		// Nothing to judge (a scrape of an idle window): hand the throttle
		// slot back, or the first bad sample of the next evalInterval would
		// go unevaluated.
		t.lastEval.CompareAndSwap(ns(now), 0)
		return
	}
	if fastTotal < t.spec.MinSamples {
		return
	}
	if fastBurn >= t.spec.BurnThreshold && slowBurn >= t.spec.BurnThreshold {
		t.firing.Store(true)
		t.raisedAt.Store(ns(now))
		t.alerts.Add(1)
		if log != nil {
			log.Warn("slo alert raised",
				"slo", t.spec.Name, "sink", t.spec.Sink,
				"target", t.spec.Target,
				"threshold", t.spec.Threshold,
				"fast_burn", fastBurn, "slow_burn", slowBurn,
				"fast_total", fastTotal,
				"engine_time", now)
		}
		if onRaise != nil {
			onRaise(t)
		}
	}
}

// reset clears the window and the alert state (between virtual-time runs).
func (t *sloTracker) reset() {
	t.win.reset()
	t.firing.Store(false)
	t.raisedAt.Store(0)
	t.lastEval.Store(0)
}

func ns(t time.Time) int64 { return t.UnixNano() }
