package qos

import (
	"io"
	"log/slog"
	"testing"
	"time"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// testSLO is a 90%-under-10ms objective with a 1m/10m window pair and a
// MinSamples gate of 10; all-bad traffic burns at exactly 10x budget, right
// at the default raise threshold.
func testSLO() SLO {
	return SLO{
		Name: "test", Sink: "sink", Target: 0.9, Threshold: 10 * time.Millisecond,
		FastWindow: time.Minute, SlowWindow: 10 * time.Minute,
		BurnThreshold: 10, MinSamples: 10,
	}
}

// TestBurnRateRaiseAndClearHysteresis walks the alert state machine on a
// synthetic engine clock: no raise below MinSamples, raise once both windows
// burn at threshold, hold while the fast burn sits between threshold/2 and
// threshold, clear only below threshold/2.
func TestBurnRateRaiseAndClearHysteresis(t *testing.T) {
	tr := newSLOTracker(testSLO())
	log := discardLogger()
	raises := 0
	onRaise := func(*sloTracker) { raises++ }
	now := time.Unix(1000, 0)
	// Each sample is a fresh evaluation opportunity: the step exceeds
	// evalInterval.
	step := 300 * time.Millisecond

	bad, good := 50*time.Millisecond, time.Millisecond
	for i := 0; i < 9; i++ {
		tr.observe(now, bad, log, onRaise)
		now = now.Add(step)
	}
	if tr.firing.Load() || raises != 0 {
		t.Fatalf("alert fired at %d samples, below MinSamples=10", 9)
	}
	tr.observe(now, bad, log, onRaise)
	now = now.Add(step)
	if !tr.firing.Load() || raises != 1 || tr.alerts.Load() != 1 {
		t.Fatalf("after 10 all-bad samples: firing=%v raises=%d alerts=%d, want true/1/1",
			tr.firing.Load(), raises, tr.alerts.Load())
	}
	if tr.raisedAt.Load() == 0 {
		t.Error("raisedAt not stamped on raise")
	}

	// Nine good samples: 10 bad of 19 burns ~5.3x, above half the threshold,
	// so hysteresis holds the alert.
	for i := 0; i < 9; i++ {
		tr.observe(now, good, log, onRaise)
		now = now.Add(step)
	}
	if !tr.firing.Load() {
		t.Fatal("alert cleared at burn ~5.3, inside the hysteresis band [thr/2, thr)")
	}

	// Eleven more goods: 10 bad of 30 burns ~3.3x < threshold/2 — clears.
	for i := 0; i < 11; i++ {
		tr.observe(now, good, log, onRaise)
		now = now.Add(step)
	}
	if tr.firing.Load() {
		t.Fatal("alert still firing at burn ~3.3, below threshold/2")
	}
	if tr.raisedAt.Load() != 0 {
		t.Error("raisedAt not zeroed on clear")
	}
	if raises != 1 || tr.alerts.Load() != 1 {
		t.Errorf("clear changed the raise counts: raises=%d alerts=%d", raises, tr.alerts.Load())
	}
}

// TestEvaluateThrottled checks the burn-rate state machine runs at most once
// per evalInterval of engine time, however fast bad samples arrive.
func TestEvaluateThrottled(t *testing.T) {
	tr := newSLOTracker(testSLO())
	now := time.Unix(1000, 0)
	// 30 bad samples inside one evalInterval: the first evaluation (still
	// below MinSamples) consumes the throttle slot, so no raise yet despite
	// the window burning at threshold.
	for i := 0; i < 30; i++ {
		tr.observe(now.Add(time.Duration(i)*time.Millisecond), 50*time.Millisecond, nil, nil)
	}
	if tr.firing.Load() {
		t.Fatal("raise inside the evaluation throttle window")
	}
	// Once the interval has passed, the next bad sample re-evaluates.
	tr.observe(now.Add(evalInterval+time.Millisecond), 50*time.Millisecond, nil, nil)
	if !tr.firing.Load() {
		t.Fatal("no raise after the throttle interval expired")
	}
}

// TestEmptyEvaluationKeepsThrottleSlot pins the scrape-suppresses-alert bug:
// an evaluation of an empty window (Monitor.Snapshot runs one per scrape)
// judges nothing, so it must not spend the evalInterval slot the first bad
// sample needs.
func TestEmptyEvaluationKeepsThrottleSlot(t *testing.T) {
	spec := testSLO()
	spec.MinSamples = 1
	tr := newSLOTracker(spec)
	t0 := time.Unix(1000, 0)
	tr.maybeEvaluate(t0, nil, nil)
	tr.observe(t0.Add(time.Millisecond), 50*time.Millisecond, nil, nil)
	if !tr.firing.Load() {
		t.Fatal("bad sample 1ms after an empty evaluation was throttled")
	}
}

// TestSlowWindowVetoesTransientSpike checks the multi-window rule: a burst
// that saturates the fast window does not raise while the slow window still
// remembers a long healthy run.
func TestSlowWindowVetoesTransientSpike(t *testing.T) {
	tr := newSLOTracker(testSLO())
	log := discardLogger()
	now := time.Unix(1000, 0)
	for i := 0; i < 400; i++ {
		tr.observe(now, time.Millisecond, log, nil)
		now = now.Add(500 * time.Millisecond)
	}
	// The burst starts more than a fast window after the healthy run, so the
	// fast window is all-bad (burn 10) but the slow window burns ~0.5.
	now = now.Add(2 * time.Minute)
	for i := 0; i < 20; i++ {
		tr.observe(now, 50*time.Millisecond, log, nil)
		now = now.Add(300 * time.Millisecond)
	}
	if tr.firing.Load() {
		t.Fatal("fast-window spike raised despite a healthy slow window")
	}
	fastGood, fastTotal := tr.win.counts(now, tr.spec.FastWindow)
	if fastGood != 0 || fastTotal != 20 {
		t.Fatalf("fast window = %d/%d, want 0 good of 20", fastGood, fastTotal)
	}
	if burn := tr.burn(tr.win.counts(now, tr.spec.SlowWindow)); burn >= tr.spec.BurnThreshold {
		t.Fatalf("slow burn = %.2f, want below threshold %v", burn, tr.spec.BurnThreshold)
	}
}

func TestSLOWithDefaults(t *testing.T) {
	s := SLO{Name: "d", Sink: "s", Target: 0.99, Threshold: 5 * time.Second}.withDefaults()
	if s.FastWindow != DefaultFastWindow || s.SlowWindow != DefaultSlowWindow {
		t.Errorf("windows = %v/%v, want defaults", s.FastWindow, s.SlowWindow)
	}
	if s.BurnThreshold != DefaultBurnThreshold || s.MinSamples != DefaultMinSamples {
		t.Errorf("burn=%v min=%d, want defaults", s.BurnThreshold, s.MinSamples)
	}
}
