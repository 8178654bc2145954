package clock

import (
	"testing"
	"time"
)

func TestVirtualStartsAtEpoch(t *testing.T) {
	v := NewVirtual()
	if got := v.Now(); !got.Equal(time.Unix(0, 0).UTC()) {
		t.Errorf("Now() = %v, want epoch", got)
	}
	if got := v.Elapsed(); got != 0 {
		t.Errorf("Elapsed() = %v, want 0", got)
	}
}

func TestVirtualAdvance(t *testing.T) {
	v := NewVirtual()
	v.Advance(3 * time.Second)
	v.Advance(500 * time.Millisecond)
	if got := v.Elapsed(); got != 3500*time.Millisecond {
		t.Errorf("Elapsed() = %v, want 3.5s", got)
	}
	v.Advance(-time.Hour) // must be ignored
	if got := v.Elapsed(); got != 3500*time.Millisecond {
		t.Errorf("Elapsed() after negative Advance = %v, want 3.5s", got)
	}
}

func TestVirtualAdvanceTo(t *testing.T) {
	v := NewVirtual()
	target := time.Unix(100, 0).UTC()
	v.AdvanceTo(target)
	if !v.Now().Equal(target) {
		t.Errorf("Now() = %v, want %v", v.Now(), target)
	}
	v.AdvanceTo(time.Unix(50, 0).UTC()) // backwards: ignored
	if !v.Now().Equal(target) {
		t.Errorf("Now() moved backwards to %v", v.Now())
	}
}

func TestRealClock(t *testing.T) {
	r := NewReal()
	before := time.Now()
	now := r.Now()
	if now.Before(before) {
		t.Error("real clock went backwards")
	}
	r.Advance(time.Hour) // no-op
	if r.Now().Sub(now) > time.Minute {
		t.Error("Advance affected real clock")
	}
}
