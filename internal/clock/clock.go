// Package clock abstracts time for the workflow engine.
//
// The engine runs in two modes. In real mode every director reads the wall
// clock and actor costs are measured. In virtual mode — the substrate for
// reproducing the paper's 600-second Linear Road experiments — the
// Scheduled CWF director advances a Virtual clock by each actor firing's
// modelled cost, which makes the experiments deterministic and allows a
// 600-second run to execute in milliseconds.
//
// Window-formation timeouts ("window timeout events" in the paper) are not
// the clock's job: each input port's window operator keeps its own deadline
// heap, and the directors read it through Inbox.NextDeadline and compare it
// with Now, so timeout handling is identical in both modes.
package clock

import (
	"sync"
	"time"
)

// Clock is the engine's time source.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Advance moves a virtual clock forward by d. On a real clock it is a
	// no-op: real time advances on its own.
	Advance(d time.Duration)
}

// Virtual is a deterministic clock that only moves when told to. It starts
// at the Unix epoch, so experiment timestamps read as offsets from zero.
type Virtual struct {
	mu  sync.Mutex
	now time.Time
}

// NewVirtual returns a virtual clock positioned at the Unix epoch.
func NewVirtual() *Virtual {
	return &Virtual{now: time.Unix(0, 0).UTC()}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Advance implements Clock. Negative durations are ignored: virtual time
// never moves backwards.
func (v *Virtual) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	v.now = v.now.Add(d)
	v.mu.Unlock()
}

// AdvanceTo moves the clock to t if t is in the future.
func (v *Virtual) AdvanceTo(t time.Time) {
	v.mu.Lock()
	if t.After(v.now) {
		v.now = t
	}
	v.mu.Unlock()
}

// Elapsed returns the virtual time since the epoch start.
func (v *Virtual) Elapsed() time.Duration {
	return v.Now().Sub(time.Unix(0, 0).UTC())
}

// Real reads the wall clock.
type Real struct{}

// NewReal returns a wall-clock backed Clock.
func NewReal() *Real { return &Real{} }

// Now implements Clock.
func (*Real) Now() time.Time { return time.Now() }

// Advance implements Clock (no-op: real time advances on its own).
func (*Real) Advance(time.Duration) {}
