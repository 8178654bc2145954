package clock

import (
	"context"
	"time"
)

// minPark is the shortest wall-clock wait Park performs. It caps an idle
// engine's wake rate at 5 k/s, and it is the real-time source cadence the
// parallel director's coordinator tick already states (200 µs).
const minPark = 200 * time.Microsecond

// timerMin is the shortest wait Park leaves to the Go runtime's timer. The
// timer stretches a wait to the netpoller's next millisecond, which for a
// wait this long or longer is less than the wait itself, and it frees the
// thread meanwhile. A shorter wait blocks its thread in sleepShort. On a
// 2-vCPU guest, a 1 ms bridge poll in nanosleep(2) raised bridge_tcp's
// allocations per event ×1.40, so millisecond waits stay on the timer.
const timerMin = 500 * time.Microsecond

// maxParkSlice bounds one uninterruptible wait: Park re-checks its context
// at least this often.
const maxParkSlice = 10 * time.Millisecond

// Park blocks until wall time reaches until or ctx ends, whichever comes
// first. An until already in the past returns at once; one less than
// minPark away waits minPark. It waits in slices of at most maxParkSlice.
//
// Park is the engine's one idle wait. It exists because a short time.Sleep
// does not sleep short: when nothing else is runnable, the Go runtime parks
// its thread in the netpoller with a 1 ms granularity, so every
// sub-millisecond sleep rounds up to ~1 ms. On Linux a wait under timerMin
// is one nanosleep(2), whose overshoot is the kernel's timer slack (~50 µs).
func Park(ctx context.Context, until time.Time) {
	dt := time.Until(until)
	if dt <= 0 {
		return
	}
	if dt < minPark {
		until = until.Add(minPark - dt)
		dt = minPark
	}
	for ctx.Err() == nil {
		if d := min(dt, maxParkSlice); d >= timerMin {
			time.Sleep(d)
		} else {
			sleepShort(d)
		}
		if dt = time.Until(until); dt <= 0 {
			return
		}
	}
}
