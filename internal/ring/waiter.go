package ring

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Spin/park thresholds (see DESIGN.md, "Zero-alloc hot path"). The spin
// phase reads the wake generation in a tight loop; the yield phase
// interleaves runtime.Gosched so a single-core box (GOMAXPROCS=1) always
// gives the producer a chance to run before the waiter parks.
const (
	spinIters  = 64
	yieldIters = 8
)

// Waiter is the spin-then-yield-then-park wait strategy paired with the
// rings. Producers call Wake after pushing; the consumer snapshots Gen
// before its final emptiness re-check and passes it to Wait.
//
// At high load the consumer almost never reaches Wait, and Wake costs one
// atomic add plus one atomic load (the waiters gate skips the condvar
// broadcast entirely), so the steady state pays no futex round-trip per
// wakeup. Only when the consumer actually runs dry does it fall back to the
// condvar park.
//
// Lost-wakeup freedom: park registers in waiters before re-checking the
// generation under the lock, while Wake bumps the generation before loading
// waiters. With sequentially consistent atomics, "parker misses the bump
// AND waker misses the registration" would order gen-check < gen-bump <
// waiters-load < waiters-register < gen-check — a cycle. At least one side
// always sees the other.
type Waiter struct {
	// gen counts wake events; it only ever increments.
	gen atomic.Uint64
	// waiters counts goroutines parked (or committing to park) on cond.
	waiters atomic.Int32

	mu   sync.Mutex
	cond *sync.Cond
	// timer nudges the condvar at deadline parks. One reusable timer serves
	// the single consumer that parks with a bound (receivers park one
	// goroutine; the parallel executor's workers always park unbounded).
	timer *time.Timer
}

// NewWaiter returns a ready-to-use Waiter.
func NewWaiter() *Waiter {
	w := &Waiter{}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// Gen returns the current wake generation. Snapshot it before the final
// emptiness check that justifies waiting.
func (w *Waiter) Gen() uint64 { return w.gen.Load() }

// Wake publishes that new work may exist and unparks any waiters. It is
// cheap enough to call once per push batch: when nobody is parked it is two
// uncontended atomic operations.
//
//confvet:hotpath
func (w *Waiter) Wake() {
	w.gen.Add(1)
	if w.waiters.Load() > 0 {
		w.mu.Lock()
		w.cond.Broadcast()
		w.mu.Unlock()
	}
}

// Wait blocks until the generation moves past seen: first a bounded spin on
// the generation counter, then a few scheduler yields, then a condvar park.
// bound > 0 limits the park (deadline waits); zero parks until the next
// Wake. Spurious returns are possible — callers re-check their own
// predicate and loop.
func (w *Waiter) Wait(seen uint64, bound time.Duration) {
	for i := 0; i < spinIters; i++ {
		if w.gen.Load() != seen {
			return
		}
	}
	for i := 0; i < yieldIters; i++ {
		runtime.Gosched()
		if w.gen.Load() != seen {
			return
		}
	}
	w.park(seen, bound)
}

// park is the slow path: register as a waiter, re-check the generation, and
// sleep on the condvar. Registration strictly precedes the re-check — see
// the type comment for why that order is load-bearing.
func (w *Waiter) park(seen uint64, bound time.Duration) {
	w.mu.Lock()
	w.waiters.Add(1)
	if w.gen.Load() != seen {
		w.waiters.Add(-1)
		w.mu.Unlock()
		return
	}
	timed := bound > 0
	if timed {
		if w.timer == nil {
			w.timer = time.AfterFunc(bound, w.nudge)
		} else {
			w.timer.Reset(bound)
		}
	}
	w.cond.Wait()
	w.waiters.Add(-1)
	w.mu.Unlock()
	if timed {
		w.timer.Stop()
	}
}

// nudge wakes parked goroutines without publishing a new generation: the
// deadline timer uses it so a timed park returns and lets the caller force
// its due window.
func (w *Waiter) nudge() {
	w.mu.Lock()
	w.cond.Broadcast()
	w.mu.Unlock()
}
