// The mutex+condvar Windowed Receiver the thread-based engine started on.
// RingReceiver replaced it on every edge; it stays here as the reference
// oracle the equivalence tests and the lock-vs-ring benchmarks compare
// against (external test files reach it as director.NewBlockingReceiver).

package director

import (
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/window"
)

// BlockingReceiver is the Windowed Receiver of the thread-based engine:
// put() inserts the event into the appropriate group-by queue and evaluates
// the window semantics; get() blocks the calling actor thread until a
// window is available. The timeout of timed windows is handled by the
// waiting thread itself — it waits only until the window-formation deadline
// and then forces the receiver to produce the window.
type BlockingReceiver struct {
	mu   sync.Mutex
	cond *sync.Cond
	op   *window.Operator
	// ready holds the produced-but-unconsumed windows.
	ready  readyQueue
	closed bool
	clk    clock.Clock
	// timer is the reusable deadline timer that nudges cond at
	// window-formation deadlines; allocated on first use.
	timer *time.Timer
	// arrivals counts delivered events for quiescence detection.
	arrivals int64
}

// NewBlockingReceiver builds a receiver for the given window spec.
func NewBlockingReceiver(spec window.Spec, clk clock.Clock) *BlockingReceiver {
	r := &BlockingReceiver{op: window.New(spec), clk: clk}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Put implements model.Receiver.
//
//confvet:hotpath
func (r *BlockingReceiver) Put(ev *event.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.arrivals++
	oldDL, hadDL := r.op.NextDeadline()
	ws := r.op.Put(ev, r.clk.Now())
	r.op.DrainExpired()
	if len(ws) > 0 {
		r.ready.push(ws...)
		r.cond.Broadcast()
	} else if r.deadlineChangedLocked(oldDL, hadDL) {
		r.cond.Broadcast()
	}
}

// PutBatch implements model.BatchReceiver: a whole emission set is taken
// under one lock acquisition, swept through the window operator once, and
// waiting actor threads are woken with a single broadcast.
//
//confvet:hotpath
func (r *BlockingReceiver) PutBatch(evs []*event.Event) {
	if len(evs) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.arrivals += int64(len(evs))
	oldDL, hadDL := r.op.NextDeadline()
	now := r.clk.Now()
	produced := false
	for _, ev := range evs {
		if ws := r.op.Put(ev, now); len(ws) > 0 {
			r.ready.push(ws...)
			produced = true
		}
	}
	r.op.DrainExpired()
	if produced || r.deadlineChangedLocked(oldDL, hadDL) {
		r.cond.Broadcast()
	}
}

// deadlineChangedLocked reports whether the operator's earliest
// window-formation deadline appeared or moved. A put that creates or
// advances a deadline without completing a window must still wake parked
// readers: a reader that went to sleep when no deadline existed holds no
// wake-up timer, so without this signal a timed window with no successor
// event would never be forced out.
func (r *BlockingReceiver) deadlineChangedLocked(oldDL time.Time, hadDL bool) bool {
	newDL, hasDL := r.op.NextDeadline()
	return hasDL && (!hadDL || !newDL.Equal(oldDL))
}

// Close wakes all blocked readers permanently; Get returns false once the
// ready queue drains.
func (r *BlockingReceiver) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	r.cond.Broadcast()
}

// Pending reports whether a produced window awaits consumption.
func (r *BlockingReceiver) Pending() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ready.len() > 0
}

// Depth implements model.DepthReporter: produced-but-unconsumed windows
// plus events buffered in open windows.
func (r *BlockingReceiver) Depth() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ready.len() + r.op.Pending()
}

// HasDeadline reports whether a timed window could still be forced out.
func (r *BlockingReceiver) HasDeadline() bool {
	_, ok := r.NextDeadline()
	return ok
}

// NextDeadline reports the earliest pending window-formation deadline.
func (r *BlockingReceiver) NextDeadline() (time.Time, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.op.NextDeadline()
}

// Get blocks until a window is available (or the receiver closes). The
// blocked thread wakes at window-formation deadlines to force timed
// windows, exactly as the paper's PNCWF threads do.
//
//confvet:hotpath
func (r *BlockingReceiver) Get() (*window.Window, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.ready.len() > 0 {
			return r.ready.pop(), true
		}
		now := r.clk.Now()
		if dl, ok := r.op.NextDeadline(); ok && !dl.After(now) {
			if ws := r.op.OnTime(now); len(ws) > 0 {
				r.ready.push(ws...)
				r.op.DrainExpired()
				continue
			}
		}
		if r.closed {
			return nil, false
		}
		r.waitLocked()
	}
}

// GetBatch blocks like Get until at least one window is available, then
// pops up to max ready windows under the one lock acquisition, appending
// them to buf (pass a reused buffer sliced to length 0). It returns false
// when the receiver is closed and drained. Batching the pops lets an actor
// thread amortize the lock, the deadline bookkeeping and — through the
// batched broadcast — the downstream delivery over the whole run of
// windows that piled up while it was firing.
//
//confvet:hotpath
func (r *BlockingReceiver) GetBatch(buf []*window.Window, max int) ([]*window.Window, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.ready.len() > 0 {
			for len(buf) < max && r.ready.len() > 0 {
				buf = append(buf, r.ready.pop())
			}
			return buf, true
		}
		now := r.clk.Now()
		if dl, ok := r.op.NextDeadline(); ok && !dl.After(now) {
			if ws := r.op.OnTime(now); len(ws) > 0 {
				r.ready.push(ws...)
				r.op.DrainExpired()
				continue
			}
		}
		if r.closed {
			return buf, false
		}
		r.waitLocked()
	}
}

// waitLocked blocks until signalled or until the next window deadline.
func (r *BlockingReceiver) waitLocked() {
	if dl, ok := r.op.NextDeadline(); ok {
		// Wake ourselves at the deadline: the receiver's reusable timer
		// nudges the condition variable so the waiting thread can raise the
		// timeout.
		d := time.Until(dl)
		if d < 0 {
			d = 0
		}
		if r.timer == nil {
			r.timer = time.AfterFunc(d, func() {
				r.mu.Lock()
				r.cond.Broadcast()
				r.mu.Unlock()
			})
		} else {
			r.timer.Reset(d)
		}
		r.cond.Wait()
		r.timer.Stop()
		return
	}
	r.cond.Wait()
}
