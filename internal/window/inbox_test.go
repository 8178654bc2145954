package window

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/ring"
	"repro/internal/value"
)

// hookQueue is a bounded FIFO whose dry TryPop runs onDry once before
// reporting empty: it puts a producer's burst exactly between the
// consumer's failed ring pop and its look at the overflow flag, the
// interleaving a descheduled consumer hits by chance.
type hookQueue struct {
	buf   []*event.Event
	limit int
	onDry func()
}

func (q *hookQueue) TryPush(ev *event.Event) bool {
	if len(q.buf) == q.limit {
		return false
	}
	q.buf = append(q.buf, ev)
	return true
}

func (q *hookQueue) TryPop() (*event.Event, bool) {
	if len(q.buf) == 0 {
		if f := q.onDry; f != nil {
			q.onDry = nil
			f()
		}
		return nil, false
	}
	ev := q.buf[0]
	q.buf = q.buf[1:]
	return ev, true
}

func (q *hookQueue) Len() int { return len(q.buf) }
func (q *hookQueue) Cap() int { return q.limit }

// seqEvent encodes (producer, index) in one Int token.
func seqEvent(tk *event.Timekeeper, producer, i int) *event.Event {
	return tk.External(value.Int(int64(producer)<<32|int64(i)), ts(float64(i)))
}

func producerAndIndex(ev *event.Event) (int, int) {
	v := int64(ev.Token.(value.Int))
	return int(v >> 32), int(v & (1<<32 - 1))
}

// TestInboxRefilledRingPrecedesOverflow pins the ordering of Pop's two
// checks: when the producer refills the whole ring and overflows after the
// consumer found the ring dry, the ring events are older than the overflow
// and must be served first. Serving the overflow on the strength of the
// flag alone hands out event cap before events 0..cap-1.
func TestInboxRefilledRingPrecedesOverflow(t *testing.T) {
	const capacity = 8
	tk := event.NewTimekeeper()
	var in Inbox
	in.Init(Passthrough(), false, capacity)
	q := &hookQueue{limit: capacity}
	in.q = q
	q.onDry = func() {
		for i := 0; i <= capacity; i++ {
			in.Push(seqEvent(tk, 0, i))
		}
	}
	for want := 0; want <= capacity; want++ {
		ev, ok := in.Pop()
		if !ok {
			t.Fatalf("Pop %d: empty, want event %d", want, want)
		}
		if _, got := producerAndIndex(ev); got != want {
			t.Fatalf("Pop %d: got event %d (overflow served before the refilled ring)", want, got)
		}
	}
	if ev, ok := in.Pop(); ok {
		t.Fatalf("Pop after drain: got %v, want empty", ev.Token)
	}
	if in.HasRaw() || in.Depth() != 0 {
		t.Fatalf("after drain: HasRaw=%v Depth=%d, want idle", in.HasRaw(), in.Depth())
	}
}

// gateQueue wraps a real ring with two seams: hold runs inside the next
// TryPush, after its caller read the overflow flag and before the push
// itself, and onDry runs once after a dry TryPop, before it reports empty.
type gateQueue struct {
	ring.Queue[*event.Event]
	hold  atomic.Pointer[func()]
	onDry func()
}

func (q *gateQueue) TryPush(ev *event.Event) bool {
	if f := q.hold.Swap(nil); f != nil {
		(*f)()
	}
	return q.Queue.TryPush(ev)
}

func (q *gateQueue) TryPop() (*event.Event, bool) {
	ev, ok := q.Queue.TryPop()
	if f := q.onDry; !ok && f != nil {
		q.onDry = nil
		f()
	}
	return ev, ok
}

// TestInboxLatePusherPrecedesOverflow plays the multi-producer reorder the
// race detector's slowdown used to expose one run in five: producer R reads
// the overflow flag clear and stalls before its ring push; producer Q fills
// the ring and overflows; the consumer drains the ring and finds it dry;
// only then does R's push land, and R's next event, seeing Q's flag,
// overflows. R's ring event is the older of its two and must come first.
func TestInboxLatePusherPrecedesOverflow(t *testing.T) {
	const capacity = 4
	var in Inbox
	in.Init(Passthrough(), true, capacity)
	q := &gateQueue{Queue: in.q}
	in.q = q
	tkR, tkQ := event.NewTimekeeper(), event.NewTimekeeper()

	held, release, rDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	hold := func() {
		close(held)
		<-release
	}
	q.hold.Store(&hold)
	go func() {
		defer close(rDone)
		in.Push(seqEvent(tkR, 1, 0)) // held between its flag load and its push
		in.Push(seqEvent(tkR, 1, 1))
	}()
	<-held
	for i := 0; i <= capacity; i++ { // Q: a full ring, then one overflow
		in.Push(seqEvent(tkQ, 0, i))
	}
	q.onDry = func() {
		close(release)
		<-rDone
	}
	next := []int{0, 0}
	for n := 0; n < capacity+3; n++ {
		ev, ok := in.Pop()
		if !ok {
			t.Fatalf("Pop %d: empty, want an event", n)
		}
		p, i := producerAndIndex(ev)
		if i != next[p] {
			t.Fatalf("producer %d: got event %d, want %d (overflow served before a late ring push)", p, i, next[p])
		}
		next[p]++
	}
	if ev, ok := in.Pop(); ok {
		t.Fatalf("Pop after drain: got %v, want empty", ev.Token)
	}
}

// TestInboxConcurrentProducers drives the core alone — no receiver on top —
// with 1, 2 and 8 producers against a capacity-8 ring, so nearly every
// event crosses the overflow protocol. Per-producer FIFO, no loss, no
// duplication, and the two counters agree at quiescence.
func TestInboxConcurrentProducers(t *testing.T) {
	const perProducer = 4000
	for _, producers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("producers=%d", producers), func(t *testing.T) {
			var in Inbox
			in.Init(Passthrough(), producers > 1, 8)
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					tk := event.NewTimekeeper()
					var batch []*event.Event
					for i := 0; i < perProducer; i++ {
						ev := seqEvent(tk, p, i)
						if i%5 == 0 { // mix both entry points
							in.PushBatch(batch)
							batch = batch[:0]
							in.Push(ev)
						} else if batch = append(batch, ev); len(batch) == 3 {
							in.PushBatch(batch)
							batch = batch[:0]
						}
					}
					in.PushBatch(batch)
				}(p)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()

			next := make([]int, producers)
			total, producing := 0, true
			deadline := time.Now().Add(30 * time.Second)
			for total < producers*perProducer {
				ev, ok := in.Pop()
				if !ok {
					if !producing {
						t.Fatalf("lost events: popped %d of %d with every producer done", total, producers*perProducer)
					}
					select {
					case <-done:
						producing = false // one more pass sees everything pushed
					default:
						if time.Now().After(deadline) {
							t.Fatalf("timed out after %d of %d events", total, producers*perProducer)
						}
						runtime.Gosched()
					}
					continue
				}
				p, i := producerAndIndex(ev)
				if i != next[p] {
					t.Fatalf("producer %d: got event %d, want %d (reordered, lost or duplicated)", p, i, next[p])
				}
				next[p]++
				total++
			}
			<-done
			if ev, ok := in.Pop(); ok {
				t.Fatalf("extra event after the last one: %v", ev.Token)
			}
			if a, k := in.arrivals.Load(), in.taken.Load(); a != k || a != int64(total) {
				t.Fatalf("at quiescence arrivals=%d taken=%d, want both %d", a, k, total)
			}
			if in.HasRaw() || in.Depth() != 0 {
				t.Fatalf("at quiescence HasRaw=%v Depth=%d, want idle", in.HasRaw(), in.Depth())
			}
		})
	}
}

// TestInboxIngestAndForce checks the windowed half: Ingest feeds the
// operator and publishes its state, Force releases a timed-out window, and
// expired events come back to the caller.
func TestInboxIngestAndForce(t *testing.T) {
	tk := event.NewTimekeeper()
	var in Inbox
	in.Init(Spec{Unit: Tuples, Size: 2, Step: 2, Timeout: time.Second}, false, 0)
	for i := 0; i < 3; i++ {
		in.Push(tk.External(value.Int(int64(i)), ts(float64(i))))
	}
	if got := in.Depth(); got != 3 {
		t.Fatalf("Depth before ingest = %d, want 3 raw", got)
	}
	ws, _ := in.Ingest(ts(10), 64, nil)
	if len(ws) != 1 || !eqInts(ints(ws[0]), []int64{0, 1}) {
		t.Fatalf("Ingest produced %d windows, want one holding [0 1]", len(ws))
	}
	if in.HasRaw() || in.Depth() != 1 {
		t.Fatalf("after ingest HasRaw=%v Depth=%d, want 1 buffered in the open window", in.HasRaw(), in.Depth())
	}
	dl, ok := in.NextDeadline()
	if !ok || !dl.Equal(ts(11)) {
		t.Fatalf("NextDeadline = %v,%v, want %v", dl, ok, ts(11))
	}
	ws, _ = in.Force(ts(11), ws[:0])
	if len(ws) != 1 || !ws[0].Partial || !eqInts(ints(ws[0]), []int64{2}) {
		t.Fatalf("Force produced %v, want one partial window holding [2]", ws)
	}
	if _, ok := in.NextDeadline(); ok || in.Depth() != 0 {
		t.Fatalf("after force: deadline pending=%v Depth=%d, want none", ok, in.Depth())
	}
}

// TestInboxRecycledShellIsReused fires a window, recycles it, and checks
// that the next window the operator builds is the same shell holding only
// its own members, and that a shell waiting on the free list holds no event
// pointers.
func TestInboxRecycledShellIsReused(t *testing.T) {
	var in Inbox
	in.Init(Continuous(3), false, 0)
	tk := event.NewTimekeeper()
	push := func(from, to int) {
		for i := from; i < to; i++ {
			in.Push(tk.External(value.Int(int64(i)), ts(float64(i))))
		}
	}
	push(0, 3)
	ws, _ := in.Ingest(ts(3), 100, nil)
	if len(ws) != 1 || !eqInts(ints(ws[0]), []int64{0, 1, 2}) {
		t.Fatalf("first windows = %v", ws)
	}
	first := ws[0]
	in.Recycle(first)
	if first.Len() != 0 {
		t.Fatalf("recycled shell keeps %d members", first.Len())
	}
	for i, ev := range first.Events[:cap(first.Events)] {
		if ev != nil {
			t.Fatalf("recycled shell keeps a stale event pointer in slot %d", i)
		}
	}

	push(3, 5)
	ws, _ = in.Ingest(ts(5), 100, ws[:0])
	if len(ws) != 0 {
		t.Fatalf("two events formed windows %v", ws)
	}
	push(5, 6)
	ws, _ = in.Ingest(ts(6), 100, ws[:0])
	if len(ws) != 1 || ws[0] != first {
		t.Fatalf("second window is not the recycled shell: %v", ws)
	}
	if w := ws[0]; !eqInts(ints(w), []int64{3, 4, 5}) || w.Partial || !w.Time.Equal(ts(5)) {
		t.Errorf("reused shell = %v (partial %v, time %v), want members [3 4 5] at t=5", ints(w), w.Partial, w.Time)
	}
}
