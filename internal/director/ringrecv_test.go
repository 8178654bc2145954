package director

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/value"
	"repro/internal/window"
)

// ringEquivSpecs are the window kinds the lock-free receiver must treat
// identically to the blocking receiver, including the passthrough fast
// path that bypasses the operator entirely.
func ringEquivSpecs() map[string]window.Spec {
	specs := equivSpecs()
	specs["passthrough"] = window.Passthrough()
	return specs
}

// drainRing pops every buffered window after Close without blocking.
func drainRing(r *RingReceiver) []*window.Window {
	var out []*window.Window
	for {
		w, ok := r.Get()
		if w != nil {
			out = append(out, w)
			continue
		}
		if !ok {
			return out
		}
	}
}

// TestRingReceiverEquivalence asserts that a single producer feeding the
// RingReceiver yields the exact window sequence — same windows, same
// member events, same wave-tags — the BlockingReceiver produces for the
// same stream, for every window kind, in randomized put/putBatch chunks.
func TestRingReceiverEquivalence(t *testing.T) {
	for kind, spec := range ringEquivSpecs() {
		t.Run(kind, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for trial := 0; trial < 5; trial++ {
				evs := equivEvents(80)
				clk := clock.NewVirtual()
				clk.AdvanceTo(evs[len(evs)-1].Time)

				blocking := NewBlockingReceiver(spec, clk)
				ring := NewRingReceiver(spec, clk, nil, false, 0)

				for i := 0; i < len(evs); {
					n := 1 + rng.Intn(7)
					if i+n > len(evs) {
						n = len(evs) - i
					}
					if rng.Intn(2) == 0 {
						for _, ev := range evs[i : i+n] {
							blocking.Put(ev)
							ring.Put(ev)
						}
					} else {
						blocking.PutBatch(evs[i : i+n])
						ring.PutBatch(evs[i : i+n])
					}
					i += n
				}
				blocking.Close()
				ring.Close()
				compareSequences(t, kind,
					fingerprints(drain(blocking)), fingerprints(drainRing(ring)))
			}
		})
	}
}

// TestRingReceiverOverflowEquivalence forces the sticky-overflow path with
// a tiny ring capacity and asserts delivery stays identical to the
// blocking receiver: the overflow protocol must preserve order end to end.
func TestRingReceiverOverflowEquivalence(t *testing.T) {
	for kind, spec := range ringEquivSpecs() {
		t.Run(kind, func(t *testing.T) {
			evs := equivEvents(300)
			clk := clock.NewVirtual()
			clk.AdvanceTo(evs[len(evs)-1].Time)

			blocking := NewBlockingReceiver(spec, clk)
			ring := NewRingReceiver(spec, clk, nil, false, 8)
			blocking.PutBatch(evs)
			ring.PutBatch(evs) // 300 events into an 8-slot ring: 292 overflow
			blocking.Close()
			ring.Close()
			compareSequences(t, kind,
				fingerprints(drain(blocking)), fingerprints(drainRing(ring)))
		})
	}
}

// ringProducerEvents pre-builds per-producer streams whose tokens encode
// (producer, seq) so the consumer can verify per-producer FIFO, no loss
// and no duplication.
func ringProducerEvents(producers, perProducer int) [][]*event.Event {
	base := time.Unix(50, 0)
	out := make([][]*event.Event, producers)
	for p := range out {
		tk := event.NewTimekeeper()
		out[p] = make([]*event.Event, perProducer)
		for s := range out[p] {
			tok := value.NewRecord("p", value.Int(int64(p)), "s", value.Int(int64(s)))
			out[p][s] = tk.External(tok, base.Add(time.Duration(s)*time.Microsecond))
		}
	}
	return out
}

// batchGetter abstracts the two receivers' consuming side so the same
// concurrent harness verifies both.
type batchGetter interface {
	GetBatch(buf []*window.Window, max int) ([]*window.Window, bool)
}

// runConcurrentDelivery drives P producer goroutines through put and a
// consumer through GetBatch until everything is delivered, returning the
// consumed windows in consumption order.
func runConcurrentDelivery(t *testing.T, streams [][]*event.Event, put func(*event.Event), get batchGetter, closeRecv func()) []*window.Window {
	t.Helper()
	var wg sync.WaitGroup
	for p := range streams {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(71 + p)))
			for _, ev := range streams[p] {
				put(ev)
				if rng.Intn(64) == 0 {
					time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
				}
			}
		}(p)
	}
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	consumed := make(chan []*window.Window, 1)
	go func() {
		rng := rand.New(rand.NewSource(7))
		var out []*window.Window
		var buf []*window.Window
		for len(out) < total {
			ws, ok := get.GetBatch(buf[:0], 1+rng.Intn(fireBatchMax))
			out = append(out, ws...)
			buf = ws[:0]
			if !ok {
				break
			}
		}
		consumed <- out
	}()
	wg.Wait()
	var out []*window.Window
	select {
	case out = <-consumed:
	case <-time.After(30 * time.Second):
		t.Fatal("consumer did not drain all deliveries (lost wakeup or lost event)")
	}
	closeRecv()
	return out
}

// checkDelivery asserts the three transport invariants over the consumed
// windows: per-producer order, no loss, no duplication.
func checkDelivery(t *testing.T, streams [][]*event.Event, ws []*window.Window) {
	t.Helper()
	perProducer := len(streams[0])
	lastSeq := make([]int, len(streams))
	for p := range lastSeq {
		lastSeq[p] = -1
	}
	seen := make(map[int]bool, len(streams)*perProducer)
	for _, w := range ws {
		for _, ev := range w.Events {
			rec := ev.Token.(value.Record)
			p := int(rec.Int("p"))
			s := int(rec.Int("s"))
			key := p*perProducer + s
			if seen[key] {
				t.Fatalf("event (p=%d, s=%d) delivered twice", p, s)
			}
			seen[key] = true
			if s <= lastSeq[p] {
				t.Fatalf("producer %d order violated: seq %d after %d", p, s, lastSeq[p])
			}
			lastSeq[p] = s
		}
	}
	if got, want := len(seen), len(streams)*perProducer; got != want {
		t.Fatalf("delivered %d distinct events, want %d", got, want)
	}
}

// TestRingReceiverConcurrentDelivery verifies the transport invariants for
// 1, 2 and 8 producers over both ring flavors (the capacity squeeze forces
// the MPSC overflow protocol under contention), and that the blocking
// receiver upholds the same invariants — the concurrent equivalence.
func TestRingReceiverConcurrentDelivery(t *testing.T) {
	for _, producers := range []int{1, 2, 8} {
		for _, capacity := range []int{0, 16} {
			name := fmt.Sprintf("ring/p=%d/cap=%d", producers, capacity)
			t.Run(name, func(t *testing.T) {
				streams := ringProducerEvents(producers, 2000)
				clk := clock.NewReal()
				r := NewRingReceiver(window.Passthrough(), clk, nil, producers > 1, capacity)
				ws := runConcurrentDelivery(t, streams, r.Put, r, r.Close)
				checkDelivery(t, streams, ws)
				// busy stays latched until the consumer parks or observes
				// close; one post-close GetBatch stands in for the director's
				// final loop turn.
				if _, ok := r.GetBatch(nil, 1); ok {
					t.Error("GetBatch reported more work after full drain and close")
				}
				if r.Pending() {
					t.Error("receiver still pending after full drain")
				}
			})
		}
	}
	t.Run("blocking/p=8", func(t *testing.T) {
		streams := ringProducerEvents(8, 2000)
		r := NewBlockingReceiver(window.Passthrough(), clock.NewReal())
		ws := runConcurrentDelivery(t, streams, r.Put, r, r.Close)
		checkDelivery(t, streams, ws)
	})
}

// TestRingReceiverWakesParkedConsumer is the receiver-level park/unpark
// liveness check. Odd rounds push from the consumer's park seam, after its
// dry look and before its generation snapshot: the one interleaving in
// which a consumer that skipped its re-check would wait for a wake that
// already happened. Even rounds push from outside, some after the consumer
// has had time to park. Every round must deliver within 2 s.
func TestRingReceiverWakesParkedConsumer(t *testing.T) {
	const rounds = 200
	r := NewRingReceiver(window.Passthrough(), clock.NewReal(), nil, true, 0)
	tk := event.NewTimekeeper()
	evs := make([]*event.Event, rounds)
	for i := range evs {
		evs[i] = tk.External(value.Int(int64(i)), time.Unix(60, 0))
	}
	var late atomic.Int64 // the round the seam pushes next, -1 for none
	late.Store(-1)
	setParkHook(t, &testHookConsumerPark, func() {
		if i := late.Swap(-1); i >= 0 {
			r.Put(evs[i])
		}
	})
	got := make(chan *window.Window)
	go func() {
		for {
			w, ok := r.Get()
			if !ok {
				close(got)
				return
			}
			got <- w
		}
	}()
	for round := 0; round < rounds; round++ {
		if round%2 == 0 {
			if round%10 == 0 {
				time.Sleep(2 * time.Millisecond) // let the consumer park
			}
			r.Put(evs[round])
			// The next round is the seam's. Set before this round's window
			// is taken, so the consumer's next dry look finds it.
			late.Store(int64(round + 1))
		}
		select {
		case w := <-got:
			if w.Len() != 1 || w.Events[0] != evs[round] {
				t.Fatalf("round %d: got %d-event window %v, want event %d", round, w.Len(), w.Events, round)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("round %d: consumer never woke (lost wakeup); goroutines:\n%s", round, stacks())
		}
	}
	r.Close()
	if _, open := <-got; open {
		t.Fatal("consumer did not observe close")
	}
}

// fillEdge puts n events on r.
func fillEdge(r *RingReceiver, n int) {
	tk := event.NewTimekeeper()
	for i := 0; i < n; i++ {
		r.Put(tk.External(value.Int(int64(i)), time.Unix(60, 0)))
	}
}

// TestProducerWaitWokenByConsumerPop mirrors the consumer's check for
// back-pressure: the consumer takes a batch from the producer's park seam,
// after the producer found the backlog at backlogMark and before it
// registered. A producer that skipped its re-check would sleep until its
// stall timer; it must instead return without arming it.
func TestProducerWaitWokenByConsumerPop(t *testing.T) {
	r := NewRingReceiver(window.Passthrough(), clock.NewReal(), nil, false, 0)
	fillEdge(r, backlogMark)
	setParkHook(t, &testHookProducerPark, func() {
		ws, _ := r.GetBatch(nil, fireBatchMax)
		r.Recycle(ws)
	})
	e := &outEdge{r: r, est: backlogMark, stalledAt: -1}
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.wait()
	}()
	awaitDone(t, done, 2*time.Second, "producer wait")
	if e.timer != nil {
		t.Fatal("producer armed its stall timer after the consumer's pop (lost wakeup)")
	}
	if e.stalledAt != -1 || e.est != backlogMark-fireBatchMax {
		t.Fatalf("after wait: stalledAt=%d est=%d, want -1 and %d", e.stalledAt, e.est, backlogMark-fireBatchMax)
	}
}

// TestProducerWaitStallEscape: a consumer that takes nothing releases its
// producer after stallBound; the edge then admits without waiting until the
// consumer takes again, and the next wait after that waits again.
func TestProducerWaitStallEscape(t *testing.T) {
	r := NewRingReceiver(window.Passthrough(), clock.NewReal(), nil, false, 0)
	fillEdge(r, backlogMark)
	e := &outEdge{r: r, est: backlogMark, stalledAt: -1}
	for pass := 0; pass < 2; pass++ {
		start := time.Now()
		done := make(chan struct{})
		go func() {
			defer close(done)
			e.wait()
		}()
		awaitDone(t, done, 2*time.Second, "stalled producer wait")
		if el := time.Since(start); el < stallBound {
			t.Fatalf("pass %d: wait returned after %v with no consumer, want >= %v", pass, el, stallBound)
		}
		_, taken := r.in.Backlog()
		if e.stalledAt != taken {
			t.Fatalf("pass %d: stalledAt=%d, want the consumer's taken %d", pass, e.stalledAt, taken)
		}
		// Stalled: the next wait admits at once, without arming the timer.
		e.expired.Store(false)
		e.wait()
		if e.expired.Load() {
			t.Fatalf("pass %d: a stalled edge armed its timer again", pass)
		}
		// The consumer takes one event (and the producer refills it): the
		// stall is over, so the next pass waits out stallBound again.
		ws, _ := r.GetBatch(nil, 1)
		r.Recycle(ws)
		fillEdge(r, 1)
	}
}

// TestRingReceiverForcesTimedWindow verifies the consuming thread forces a
// window-formation timeout on its own while parked: a partial tuple window
// must surface without any further event or external nudge.
func TestRingReceiverForcesTimedWindow(t *testing.T) {
	clk := clock.NewReal()
	spec := window.Spec{Unit: window.Tuples, Size: 3, Step: 3, DeleteUsed: true, Timeout: 30 * time.Millisecond}
	r := NewRingReceiver(spec, clk, nil, false, 0)
	tk := event.NewTimekeeper()
	r.Put(tk.External(value.Int(1), clk.Now()))
	r.Put(tk.External(value.Int(2), clk.Now()))

	done := make(chan *window.Window, 1)
	go func() {
		w, _ := r.Get()
		done <- w
	}()
	select {
	case w := <-done:
		if w == nil || w.Len() != 2 || !w.Partial {
			t.Fatalf("got %+v, want partial 2-event window", w)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("formation timeout never forced the window out")
	}
	r.Close()
}
