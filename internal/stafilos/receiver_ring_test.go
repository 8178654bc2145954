package stafilos_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/model"
	"repro/internal/stafilos"
	"repro/internal/value"
	"repro/internal/window"
)

// nopFire is a do-nothing actor body; these tests drive the receiver
// directly and never fire the owning actor.
func nopFire(_ *model.FireContext, _ *window.Window, _ func(value.Value)) error { return nil }

// windowedPort builds a fresh windowed input port to hang a receiver on.
func windowedPort(t *testing.T, name string, spec window.Spec) *model.Port {
	t.Helper()
	return actors.NewFunc(name, spec, nopFire).In()
}

// windowSig fingerprints a produced window: formation metadata plus the
// full token sequence, so two deliveries compare exactly.
func windowSig(w *window.Window) string {
	return fmt.Sprintf("%d|%v|%v|%v", w.Time.UnixNano(), w.Wave, len(w.Events), w.Tokens())
}

// TestTMReceiverMatchesMutexReference drives the ring-backed receiver and a
// plain mutex-guarded window operator (the pre-ring delivery design) with
// the same randomized event stream — random batch sizes, random Put vs
// PutBatch — and asserts they produce the identical window sequence. Specs
// without formation timeouts keep the comparison exact: window content is
// then a pure function of the event sequence, independent of wall time.
func TestTMReceiverMatchesMutexReference(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("seed %d", seed)

	specs := []struct {
		name string
		spec window.Spec
	}{
		{"continuous3", window.Continuous(3)},
		{"unrestricted4", window.Unrestricted(4)},
		{"size5step2", window.Spec{Unit: window.Tuples, Size: 5, Step: 2, DeleteUsed: true}},
		{"grouped", window.Spec{Unit: window.Tuples, Size: 2, Step: 2, DeleteUsed: true, GroupBy: []string{"g"}}},
	}
	for si, tc := range specs {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			r := stafilos.NewTMReceiver(windowedPort(t, fmt.Sprintf("ring%d", si), tc.spec),
				clock.NewReal(), nil,
				func(it stafilos.ReadyItem) { got = append(got, windowSig(it.Win)) })
			if rng.Intn(2) == 0 {
				// The sequential-caller case may legally run on the SPSC ring.
				r.MarkSingleWriter()
			}

			var mu sync.Mutex // the reference: operator behind a plain mutex
			ref := window.New(tc.spec)
			var want []string
			refPut := func(ev *event.Event, now time.Time) {
				mu.Lock()
				for _, w := range ref.Put(ev, now) {
					want = append(want, windowSig(w))
				}
				mu.Unlock()
			}

			base := time.Now().Add(-time.Hour)
			n := 200 + rng.Intn(300)
			for i := 0; i < n; {
				k := 1 + rng.Intn(5)
				if i+k > n {
					k = n - i
				}
				now := base.Add(time.Duration(i) * time.Millisecond)
				batch := make([]*event.Event, k)
				for j := range batch {
					seqn := i + j
					batch[j] = &event.Event{
						Token: value.NewRecord("i", value.Int(int64(seqn)),
							"g", value.Int(int64(seqn%3))),
						Time: base.Add(time.Duration(seqn) * time.Millisecond),
						Wave: event.WaveTag{Root: int64(seqn)},
					}
				}
				if rng.Intn(2) == 0 {
					r.PutBatch(batch)
				} else {
					for _, ev := range batch {
						r.Put(ev)
					}
				}
				for _, ev := range batch {
					refPut(ev, now)
				}
				i += k
			}

			if len(got) != len(want) {
				t.Fatalf("ring receiver produced %d windows, mutex reference %d (seed %d)",
					len(got), len(want), seed)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("window %d diverged (seed %d):\n ring: %s\n ref:  %s",
						i, seed, got[i], want[i])
				}
			}
		})
	}
}

// TestTMReceiverConcurrentProducers hammers one windowed port from 1, 2 and
// 8 producers at once — the MPMC ring plus consumer-election path. Under
// -race this is the data-race probe for the lock-free ingestion; in any
// mode it checks that no event is lost or duplicated and that the operator
// still forms exact windows.
func TestTMReceiverConcurrentProducers(t *testing.T) {
	for _, producers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("producers=%d", producers), func(t *testing.T) {
			const perProducer = 500 // producers*perProducer is divisible by the window size
			const winSize = 4
			total := producers * perProducer

			var mu sync.Mutex
			seen := make(map[int64]int, total)
			windows := 0
			r := stafilos.NewTMReceiver(
				windowedPort(t, "mp", window.Continuous(winSize)),
				clock.NewReal(), nil,
				func(it stafilos.ReadyItem) {
					mu.Lock()
					windows++
					if it.Win.Len() != winSize {
						t.Errorf("window of %d events, want %d", it.Win.Len(), winSize)
					}
					for _, tok := range it.Win.Tokens() {
						seen[int64(tok.(value.Int))]++
					}
					mu.Unlock()
				})

			start := time.Now().Add(-time.Minute)
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < perProducer; i++ {
						id := int64(p*perProducer + i)
						r.Put(&event.Event{
							Token: value.Int(id),
							Time:  start.Add(time.Duration(id) * time.Microsecond),
							Wave:  event.WaveTag{Root: id},
						})
					}
				}(p)
			}
			wg.Wait()

			// Put's drain protocol guarantees that once every producer has
			// returned, nothing is left undrained (the last flag holder
			// re-checks the backlog after clearing).
			if r.Pending() {
				t.Fatal("receiver still pending after all producers returned")
			}
			if windows != total/winSize {
				t.Fatalf("produced %d windows, want %d", windows, total/winSize)
			}
			if len(seen) != total {
				t.Fatalf("distinct tokens delivered %d, want %d", len(seen), total)
			}
			for id, n := range seen {
				if n != 1 {
					t.Fatalf("token %d delivered %d times", id, n)
				}
			}
		})
	}
}

// TestSCWFPassthroughDeliveryZeroAlloc pins the tentpole's zero-alloc
// claim at the API boundary: steady-state passthrough delivery — Put wraps
// the event in a pooled shell, hands it to the scheduler, the consumer
// recycles — touches the allocator zero times in 2000 events, counted
// exactly over the whole run rather than averaged (and truncated) per event.
func TestSCWFPassthroughDeliveryZeroAlloc(t *testing.T) {
	var item stafilos.ReadyItem
	r := stafilos.NewTMReceiver(windowedPort(t, "za", window.Passthrough()),
		clock.NewReal(), nil,
		func(it stafilos.ReadyItem) { item = it })
	pool := event.NewPool(64)
	r.SetPool(pool)

	now := time.Now()
	const events = 2000
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < events; i++ {
			ev := pool.Get()
			ev.Token = value.Int(7)
			ev.Time = now
			r.Put(ev)
			r.Recycle(item.Win)
		}
	})
	if allocs != 0 {
		t.Errorf("passthrough delivery of %d events allocated %.0f objects, want 0", events, allocs)
	}
}

// BenchmarkSCWFPassthroughDelivery measures the full ingestion round trip
// the parallel executor pays per passthrough event: pool get, Put (wrap +
// enqueue), consumer-side Recycle. Run with -benchmem: the allocs/op
// column must read 0.
func BenchmarkSCWFPassthroughDelivery(b *testing.B) {
	a := actors.NewFunc("bench", window.Passthrough(), nopFire)
	var item stafilos.ReadyItem
	r := stafilos.NewTMReceiver(a.In(), clock.NewReal(), nil,
		func(it stafilos.ReadyItem) { item = it })
	pool := event.NewPool(64)
	r.SetPool(pool)
	now := time.Now()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := pool.Get()
		ev.Token = value.Int(1)
		ev.Time = now
		r.Put(ev)
		r.Recycle(item.Win)
	}
}
