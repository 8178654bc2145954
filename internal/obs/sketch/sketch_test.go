package sketch

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 0},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{5 * time.Microsecond, 3},
		{time.Millisecond, 10},
		{time.Second, 20},
		{4 * time.Second, 22}, // the last bucket /metrics renders finite
		{5 * time.Second, 23},
		{(1 << 27) * time.Microsecond, 27},
		{(1<<27 + 1) * time.Microsecond, Buckets},
		{10 * time.Minute, Buckets},
	}
	for _, tc := range cases {
		if got := BucketOf(tc.d); got != tc.want {
			t.Errorf("BucketOf(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

// TestQuantileWithinFactorTwoOfExact checks the sketch's advertised error
// bound against an exact sorted reference: with power-of-two buckets the
// estimate and the true order statistic land in the same bucket, so the
// ratio must stay within [1/2, 2] for any distribution.
func TestQuantileWithinFactorTwoOfExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dists := map[string]func() time.Duration{
		"uniform": func() time.Duration {
			return time.Duration(2+rng.Intn(1_000_000)) * time.Microsecond
		},
		"log-uniform": func() time.Duration {
			e := 1 + rng.Float64()*26 // spread mass across every bucket
			return time.Duration(math.Exp2(e)) * time.Microsecond
		},
		"bimodal": func() time.Duration {
			if rng.Intn(10) == 0 {
				return time.Duration(5_000_000+rng.Intn(5_000_000)) * time.Microsecond
			}
			return time.Duration(100+rng.Intn(900)) * time.Microsecond
		},
	}
	for name, gen := range dists {
		t.Run(name, func(t *testing.T) {
			var sk Sketch
			const n = 20_000
			exact := make([]time.Duration, n)
			for i := range exact {
				d := gen()
				exact[i] = d
				sk.Observe(d)
			}
			sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
			var snap Snapshot
			sk.Load(&snap)
			if snap.Total != n {
				t.Fatalf("snapshot total = %d, want %d", snap.Total, n)
			}
			for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1.0} {
				rank := int(math.Ceil(q * float64(n)))
				if rank < 1 {
					rank = 1
				}
				want := exact[rank-1]
				got := snap.Quantile(q)
				if got < want/2 || got > 2*want {
					t.Errorf("q%.2f = %v, exact %v: outside the 2x bound", q, got, want)
				}
			}
			if got := snap.Quantile(1.0); got != exact[n-1] {
				t.Errorf("q1.00 = %v, want the exact max %v", got, exact[n-1])
			}
		})
	}
}

func TestSnapshotMergeMatchesCombinedSketch(t *testing.T) {
	samples := []time.Duration{
		3 * time.Microsecond, time.Millisecond, time.Millisecond,
		40 * time.Millisecond, time.Second, 3 * time.Minute,
	}
	var a, b, combined Sketch
	var sum time.Duration
	for i, d := range samples {
		sum += d
		if i%2 == 0 {
			a.Observe(d)
		} else {
			b.Observe(d)
		}
		combined.Observe(d)
	}
	var sa, sb, sc Snapshot
	a.Load(&sa)
	b.Load(&sb)
	combined.Load(&sc)
	sa.Merge(sb)
	if sa != sc {
		t.Fatalf("merged snapshot %+v != combined sketch %+v", sa, sc)
	}
	if sa.Total != int64(len(samples)) || sa.Max() != 3*time.Minute || sa.SumNS != int64(sum) {
		t.Errorf("merged total=%d max=%v sum=%dns", sa.Total, sa.Max(), sa.SumNS)
	}
}

// TestWindowedSketchRotation drives the slot ring through a rotation: a
// snapshot merges exactly the in-window slots, a slot reused for a newer
// epoch drops its old counts, and samples older than their slot's current
// epoch are discarded rather than polluting the newer window.
func TestWindowedSketchRotation(t *testing.T) {
	w := NewWindowed(time.Second, 4)
	if w.Span() != 4*time.Second {
		t.Fatalf("span = %v, want 4s", w.Span())
	}
	t0 := time.Unix(100, 0)
	for i := 0; i < 3; i++ {
		w.Observe(t0, 10*time.Millisecond)
	}
	w.Observe(t0.Add(time.Second), 20*time.Millisecond)
	w.Observe(t0.Add(time.Second), 20*time.Millisecond)
	w.Observe(t0.Add(2*time.Second), 30*time.Millisecond)

	if got := w.Snapshot(t0.Add(2*time.Second), 0).Total; got != 6 {
		t.Errorf("full-span snapshot total = %d, want 6", got)
	}
	snap := w.Snapshot(t0.Add(2*time.Second), 2*time.Second)
	if snap.Total != 3 {
		t.Errorf("2s snapshot total = %d, want 3 (the t0 slot excluded)", snap.Total)
	}
	if snap.Max() != 30*time.Millisecond {
		t.Errorf("2s snapshot max = %v, want 30ms", snap.Max())
	}

	// t0+4s maps onto t0's slot: the first observation there rotates the
	// slot and the 10ms samples disappear from a full-span snapshot.
	w.Observe(t0.Add(4*time.Second), 40*time.Millisecond)
	if got := w.Snapshot(t0.Add(4*time.Second), 0).Total; got != 4 {
		t.Errorf("total after rotation = %d, want 4", got)
	}
	// A straggler stamped before the slot's new epoch is dropped.
	w.Observe(t0, 10*time.Millisecond)
	if got := w.Snapshot(t0.Add(4*time.Second), 0).Total; got != 4 {
		t.Errorf("total after stale observe = %d, want 4 (straggler kept)", got)
	}

	w.Reset()
	if got := w.Snapshot(t0.Add(4*time.Second), 0).Total; got != 0 {
		t.Errorf("total after reset = %d, want 0", got)
	}
}
