package event

import (
	"testing"
	"time"

	"repro/internal/value"
)

// TestWaveTagInterned asserts the interning contract: depth-1 child tags of
// the same child index are pointer-equal across waves of the same source —
// they share the canonical backing array instead of per-firing allocations.
func TestWaveTagInterned(t *testing.T) {
	tk := NewTimekeeper()
	fire := func(root time.Time, n int) []*Event {
		tk.BeginFiring(tk.External(value.Int(0), root))
		for i := 0; i < n; i++ {
			tk.Stamp(value.Int(i), root)
		}
		return tk.EndFiring()
	}
	base := time.Unix(100, 0)
	waveA := fire(base, 8)
	waveB := fire(base.Add(time.Second), 8)
	for i := range waveA {
		a, b := waveA[i].Wave, waveB[i].Wave
		if len(a.Path) != 1 || a.Path[0] != i+1 {
			t.Fatalf("wave A child %d: path %v, want [%d]", i, a.Path, i+1)
		}
		if &a.Path[0] != &b.Path[0] {
			t.Errorf("child %d: tags not interned — paths %p vs %p", i, &a.Path[0], &b.Path[0])
		}
	}
	// Interned tags still carry correct per-wave identity and markers.
	if waveA[0].Wave.SameWave(waveB[0].Wave) {
		t.Error("distinct waves compare as the same wave")
	}
	if !waveA[7].Wave.Last || waveA[3].Wave.Last {
		t.Error("last-of-wave markers wrong on interned tags")
	}
}

// TestWaveTagInternedCapacity asserts a tag's backing slice has hard
// capacity: appending to one interned path cannot overwrite its canonical
// neighbor (which every other wave shares).
func TestWaveTagInternedCapacity(t *testing.T) {
	tk := NewTimekeeper()
	tk.BeginFiring(tk.External(value.Int(0), time.Unix(1, 0)))
	tk.Stamp(value.Int(0), time.Unix(1, 0))
	tk.Stamp(value.Int(1), time.Unix(1, 0))
	evs := tk.EndFiring()
	grown := append(evs[0].Wave.Path, 99)
	if evs[1].Wave.Path[0] != 2 {
		t.Fatalf("append to one interned tag corrupted its neighbor: %v", evs[1].Wave.Path)
	}
	if grown[1] != 99 {
		t.Fatalf("append lost its element: %v", grown)
	}
}

// TestDeepPathsNotShared asserts the depth≥2 arena path keeps per-tag
// isolation: distinct firings get distinct backing ranges.
func TestDeepPathsNotShared(t *testing.T) {
	tk := NewTimekeeper()
	parent := tk.External(value.Int(0), time.Unix(5, 0))
	tk.BeginFiring(parent)
	tk.Stamp(value.Int(0), time.Unix(5, 0))
	mid := tk.EndFiring()[0] // depth 1

	tk.BeginFiring(mid)
	tk.Stamp(value.Int(0), time.Unix(5, 0))
	tk.Stamp(value.Int(1), time.Unix(5, 0))
	deep := tk.EndFiring() // depth 2
	if got := deep[0].Wave.Path; len(got) != 2 || got[0] != 1 || got[1] != 1 {
		t.Fatalf("deep path = %v, want [1 1]", got)
	}
	if got := deep[1].Wave.Path; len(got) != 2 || got[1] != 2 {
		t.Fatalf("deep path = %v, want [1 2]", got)
	}
	// Parent recycling must not corrupt children: the ints were copied.
	mid.Wave = WaveTag{}
	if deep[0].Wave.Path[0] != 1 {
		t.Fatal("child path aliases the parent tag")
	}
}

// TestPoolRecycleRoundTrip exercises the pool protocol: poolable events
// recycle, pinned ones do not, and recycled events come back zeroed.
func TestPoolRecycleRoundTrip(t *testing.T) {
	p := NewPool(16)
	tk := NewTimekeeper()
	tk.SetPool(p)
	tk.BeginFiring(nil)
	ev := tk.Stamp(value.Int(42), time.Unix(9, 0))
	tk.FinalizeFiring()
	if !ev.Recyclable() {
		t.Fatal("pooled event not recyclable")
	}
	p.Release(ev)
	if p.Idle() != 1 {
		t.Fatalf("pool idle = %d, want 1", p.Idle())
	}
	got := p.Get()
	if got != ev {
		t.Fatal("pool did not return the recycled event")
	}
	if got.Token != nil || !got.Time.IsZero() || got.Wave.Root != 0 || got.pinned.Load() != 0 {
		t.Fatalf("recycled event not zeroed: %+v", got)
	}

	got.Pin()
	p.Release(got)
	if p.Idle() != 0 {
		t.Fatal("pinned event was recycled")
	}
	foreign := &Event{}
	p.Release(foreign)
	if p.Idle() != 0 {
		t.Fatal("foreign event was recycled")
	}
}

// BenchmarkWaveTagIntern measures the interned stamping path by itself:
// one firing stamping 64 depth-1 children through a pooled timekeeper,
// with every event recycled. This is the wave-tag half of what
// BenchmarkTimekeeperStamp measures end to end; steady state must be
// allocation-free.
func BenchmarkWaveTagIntern(b *testing.B) {
	p := NewPool(256)
	tk := NewTimekeeper()
	tk.SetPool(p)
	root := tk.External(value.Int(0), time.Unix(50, 0))
	tok := value.Int(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.BeginFiring(root)
		for j := 0; j < 64; j++ {
			tk.Stamp(tok, root.Time)
		}
		tk.FinalizeFiring()
		for _, ev := range tk.produced {
			p.Release(ev)
		}
	}
}

// BenchmarkWaveTagDeepPath measures the arena slow path: depth-2 stamping,
// which cannot intern and amortizes one chunk allocation per ~2k firings.
func BenchmarkWaveTagDeepPath(b *testing.B) {
	p := NewPool(256)
	tk := NewTimekeeper()
	tk.SetPool(p)
	root := tk.External(value.Int(0), time.Unix(50, 0))
	tk.BeginFiring(root)
	tk.Stamp(value.Int(0), root.Time)
	mid := tk.EndFiring()[0]
	tok := value.Int(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.BeginFiring(mid)
		tk.Stamp(tok, root.Time)
		tk.FinalizeFiring()
		for _, ev := range tk.produced {
			p.Release(ev)
		}
	}
}
