package prov

import (
	"testing"
	"time"

	"repro/internal/event"
)

// BenchmarkProvRecord measures the store's hot-path append with segment
// rotation and eviction in steady state. The allocs/op column must read 0:
// rotation recycles the eviction spare (TestSegmentRecyclingReusesSpare
// asserts it).
func BenchmarkProvRecord(b *testing.B) {
	s := NewStore(Options{SegmentHops: 1024, MaxSegments: 64})
	h := Hop{
		Node: "bench", Actor: "stage",
		In:    event.WaveTag{Root: 1, RootSeq: 1, Path: []int{1}},
		Out:   event.WaveTag{Root: 1, RootSeq: 1, Path: []int{1, 1}},
		Start: time.Now(), Cost: time.Microsecond, Consumed: 1, Produced: 1,
	}
	// Warm every stripe past its first eviction so rotation reuses spares.
	for i := 0; i < 1024*64*2; i++ {
		h.Root = int64(i)
		s.Record(h)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Root = int64(i)
		h.RootSeq = uint64(i >> 10)
		s.Record(h)
	}
}

// BenchmarkProvWaveQuery measures the wave-lineage lookup against a full
// store: one stripe scan plus the copy out.
func BenchmarkProvWaveQuery(b *testing.B) {
	s := NewStore(Options{})
	start := time.Now()
	const waves = DefaultSegmentHops * DefaultMaxSegments / 4
	for i := 0; i < waves; i++ {
		recordLineage(s, int64(i), 0, start)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The newest waves are guaranteed resident; the oldest may have
		// rotated out.
		if hops := s.Wave(int64(waves-1-i%1000), 0); len(hops) == 0 {
			b.Fatal("bench wave missing")
		}
	}
}

// BenchmarkProvByActor measures the sink + time-window index over the full
// segment set with time-bound pruning active.
func BenchmarkProvByActor(b *testing.B) {
	s := NewStore(Options{})
	start := time.Now()
	for i := 0; i < DefaultSegmentHops*DefaultMaxSegments/4; i++ {
		recordLineage(s, int64(i), 0, start.Add(time.Duration(i)*time.Microsecond))
	}
	until := start.Add(time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if refs := s.ByActor("sink", start, until, 50); len(refs) == 0 {
			b.Fatal("bench window empty")
		}
	}
}
