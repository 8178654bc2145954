package prov

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/event"
)

// hop builds one test hop of a wave with the given in/out paths (nil in
// marks a source firing).
func hop(actor string, root int64, rootSeq uint64, in, out []int, start time.Time) Hop {
	h := Hop{Actor: actor, Root: root, RootSeq: rootSeq, Start: start}
	if in != nil {
		h.In = event.WaveTag{Root: root, RootSeq: rootSeq, Path: in}
	}
	if out != nil {
		h.Out = event.WaveTag{Root: root, RootSeq: rootSeq, Path: out}
	}
	return h
}

// recordLineage records a canonical 4-hop pipeline lineage for one wave:
// src -> stage -> filter -> sink with paths [], [1], [1 1], [1 1 1].
func recordLineage(s *Store, root int64, rootSeq uint64, start time.Time) {
	s.Record(hop("src", root, rootSeq, nil, []int{}, start))
	s.Record(hop("stage", root, rootSeq, []int{}, []int{1}, start.Add(time.Millisecond)))
	s.Record(hop("filter", root, rootSeq, []int{1}, []int{1, 1}, start.Add(2*time.Millisecond)))
	s.Record(hop("sink", root, rootSeq, []int{1, 1}, nil, start.Add(3*time.Millisecond)))
}

func TestWaveReturnsHopsInRecordOrder(t *testing.T) {
	s := NewStore(Options{})
	now := time.Now()
	recordLineage(s, 7, 0, now)
	recordLineage(s, 8, 0, now) // another wave: must not leak into wave 7

	hops := s.Wave(7, 0)
	if len(hops) != 4 {
		t.Fatalf("got %d hops, want 4", len(hops))
	}
	for i, want := range []string{"src", "stage", "filter", "sink"} {
		if hops[i].Actor != want {
			t.Errorf("hop[%d] = %s, want %s", i, hops[i].Actor, want)
		}
		if hops[i].Root != 7 || hops[i].RootSeq != 0 {
			t.Errorf("hop[%d] belongs to wave t%d-%d", i, hops[i].Root, hops[i].RootSeq)
		}
	}
	if got := s.Wave(9, 0); got != nil {
		t.Errorf("unknown wave returned %d hops", len(got))
	}
}

// TestRetentionBounds fills the store far past its capacity and checks the
// bound holds: resident hops never exceed the configured capacity, evicted
// lineage is counted, and nothing is silently lost
// (recorded == resident + evicted).
func TestRetentionBounds(t *testing.T) {
	s := NewStore(Options{SegmentHops: 8, MaxSegments: 32})
	const n = 10_000
	now := time.Now()
	for i := 0; i < n; i++ {
		s.Record(hop("a", int64(i%97), uint64(i), nil, []int{}, now))
	}
	st := s.Stats()
	if st.Recorded != n {
		t.Errorf("Recorded = %d, want %d", st.Recorded, n)
	}
	if st.Resident > int64(st.CapacityHops) {
		t.Errorf("Resident %d exceeds CapacityHops %d", st.Resident, st.CapacityHops)
	}
	if st.EvictedHops == 0 || st.EvictedSegments == 0 {
		t.Errorf("no evictions after %d records into capacity %d: %+v", n, st.CapacityHops, st)
	}
	if st.Resident+st.EvictedHops != st.Recorded {
		t.Errorf("hops unaccounted for: resident %d + evicted %d != recorded %d",
			st.Resident, st.EvictedHops, st.Recorded)
	}
	// The store keeps the newest lineage: the last recorded wave must still
	// be queryable after all that eviction.
	if got := s.Wave(int64((n-1)%97), uint64(n-1)); len(got) != 1 {
		t.Errorf("newest wave evicted: %d hops", len(got))
	}
}

// TestMaxAgeExpiry checks the age bound: sealed segments whose newest hop is
// older than MaxAge are evicted at query time, even with recording quiet.
func TestMaxAgeExpiry(t *testing.T) {
	// MaxSegments 32 over 16 stripes = 2 per stripe: one sealed segment
	// survives rotation, so age expiry (not the segment bound) must be what
	// evicts it.
	s := NewStore(Options{SegmentHops: 4, MaxSegments: 32, MaxAge: time.Minute})
	old := time.Now().Add(-time.Hour)
	// 8 hops of one wave land on one stripe: 4 seal a segment, 4 stay active.
	for i := 0; i < 8; i++ {
		s.Record(hop("a", 7, 0, nil, []int{}, old))
	}
	st := s.Stats() // queries run expiry on entry
	if st.EvictedSegments != 1 || st.EvictedHops != 4 {
		t.Errorf("age expiry evicted %d segments / %d hops, want 1 / 4", st.EvictedSegments, st.EvictedHops)
	}
	// The active segment is never age-evicted; the wave keeps its newest hops.
	if got := len(s.Wave(7, 0)); got != 4 {
		t.Errorf("wave has %d hops after expiry, want the 4 active ones", got)
	}

	// Fresh hops seal a new segment that must survive the same query path.
	for i := 0; i < 8; i++ {
		s.Record(hop("a", 7, 0, nil, []int{}, time.Now()))
	}
	if st := s.Stats(); st.EvictedSegments != 2 {
		// Rotation sealed the 4 stale active hops into a segment that the
		// next expiry sweep collects; the fresh sealed segment stays.
		t.Errorf("EvictedSegments = %d, want 2 (both stale segments)", st.EvictedSegments)
	}
	if got := len(s.Wave(7, 0)); got != 8 {
		t.Errorf("wave has %d hops, want the 8 fresh ones", got)
	}
}

func TestAncestorsAndDescendants(t *testing.T) {
	s := NewStore(Options{})
	now := time.Now()
	recordLineage(s, 7, 0, now)

	// Ancestors of the sink's input event [1 1]: the source firing plus
	// every hop whose trigger is a proper ancestor — src, stage ([] ⊂ [1 1])
	// and filter ([1] ⊂ [1 1]); the sink itself (trigger == [1 1]) is not
	// its own ancestor.
	anc := s.Ancestors(7, 0, []int{1, 1})
	if len(anc) != 3 {
		t.Fatalf("Ancestors([1 1]) = %d hops, want 3", len(anc))
	}
	for i, want := range []string{"src", "stage", "filter"} {
		if anc[i].Actor != want {
			t.Errorf("ancestor[%d] = %s, want %s", i, anc[i].Actor, want)
		}
	}

	// An empty path asks who produced the external event: its source firings.
	anc = s.Ancestors(7, 0, nil)
	if len(anc) != 1 || anc[0].Actor != "src" {
		t.Errorf("Ancestors(root event) = %+v, want just src", anc)
	}

	// Descendants of the stage's emission [1]: the hop it triggered (filter)
	// and everything downstream of that (sink).
	desc := s.Descendants(7, 0, []int{1})
	if len(desc) != 2 {
		t.Fatalf("Descendants([1]) = %d hops, want 2", len(desc))
	}
	for i, want := range []string{"filter", "sink"} {
		if desc[i].Actor != want {
			t.Errorf("descendant[%d] = %s, want %s", i, desc[i].Actor, want)
		}
	}

	// An empty path: everything the external event caused (all non-source hops).
	if desc = s.Descendants(7, 0, nil); len(desc) != 3 {
		t.Errorf("Descendants(root event) = %d hops, want 3", len(desc))
	}
}

func TestByActorTimeWindow(t *testing.T) {
	s := NewStore(Options{})
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 10; i++ {
		recordLineage(s, int64(i), 0, base.Add(time.Duration(i)*time.Minute))
	}

	// Open-ended: every wave reached the sink, newest recorded first.
	refs := s.ByActor("sink", time.Time{}, time.Time{}, 0)
	if len(refs) != 10 {
		t.Fatalf("ByActor(sink) = %d waves, want 10", len(refs))
	}
	if refs[0].Root != 9 || refs[9].Root != 0 {
		t.Errorf("ByActor order = %d..%d, want newest (9) first", refs[0].Root, refs[9].Root)
	}

	// Window [2min, 5min]: sink hops start 3ms after each wave's base, so
	// waves 2..4 land inside.
	refs = s.ByActor("sink", base.Add(2*time.Minute), base.Add(5*time.Minute), 0)
	if len(refs) != 3 {
		t.Fatalf("windowed ByActor = %d waves, want 3", len(refs))
	}
	for _, r := range refs {
		if r.Root < 2 || r.Root > 4 {
			t.Errorf("wave t%d-0 outside the [2min,5min] window", r.Root)
		}
	}

	if refs = s.ByActor("sink", time.Time{}, time.Time{}, 2); len(refs) != 2 {
		t.Errorf("limit 2 returned %d waves", len(refs))
	}
	if refs = s.ByActor("no-such-actor", time.Time{}, time.Time{}, 0); len(refs) != 0 {
		t.Errorf("unknown actor returned %d waves", len(refs))
	}
}

func TestRecentOrdersAndLimits(t *testing.T) {
	s := NewStore(Options{})
	now := time.Now()
	recordLineage(s, 1, 0, now)
	recordLineage(s, 2, 0, now)
	s.Record(hop("late", 1, 0, []int{}, nil, now)) // wave 1 touched last

	refs := s.Recent(10)
	if len(refs) != 2 {
		t.Fatalf("Recent = %d waves, want 2", len(refs))
	}
	if refs[0].Root != 1 || refs[0].Hops != 5 {
		t.Errorf("most recent = t%d-0 with %d hops, want t1-0 with 5", refs[0].Root, refs[0].Hops)
	}
	if refs[1].Root != 2 || refs[1].Hops != 4 {
		t.Errorf("second = t%d-0 with %d hops, want t2-0 with 4", refs[1].Root, refs[1].Hops)
	}
	if got := s.Recent(1); len(got) != 1 || got[0].Root != 1 {
		t.Errorf("Recent(1) = %+v, want just t1-0", got)
	}
}

// TestOriginTableBounded checks the wave→origin table drops its oldest notes
// beyond the FIFO cap instead of growing without bound.
func TestOriginTableBounded(t *testing.T) {
	s := NewStore(Options{})
	for i := 0; i < originTableCap+100; i++ {
		s.NoteOrigin(int64(i), 0, 42)
	}
	if st := s.Stats(); st.OriginWaves != originTableCap {
		t.Errorf("OriginWaves = %d, want the cap %d", st.OriginWaves, originTableCap)
	}
	if _, ok := s.Origin(0, 0); ok {
		t.Error("oldest origin note survived past the cap")
	}
	if o, ok := s.Origin(int64(originTableCap+99), 0); !ok || o != 42 {
		t.Errorf("newest origin note = (%d,%v), want (42,true)", o, ok)
	}
	// Re-noting an existing wave updates in place without consuming a slot.
	s.NoteOrigin(int64(originTableCap+99), 0, 43)
	if o, _ := s.Origin(int64(originTableCap+99), 0); o != 43 {
		t.Errorf("re-note kept origin %d, want 43", o)
	}
}

// TestNilStoreIsSafe pins the contract that lets every call site skip
// provenance with one pointer check.
func TestNilStoreIsSafe(t *testing.T) {
	var s *Store
	s.Record(Hop{Root: 1})
	s.NoteOrigin(1, 0, 2)
	if _, ok := s.Origin(1, 0); ok {
		t.Error("nil store reported an origin")
	}
	if s.Wave(1, 0) != nil || s.Ancestors(1, 0, nil) != nil || s.Descendants(1, 0, nil) != nil {
		t.Error("nil store returned hops")
	}
	if s.ByActor("a", time.Time{}, time.Time{}, 0) != nil || s.Recent(5) != nil {
		t.Error("nil store returned refs")
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Errorf("nil store Stats = %+v", st)
	}
}

// TestConcurrentRecordAndQuery hammers the store from writer and reader
// goroutines at once — the -race run of this test is the store's
// concurrency proof (queries copy hops out under the stripe locks, readers
// never see recycled segment memory).
func TestConcurrentRecordAndQuery(t *testing.T) {
	s := NewStore(Options{SegmentHops: 32, MaxSegments: 16, MaxAge: time.Hour})
	const writers, readers, perWriter = 4, 3, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			now := time.Now()
			for i := 0; i < perWriter; i++ {
				root := int64(w*perWriter + i)
				recordLineage(s, root, uint64(i), now.Add(time.Duration(i)))
				s.NoteOrigin(root, uint64(i), uint64(w))
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				root := int64(i % (writers * perWriter))
				for _, h := range s.Wave(root, uint64(i%perWriter)) {
					if h.Root != root {
						t.Errorf("Wave(%d) returned hop of wave %d", root, h.Root)
						return
					}
				}
				s.Ancestors(root, uint64(i%perWriter), []int{1, 1})
				s.ByActor("sink", time.Time{}, time.Time{}, 8)
				s.Recent(8)
				st := s.Stats()
				if st.Resident > int64(st.CapacityHops) {
					t.Errorf("Resident %d exceeds capacity %d mid-run", st.Resident, st.CapacityHops)
					return
				}
			}
		}(r)
	}

	// Let the readers race the writers until every hop is in, then stop.
	deadline := time.Now().Add(30 * time.Second)
	for s.recorded.Load() < int64(writers*perWriter*4) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	st := s.Stats()
	if want := int64(writers * perWriter * 4); st.Recorded != want {
		t.Errorf("Recorded = %d, want %d", st.Recorded, want)
	}
	if st.Resident+st.EvictedHops != st.Recorded {
		t.Errorf("hops unaccounted for: %+v", st)
	}
}

// TestSegmentRecyclingReusesSpare checks steady-state rotation allocates
// nothing: after the first full cycle, every eviction leaves a spare that
// the next rotation reuses, so Record settles at zero allocations. The
// count is exact over 1024 records (64 rotations): AllocsPerRun truncates
// its per-run average, so a per-call measurement would hide an allocation
// made once per rotation. The hops carry non-empty wave paths, as a
// non-source firing's do.
func TestSegmentRecyclingReusesSpare(t *testing.T) {
	s := NewStore(Options{SegmentHops: 16, MaxSegments: 16}) // 1 segment per stripe
	h := hop("a", 7, 0, []int{1}, []int{1, 1}, time.Now())
	// Warm one stripe past its first eviction so the spare exists.
	for i := 0; i < 64; i++ {
		s.Record(h)
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1024; i++ {
			s.Record(h)
		}
	})
	if allocs != 0 {
		t.Errorf("1024 steady-state Records allocate %.0f objects, want 0", allocs)
	}
}

func TestStatsCapacityShape(t *testing.T) {
	for _, tc := range []struct {
		opts Options
		want int
	}{
		{Options{}, DefaultSegmentHops * (DefaultMaxSegments / Stripes) * Stripes},
		{Options{SegmentHops: 10, MaxSegments: 16}, 10 * 1 * Stripes},
		{Options{SegmentHops: 10, MaxSegments: 17}, 10 * 2 * Stripes}, // ceil
	} {
		s := NewStore(tc.opts)
		if got := s.Stats().CapacityHops; got != tc.want {
			t.Errorf("CapacityHops(%+v) = %d, want %d", tc.opts, got, tc.want)
		}
	}
}

func TestWaveHashSpreadsStripes(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 1024; i++ {
		seen[WaveHash(int64(i), uint64(i%5))&(Stripes-1)]++
	}
	if len(seen) != Stripes {
		t.Errorf("1024 waves landed on %d/%d stripes", len(seen), Stripes)
	}
	for stripe, n := range seen {
		if n > 1024/Stripes*4 {
			t.Errorf("stripe %d got %d of 1024 waves", stripe, n)
		}
	}
}

func ExampleStore_Ancestors() {
	s := NewStore(Options{})
	now := time.Unix(0, 0)
	recordLineage(s, 7, 0, now)
	for _, h := range s.Ancestors(7, 0, []int{1, 1}) {
		fmt.Println(h.Actor, h.Out.String())
	}
	// Output:
	// src t7
	// stage t7.1
	// filter t7.1.1
}
