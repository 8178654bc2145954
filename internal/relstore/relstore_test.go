package relstore

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func row(pairs ...any) Row { return value.NewRecord(pairs...) }

func TestCreateTable(t *testing.T) {
	s := New()
	tbl, err := s.CreateTable("t", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Name() != "t" || len(tbl.Columns()) != 2 {
		t.Errorf("table meta wrong: %s %v", tbl.Name(), tbl.Columns())
	}
	if _, err := s.CreateTable("t", "x"); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := s.CreateTable("empty"); err == nil {
		t.Error("zero-column table accepted")
	}
	if s.Table("t") != tbl || s.Table("missing") != nil {
		t.Error("Table lookup")
	}
	s.MustCreateTable("u", "x")
	names := s.Tables()
	if len(names) != 2 || names[0] != "t" || names[1] != "u" {
		t.Errorf("Tables = %v", names)
	}
}

func TestInsertSelectCount(t *testing.T) {
	s := New()
	tbl := s.MustCreateTable("seg", "xway", "seg", "cars")
	for i := 0; i < 10; i++ {
		if err := tbl.Insert(row("xway", value.Int(0), "seg", value.Int(int64(i)), "cars", value.Int(int64(i*10)))); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Len() != 10 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	big := tbl.Select(func(r Row) bool { return r.Int("cars") > 50 })
	if len(big) != 4 {
		t.Errorf("Select = %d rows, want 4", len(big))
	}
	if got := tbl.Count(func(r Row) bool { return r.Int("seg")%2 == 0 }); got != 5 {
		t.Errorf("Count = %d, want 5", got)
	}
	if got := tbl.Count(nil); got != 10 {
		t.Errorf("Count(nil) = %d", got)
	}
	if err := tbl.Insert(row("xway", value.Int(0))); err == nil {
		t.Error("insert missing columns accepted")
	}
}

func TestIndexedLookup(t *testing.T) {
	s := New()
	tbl := s.MustCreateTable("seg", "xway", "dir", "seg", "cars")
	if err := tbl.CreateIndex("xway", "dir", "seg"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("xway", "dir", "seg"); err == nil {
		t.Error("duplicate index accepted")
	}
	if err := tbl.CreateIndex("nope"); err == nil {
		t.Error("index on unknown column accepted")
	}
	for i := 0; i < 100; i++ {
		tbl.Insert(row("xway", value.Int(int64(i%2)), "dir", value.Int(int64(i%2)),
			"seg", value.Int(int64(i%10)), "cars", value.Int(int64(i))))
	}
	key := row("xway", value.Int(1), "dir", value.Int(1), "seg", value.Int(3))
	got := tbl.Lookup(nil, []string{"xway", "dir", "seg"}, key)
	want := tbl.Select(func(r Row) bool {
		return r.Int("xway") == 1 && r.Int("dir") == 1 && r.Int("seg") == 3
	})
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("Lookup = %d rows, scan = %d", len(got), len(want))
	}
	// Fallback without an index behaves identically.
	got2 := tbl.Lookup(nil, []string{"seg"}, row("seg", value.Int(3)))
	want2 := tbl.Select(func(r Row) bool { return r.Int("seg") == 3 })
	if len(got2) != len(want2) {
		t.Errorf("unindexed Lookup = %d, scan = %d", len(got2), len(want2))
	}
}

// TestIndexedLookupAllocs pins an indexed Lookup into a caller buffer with
// room at zero allocations, hit or miss: the index is found without
// rendering its name, the key renders into a stack buffer and the rows are
// appended in place. The count is exact over n lookups inside one
// AllocsPerRun(1, …), which divides by one, so an allocation made once in n
// lookups still reads as 1.
func TestIndexedLookupAllocs(t *testing.T) {
	s := New()
	tbl := s.MustCreateTable("seg", "xway", "dir", "seg", "minute", "cars")
	if err := tbl.CreateIndex("xway", "dir", "seg", "minute"); err != nil {
		t.Fatal(err)
	}
	for seg := 0; seg < 100; seg++ {
		tbl.Insert(row("xway", value.Int(0), "dir", value.Int(1), "seg", value.Int(int64(seg)),
			"minute", value.Int(1000), "cars", value.Int(60)))
	}
	cols := []string{"xway", "dir", "seg", "minute"}
	hit := row("xway", value.Int(0), "dir", value.Int(1), "seg", value.Int(42), "minute", value.Int(1000))
	miss := hit.With("minute", value.Int(999))
	const n = 1000
	buf := make([]Row, 0, 4)
	for _, c := range []struct {
		name string
		key  Row
		rows int
	}{{"hit", hit, 1}, {"miss", miss, 0}} {
		rows := 0
		allocs := testing.AllocsPerRun(1, func() {
			rows = 0
			for range n {
				rows += len(tbl.Lookup(buf[:0], cols, c.key))
			}
		})
		if rows != n*c.rows {
			t.Fatalf("%s: %d lookups found %d rows, want %d", c.name, n, rows, n*c.rows)
		}
		if allocs != 0 {
			t.Errorf("%s: %d indexed lookups allocate %.0f objects in total, want 0", c.name, n, allocs)
		}
	}
}

func TestUpdateAndUpsert(t *testing.T) {
	s := New()
	tbl := s.MustCreateTable("seg", "seg", "cars")
	tbl.CreateIndex("seg")
	tbl.Insert(row("seg", value.Int(1), "cars", value.Int(10)))
	tbl.Insert(row("seg", value.Int(2), "cars", value.Int(20)))

	n := tbl.Update(func(r Row) bool { return r.Int("seg") == 1 }, func(r Row) Row {
		return r.With("cars", value.Int(99))
	})
	if n != 1 {
		t.Fatalf("Update = %d", n)
	}
	got := tbl.Lookup(nil, []string{"seg"}, row("seg", value.Int(1)))
	if len(got) != 1 || got[0].Int("cars") != 99 {
		t.Fatalf("after update: %v", got)
	}

	// Upsert existing.
	if err := tbl.Upsert([]string{"seg"}, row("seg", value.Int(2), "cars", value.Int(55))); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Errorf("upsert existing grew table to %d", tbl.Len())
	}
	got = tbl.Lookup(nil, []string{"seg"}, row("seg", value.Int(2)))
	if len(got) != 1 || got[0].Int("cars") != 55 {
		t.Fatalf("after upsert: %v", got)
	}
	// Upsert new.
	if err := tbl.Upsert([]string{"seg"}, row("seg", value.Int(3), "cars", value.Int(1))); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 3 {
		t.Errorf("upsert new: Len = %d", tbl.Len())
	}
}

func TestDeleteAndCompact(t *testing.T) {
	s := New()
	tbl := s.MustCreateTable("acc", "seg", "ts")
	tbl.CreateIndex("seg")
	for i := 0; i < 20; i++ {
		tbl.Insert(row("seg", value.Int(int64(i%4)), "ts", value.Int(int64(i))))
	}
	n := tbl.Delete(func(r Row) bool { return r.Int("ts") < 10 })
	if n != 10 {
		t.Fatalf("Delete = %d", n)
	}
	if tbl.Len() != 10 {
		t.Errorf("Len after delete = %d", tbl.Len())
	}
	// Index respects deletions.
	got := tbl.Lookup(nil, []string{"seg"}, row("seg", value.Int(0)))
	for _, r := range got {
		if r.Int("ts") < 10 {
			t.Errorf("deleted row still indexed: %v", r)
		}
	}
	tbl.Compact()
	if tbl.Len() != 10 {
		t.Errorf("Len after compact = %d", tbl.Len())
	}
	got = tbl.Lookup(nil, []string{"seg"}, row("seg", value.Int(1)))
	if len(got) != 3 { // ts 13, 17 — wait: seg1 has ts 1,5,9,13,17; deleted <10 leaves 13,17
		if len(got) != 2 {
			t.Errorf("post-compact lookup = %d rows", len(got))
		}
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	s := New()
	tbl := s.MustCreateTable("t", "k", "v")
	tbl.CreateIndex("k")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tbl.Insert(row("k", value.Int(int64(i%16)), "v", value.Int(int64(g*1000+i))))
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tbl.Lookup(nil, []string{"k"}, row("k", value.Int(int64(i%16))))
				tbl.Count(nil)
			}
		}()
	}
	wg.Wait()
	if tbl.Len() != 2000 {
		t.Errorf("Len = %d, want 2000", tbl.Len())
	}
}

// Property: Lookup via index always equals the equivalent full scan.
func TestIndexScanEquivalenceProperty(t *testing.T) {
	f := func(keys []uint8, probe uint8) bool {
		s := New()
		tbl := s.MustCreateTable("t", "k", "i")
		tbl.CreateIndex("k")
		for i, k := range keys {
			tbl.Insert(row("k", value.Int(int64(k%8)), "i", value.Int(int64(i))))
		}
		// Delete a deterministic subset to exercise tombstones.
		tbl.Delete(func(r Row) bool { return r.Int("i")%3 == 0 })
		k := value.Int(int64(probe % 8))
		got := tbl.Lookup(nil, []string{"k"}, row("k", k))
		want := tbl.Select(func(r Row) bool { return r.Field("k").Equal(k) })
		if len(got) != len(want) {
			return false
		}
		seen := map[string]int{}
		for _, r := range want {
			seen[r.String()]++
		}
		for _, r := range got {
			seen[r.String()]--
		}
		for _, v := range seen {
			if v != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Len equals inserts minus deletes across arbitrary operation mixes.
func TestLenConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		s := New()
		tbl := s.MustCreateTable("t", "i")
		inserted, deleted := 0, 0
		for i, op := range ops {
			switch op % 3 {
			case 0, 1:
				tbl.Insert(row("i", value.Int(int64(i))))
				inserted++
			case 2:
				target := int64(i / 2)
				deleted += tbl.Delete(func(r Row) bool { return r.Int("i") == target })
			}
			if op%7 == 0 {
				tbl.Compact()
			}
		}
		return tbl.Len() == inserted-deleted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func BenchmarkIndexedLookup(b *testing.B) {
	s := New()
	tbl := s.MustCreateTable("t", "k", "v")
	tbl.CreateIndex("k")
	for i := 0; i < 10000; i++ {
		tbl.Insert(row("k", value.Int(int64(i%100)), "v", value.Int(int64(i))))
	}
	probe := row("k", value.Int(42))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := tbl.Lookup(nil, []string{"k"}, probe); len(got) != 100 {
			b.Fatalf("lookup = %d", len(got))
		}
	}
}

func ExampleTable_Select() {
	s := New()
	tbl := s.MustCreateTable("cars", "id", "speed")
	tbl.Insert(row("id", value.Int(1), "speed", value.Int(30)))
	tbl.Insert(row("id", value.Int(2), "speed", value.Int(80)))
	fast := tbl.Select(func(r Row) bool { return r.Int("speed") > 50 })
	fmt.Println(len(fast), fast[0].Int("id"))
	// Output: 1 2
}
