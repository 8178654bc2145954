package window

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/event"
	"repro/internal/value"
)

func ts(sec float64) time.Time {
	return time.Unix(0, int64(sec*float64(time.Second))).UTC()
}

// feed stamps tokens as external events at 1-second intervals and feeds them
// to the operator, returning all produced windows.
func feed(o *Operator, tokens ...value.Value) []*Window {
	tk := event.NewTimekeeper()
	var out []*Window
	for i, tok := range tokens {
		now := ts(float64(i))
		out = append(out, o.Put(tk.External(tok, now), now)...)
	}
	return out
}

func ints(w *Window) []int64 {
	out := make([]int64, 0, w.Len())
	for _, e := range w.Events {
		out = append(out, int64(e.Token.(value.Int)))
	}
	return out
}

func eqInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		spec Spec
		ok   bool
	}{
		{Spec{Unit: Tuples, Size: 1, Step: 1}, true},
		{Spec{Unit: Tuples, Size: 0, Step: 1}, false},
		{Spec{Unit: Tuples, Size: 1, Step: 0}, false},
		{Spec{Unit: Time, SizeDur: time.Minute, StepDur: time.Minute}, true},
		{Spec{Unit: Time, SizeDur: 0, StepDur: time.Minute}, false},
		{Spec{Unit: Time, SizeDur: time.Minute, StepDur: 0}, false},
		{Spec{Unit: Waves, Size: 2, Step: 1}, true},
		{Spec{Unit: Tuples, Size: 1, Step: 1, Timeout: -time.Second}, false},
		{Spec{Unit: Unit(9), Size: 1, Step: 1}, false},
	}
	for i, c := range cases {
		err := c.spec.Validate()
		if (err == nil) != c.ok {
			t.Errorf("case %d: Validate() = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestSpecStringPaperNotation(t *testing.T) {
	s := Spec{Unit: Tuples, Size: 4, Step: 1, GroupBy: []string{"carID"}}
	if got, want := s.String(), "{Size: 4 tuples, Step: 1 tuples, Group-by: carID}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	s2 := Spec{Unit: Time, SizeDur: time.Minute, StepDur: time.Minute, GroupBy: []string{"xway", "dir", "seg"}}
	if got, want := s2.String(), "{Size: 1m0s, Step: 1m0s, Group-by: xway, dir, seg}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestPassthrough(t *testing.T) {
	if !Passthrough().IsPassthrough() {
		t.Fatal("Passthrough spec not recognized")
	}
	o := New(Passthrough())
	ws := feed(o, value.Int(1), value.Int(2), value.Int(3))
	if len(ws) != 3 {
		t.Fatalf("produced %d windows, want 3", len(ws))
	}
	for i, w := range ws {
		if w.Len() != 1 || int64(w.Events[0].Token.(value.Int)) != int64(i+1) {
			t.Errorf("window %d = %v", i, ints(w))
		}
	}
	if o.Pending() != 0 {
		t.Errorf("passthrough retained %d events", o.Pending())
	}
}

func TestTupleSlidingWindow(t *testing.T) {
	o := New(Spec{Unit: Tuples, Size: 4, Step: 1})
	ws := feed(o, value.Int(1), value.Int(2), value.Int(3), value.Int(4), value.Int(5), value.Int(6))
	want := [][]int64{{1, 2, 3, 4}, {2, 3, 4, 5}, {3, 4, 5, 6}}
	if len(ws) != len(want) {
		t.Fatalf("produced %d windows, want %d", len(ws), len(want))
	}
	for i := range want {
		if !eqInts(ints(ws[i]), want[i]) {
			t.Errorf("window %d = %v, want %v", i, ints(ws[i]), want[i])
		}
	}
}

// TestFigure2WindowExample pins the paper's Figure 2 scenario: a window
// definition combined with the delete_used_events flag. With size 3, step 2:
// without the flag windows overlap by one event; with the flag every event
// is used at most once, so the next window starts after the previous one.
func TestFigure2WindowExample(t *testing.T) {
	in := []value.Value{value.Int(1), value.Int(2), value.Int(3), value.Int(4), value.Int(5), value.Int(6), value.Int(7)}

	t.Run("without delete_used_events", func(t *testing.T) {
		o := New(Spec{Unit: Tuples, Size: 3, Step: 2})
		ws := feed(o, in...)
		want := [][]int64{{1, 2, 3}, {3, 4, 5}, {5, 6, 7}}
		if len(ws) != len(want) {
			t.Fatalf("produced %d windows, want %d", len(ws), len(want))
		}
		for i := range want {
			if !eqInts(ints(ws[i]), want[i]) {
				t.Errorf("window %d = %v, want %v", i, ints(ws[i]), want[i])
			}
		}
	})

	t.Run("with delete_used_events", func(t *testing.T) {
		o := New(Spec{Unit: Tuples, Size: 3, Step: 2, DeleteUsed: true})
		ws := feed(o, in...)
		want := [][]int64{{1, 2, 3}, {4, 5, 6}}
		if len(ws) != len(want) {
			t.Fatalf("produced %d windows, want %d", len(ws), len(want))
		}
		for i := range want {
			if !eqInts(ints(ws[i]), want[i]) {
				t.Errorf("window %d = %v, want %v", i, ints(ws[i]), want[i])
			}
		}
		// Used events were expired, not retained.
		exp := o.DrainExpired()
		if len(exp) != 6 {
			t.Errorf("expired %d events, want 6", len(exp))
		}
	})
}

func TestTupleExpiredItemsQueue(t *testing.T) {
	o := New(Spec{Unit: Tuples, Size: 2, Step: 2})
	feed(o, value.Int(1), value.Int(2), value.Int(3), value.Int(4))
	exp := o.DrainExpired()
	got := make([]int64, len(exp))
	for i, e := range exp {
		got[i] = int64(e.Token.(value.Int))
	}
	if !eqInts(got, []int64{1, 2, 3, 4}) {
		t.Errorf("expired = %v, want [1 2 3 4]", got)
	}
	if more := o.DrainExpired(); len(more) != 0 {
		t.Errorf("DrainExpired not cleared: %d", len(more))
	}
}

func TestTupleGroupBy(t *testing.T) {
	// Stopped-car detection semantics from the paper's Appendix A:
	// {Size: 4 tokens, Step: 1 token, Group-by: carID}.
	o := New(Spec{Unit: Tuples, Size: 4, Step: 1, GroupBy: []string{"carID"}})
	tk := event.NewTimekeeper()
	var ws []*Window
	for i := 0; i < 8; i++ {
		car := int64(i % 2)
		ev := tk.External(value.NewRecord("carID", value.Int(car), "n", value.Int(int64(i))), ts(float64(i)))
		ws = append(ws, o.Put(ev, ts(float64(i)))...)
	}
	if len(ws) != 2 {
		t.Fatalf("produced %d windows, want 2 (one per car)", len(ws))
	}
	if o.Groups() != 2 {
		t.Errorf("Groups = %d, want 2", o.Groups())
	}
	for _, w := range ws {
		if w.Len() != 4 {
			t.Fatalf("window has %d events, want 4", w.Len())
		}
		car := w.Record(0).Int("carID")
		if w.Group != fmt.Sprintf("%d", car) {
			t.Errorf("Group = %q for car %d", w.Group, car)
		}
		for i := range w.Len() {
			if w.Record(i).Int("carID") != car {
				t.Errorf("window mixes cars: %v", w.Events)
			}
		}
	}
}

func TestTupleTimeoutProducesPartialWindow(t *testing.T) {
	o := New(Spec{Unit: Tuples, Size: 4, Step: 1, Timeout: 10 * time.Second})
	tk := event.NewTimekeeper()
	o.Put(tk.External(value.Int(1), ts(0)), ts(0))
	o.Put(tk.External(value.Int(2), ts(1)), ts(1))

	if ws := o.OnTime(ts(5)); len(ws) != 0 {
		t.Fatalf("timeout fired early: %d windows", len(ws))
	}
	dl, ok := o.NextDeadline()
	if !ok || !dl.Equal(ts(10)) {
		t.Fatalf("NextDeadline = %v, %v; want t=10", dl, ok)
	}
	ws := o.OnTime(ts(10))
	if len(ws) != 1 {
		t.Fatalf("timeout produced %d windows, want 1", len(ws))
	}
	if !ws[0].Partial {
		t.Error("timed-out tuple window should be marked partial")
	}
	if !eqInts(ints(ws[0]), []int64{1, 2}) {
		t.Errorf("partial window = %v, want [1 2]", ints(ws[0]))
	}
	// The partial window consumed its events: no repeated emission.
	if ws := o.OnTime(ts(30)); len(ws) != 0 {
		t.Errorf("quiet stream re-emitted %d windows", len(ws))
	}
}

func TestTimeTumblingWindow(t *testing.T) {
	// One-minute tumbling windows, the paper's segment-statistics shape.
	o := New(Spec{Unit: Time, SizeDur: time.Minute, StepDur: time.Minute})
	tk := event.NewTimekeeper()
	var ws []*Window
	for _, sec := range []float64{5, 20, 59, 61, 100, 125} {
		ev := tk.External(value.Int(int64(sec)), ts(sec))
		ws = append(ws, o.Put(ev, ts(sec))...)
	}
	if len(ws) != 2 {
		t.Fatalf("produced %d windows, want 2", len(ws))
	}
	if !eqInts(ints(ws[0]), []int64{5, 20, 59}) {
		t.Errorf("window 0 = %v", ints(ws[0]))
	}
	if !ws[0].Start.Equal(ts(0)) || !ws[0].End.Equal(ts(60)) {
		t.Errorf("window 0 bounds = [%v, %v)", ws[0].Start, ws[0].End)
	}
	if !eqInts(ints(ws[1]), []int64{61, 100}) {
		t.Errorf("window 1 = %v", ints(ws[1]))
	}
	if !ws[1].Start.Equal(ts(60)) || !ws[1].End.Equal(ts(120)) {
		t.Errorf("window 1 bounds = [%v, %v)", ws[1].Start, ws[1].End)
	}
}

func TestTimeSlidingWindow(t *testing.T) {
	// LAV shape: 5-minute window sliding by 1 minute.
	o := New(Spec{Unit: Time, SizeDur: 5 * time.Minute, StepDur: time.Minute})
	tk := event.NewTimekeeper()
	var ws []*Window
	for _, min := range []float64{0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5} {
		sec := min * 60
		ev := tk.External(value.Int(int64(min*10)), ts(sec))
		ws = append(ws, o.Put(ev, ts(sec))...)
	}
	// Every window whose end has been punctuated by a later event closes,
	// including the warm-up windows that only partially cover the stream
	// start (LAV's "past five minutes" is shorter during the first five).
	want := [][]int64{
		{5},
		{5, 15},
		{5, 15, 25},
		{5, 15, 25, 35},
		{5, 15, 25, 35, 45},
		{15, 25, 35, 45, 55},
	}
	if len(ws) != len(want) {
		t.Fatalf("produced %d windows, want %d", len(ws), len(want))
	}
	for i := range want {
		if !eqInts(ints(ws[i]), want[i]) {
			t.Errorf("window %d = %v, want %v", i, ints(ws[i]), want[i])
		}
	}
	// Consecutive windows slide by exactly one step.
	for i := 1; i < len(ws); i++ {
		if ws[i].Start.Sub(ws[i-1].Start) != time.Minute {
			t.Errorf("window %d start %v does not slide by 1m from %v", i, ws[i].Start, ws[i-1].Start)
		}
	}
}

func TestTimeWindowTimeout(t *testing.T) {
	o := New(Spec{Unit: Time, SizeDur: time.Minute, StepDur: time.Minute, Timeout: 5 * time.Second})
	tk := event.NewTimekeeper()
	o.Put(tk.External(value.Int(1), ts(10)), ts(10))
	o.Put(tk.External(value.Int(2), ts(30)), ts(30))

	dl, ok := o.NextDeadline()
	if !ok || !dl.Equal(ts(65)) {
		t.Fatalf("NextDeadline = %v, %v; want t=65 (window end 60 + 5s)", dl, ok)
	}
	if ws := o.OnTime(ts(64)); len(ws) != 0 {
		t.Fatal("timed window fired before deadline")
	}
	ws := o.OnTime(ts(65))
	if len(ws) != 1 {
		t.Fatalf("timeout produced %d windows, want 1", len(ws))
	}
	if ws[0].Partial {
		t.Error("timer-closed timed window should not be partial: its period fully elapsed")
	}
	if !eqInts(ints(ws[0]), []int64{1, 2}) {
		t.Errorf("window = %v", ints(ws[0]))
	}
	if !ws[0].Time.Equal(ts(30)) {
		t.Errorf("window Time = %v, want newest member t=30", ws[0].Time)
	}
}

func TestTimeWindowQuietGroupReanchors(t *testing.T) {
	o := New(Spec{Unit: Time, SizeDur: time.Minute, StepDur: time.Minute, Timeout: time.Second})
	tk := event.NewTimekeeper()
	o.Put(tk.External(value.Int(1), ts(10)), ts(10))
	ws := o.OnTime(ts(61))
	if len(ws) != 1 || !eqInts(ints(ws[0]), []int64{1}) {
		t.Fatalf("first window = %v", ws)
	}
	// Long quiet gap, then a new event: exactly one fresh window forms.
	o.Put(tk.External(value.Int(2), ts(1000)), ts(1000))
	ws = o.OnTime(ts(2000))
	if len(ws) != 1 || !eqInts(ints(ws[0]), []int64{2}) {
		t.Fatalf("post-gap window = %v", ws)
	}
	if !ws[0].Start.Equal(ts(960)) {
		t.Errorf("post-gap window start = %v, want t=960", ws[0].Start)
	}
}

func TestWaveWindowClosesOnNextWave(t *testing.T) {
	o := New(Spec{Unit: Waves, Size: 1, Step: 1})
	tk := event.NewTimekeeper()

	rootA := tk.External(value.Int(0), ts(1))
	tk.BeginFiring(rootA)
	tk.Stamp(value.Int(11), ts(0))
	tk.Stamp(value.Int(12), ts(0))
	waveA := tk.EndFiring()

	rootB := tk.External(value.Int(0), ts(2))
	tk.BeginFiring(rootB)
	tk.Stamp(value.Int(21), ts(0))
	waveB := tk.EndFiring()

	var ws []*Window
	for _, ev := range waveA {
		ws = append(ws, o.Put(ev, ts(1))...)
	}
	if len(ws) != 0 {
		t.Fatalf("wave window closed early: %d", len(ws))
	}
	for _, ev := range waveB {
		ws = append(ws, o.Put(ev, ts(2))...)
	}
	if len(ws) != 1 {
		t.Fatalf("produced %d wave windows, want 1", len(ws))
	}
	if !eqInts(ints(ws[0]), []int64{11, 12}) {
		t.Errorf("wave window = %v, want wave A's events", ints(ws[0]))
	}
}

func TestWaveWindowTimeout(t *testing.T) {
	o := New(Spec{Unit: Waves, Size: 2, Step: 2, Timeout: 10 * time.Second})
	tk := event.NewTimekeeper()
	o.Put(tk.External(value.Int(1), ts(0)), ts(0))
	ws := o.OnTime(ts(10))
	if len(ws) != 1 || !ws[0].Partial {
		t.Fatalf("wave timeout: %v", ws)
	}
	if !eqInts(ints(ws[0]), []int64{1}) {
		t.Errorf("wave timeout window = %v", ints(ws[0]))
	}
}

func TestWindowTimeAndWaveComeFromNewestEvent(t *testing.T) {
	o := New(Spec{Unit: Tuples, Size: 2, Step: 1})
	tk := event.NewTimekeeper()
	o.Put(tk.External(value.Int(1), ts(3)), ts(3))
	ws := o.Put(tk.External(value.Int(2), ts(7)), ts(7))
	if len(ws) != 1 {
		t.Fatalf("windows = %d", len(ws))
	}
	if !ws[0].Time.Equal(ts(7)) {
		t.Errorf("window Time = %v, want t=7", ws[0].Time)
	}
	if ws[0].Wave.Root != ts(7).UnixNano() {
		t.Errorf("window Wave root = %d", ws[0].Wave.Root)
	}
}

func TestNewPanicsOnInvalidSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid spec should panic")
		}
	}()
	New(Spec{Unit: Tuples, Size: -1, Step: 1})
}

func TestTokensAndRecordsAccessors(t *testing.T) {
	o := New(Spec{Unit: Tuples, Size: 2, Step: 2})
	tk := event.NewTimekeeper()
	o.Put(tk.External(value.NewRecord("a", value.Int(1)), ts(0)), ts(0))
	ws := o.Put(tk.External(value.Int(9), ts(1)), ts(1))
	if len(ws) != 1 {
		t.Fatalf("windows = %d", len(ws))
	}
	toks := ws[0].Tokens()
	if len(toks) != 2 {
		t.Fatalf("Tokens len = %d", len(toks))
	}
	if r := ws[0].Record(0); r.Int("a") != 1 {
		t.Errorf("Record(0) = %v", r)
	}
	if r := ws[0].Record(1); r.Len() != 0 {
		t.Errorf("non-record token should give empty record, got %v", r)
	}
}

// bruteTupleWindows is a reference implementation of tuple window contents
// for an ungrouped, timeout-free operator.
func bruteTupleWindows(n, size, step int, deleteUsed bool) [][]int {
	var out [][]int
	start := 0
	for start+size <= n {
		w := make([]int, 0, size)
		for i := start; i < start+size; i++ {
			w = append(w, i)
		}
		out = append(out, w)
		adv := step
		if deleteUsed && size > step {
			adv = size
		}
		start += adv
	}
	return out
}

// Property: the operator matches the brute-force reference for arbitrary
// size/step/deleteUsed combinations.
func TestTupleWindowsMatchReference(t *testing.T) {
	f := func(rawSize, rawStep uint8, n uint8, deleteUsed bool) bool {
		size := int(rawSize%6) + 1
		step := int(rawStep%6) + 1
		count := int(n % 40)
		o := New(Spec{Unit: Tuples, Size: size, Step: step, DeleteUsed: deleteUsed})
		tk := event.NewTimekeeper()
		var got [][]int
		for i := 0; i < count; i++ {
			for _, w := range o.Put(tk.External(value.Int(int64(i)), ts(float64(i))), ts(float64(i))) {
				vals := make([]int, 0, w.Len())
				for _, e := range w.Events {
					vals = append(vals, int(e.Token.(value.Int)))
				}
				got = append(got, vals)
			}
		}
		want := bruteTupleWindows(count, size, step, deleteUsed)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				return false
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: every inserted event is eventually accounted for exactly once
// as retained or expired (conservation), for tuple windows.
func TestTupleEventConservationProperty(t *testing.T) {
	f := func(rawSize, rawStep uint8, n uint8, deleteUsed bool) bool {
		size := int(rawSize%5) + 1
		step := int(rawStep%5) + 1
		count := int(n % 50)
		o := New(Spec{Unit: Tuples, Size: size, Step: step, DeleteUsed: deleteUsed})
		tk := event.NewTimekeeper()
		for i := 0; i < count; i++ {
			o.Put(tk.External(value.Int(int64(i)), ts(float64(i))), ts(float64(i)))
		}
		return len(o.DrainExpired())+o.Pending() == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: group-by partitions events so that each group's windows contain
// only that group's events, and windows per group match an ungrouped
// operator fed only that group's events.
func TestGroupByEquivalenceProperty(t *testing.T) {
	f := func(keys []uint8, rawSize uint8) bool {
		size := int(rawSize%4) + 1
		if len(keys) > 60 {
			keys = keys[:60]
		}
		grouped := New(Spec{Unit: Tuples, Size: size, Step: 1, GroupBy: []string{"k"}})
		perKey := map[uint8]*Operator{}
		tk := event.NewTimekeeper()
		gotByKey := map[uint8][][]int64{}
		wantByKey := map[uint8][][]int64{}
		for i, k := range keys {
			k := k % 4
			rec := value.NewRecord("k", value.Int(int64(k)), "i", value.Int(int64(i)))
			ev := tk.External(rec, ts(float64(i)))
			for _, w := range grouped.Put(ev, ts(float64(i))) {
				var vals []int64
				for j := range w.Len() {
					vals = append(vals, w.Record(j).Int("i"))
				}
				kk := uint8(w.Record(0).Int("k"))
				gotByKey[kk] = append(gotByKey[kk], vals)
			}
			solo, ok := perKey[k]
			if !ok {
				solo = New(Spec{Unit: Tuples, Size: size, Step: 1})
				perKey[k] = solo
			}
			ev2 := tk.External(rec, ts(float64(i)))
			for _, w := range solo.Put(ev2, ts(float64(i))) {
				var vals []int64
				for j := range w.Len() {
					vals = append(vals, w.Record(j).Int("i"))
				}
				wantByKey[k] = append(wantByKey[k], vals)
			}
		}
		if len(gotByKey) != len(wantByKey) {
			return false
		}
		for k, want := range wantByKey {
			got := gotByKey[k]
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if !eqInts(got[i], want[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: time windows never contain an event outside [Start, End), and
// consecutive windows of a tumbling operator have adjacent bounds.
func TestTimeWindowBoundsProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		if len(offsets) > 80 {
			offsets = offsets[:80]
		}
		o := New(Spec{Unit: Time, SizeDur: time.Minute, StepDur: time.Minute})
		tk := event.NewTimekeeper()
		cur := 0.0
		var windows []*Window
		for _, off := range offsets {
			cur += float64(off%30) + 0.5
			ev := tk.External(value.Int(int64(cur)), ts(cur))
			windows = append(windows, o.Put(ev, ts(cur))...)
		}
		for _, w := range windows {
			if w.Len() == 0 {
				return false // empty windows must not be emitted
			}
			for _, e := range w.Events {
				if e.Time.Before(w.Start) || !e.Time.Before(w.End) {
					return false
				}
			}
			if w.End.Sub(w.Start) != time.Minute {
				return false
			}
			if w.Start.UnixNano()%int64(time.Minute) != 0 {
				return false // epoch alignment
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: the incrementally-maintained pending counter (what Pending
// returns, O(1)) always equals a from-scratch recount over every group,
// across all window units, group-by partitioning, delete_used_events and
// timeout-forced production.
func TestPendingCounterMatchesRecount(t *testing.T) {
	f := func(ops []uint16, unit uint8, rawSize, rawStep uint8, deleteUsed, grouped bool) bool {
		if len(ops) > 80 {
			ops = ops[:80]
		}
		size := int(rawSize%4) + 1
		step := int(rawStep%4) + 1
		spec := Spec{Size: size, Step: step, DeleteUsed: deleteUsed, Timeout: 3 * time.Second}
		switch unit % 3 {
		case 0:
			spec.Unit = Tuples
		case 1:
			spec.Unit = Time
			spec.SizeDur = time.Duration(size) * time.Second
			spec.StepDur = time.Duration(step) * time.Second
		default:
			spec.Unit = Waves
		}
		if grouped {
			spec.GroupBy = []string{"k"}
		}
		o := New(spec)
		tk := event.NewTimekeeper()
		cur := 0.0
		for _, op := range ops {
			cur += float64(op%5) * 0.7
			if op%7 == 0 {
				o.OnTime(ts(cur))
			} else {
				rec := value.NewRecord("k", value.Int(int64(op%3)), "v", value.Int(int64(op)))
				o.Put(tk.External(rec, ts(cur)), ts(cur))
			}
			o.DrainExpired()
			if o.Pending() != o.recountPending() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestGroupKeyMatchesRecordKey pins the operator's group-by key, rendered
// into a reused buffer, to Record.Key (and, for a non-record token, to its
// String) byte for byte, so Window.Group keeps its exact form.
func TestGroupKeyMatchesRecordKey(t *testing.T) {
	nested := value.NewRecord("b", value.Int(2), "c", value.List{value.Bool(false)})
	cases := []struct {
		name   string
		tok    value.Value
		fields []string
		want   string
	}{
		{"negative int", value.NewRecord("a", value.Int(-7)), []string{"a"}, "-7"},
		{"int above 255", value.NewRecord("a", value.Int(1000)), []string{"a"}, "1000"},
		{"NaN", value.NewRecord("a", value.Float(math.NaN())), []string{"a"}, "NaN"},
		{"negative zero", value.NewRecord("a", value.Float(math.Copysign(0, -1))), []string{"a"}, "-0"},
		{"1e21", value.NewRecord("a", value.Float(1e21)), []string{"a"}, "1e+21"},
		{"0.1", value.NewRecord("a", value.Float(0.1)), []string{"a"}, "0.1"},
		{"quoted non-ASCII", value.NewRecord("a", value.Str("say \"hé\"\n")), []string{"a"}, `"say \"hé\"\n"`},
		{"bool", value.NewRecord("a", value.Bool(true)), []string{"a"}, "true"},
		{"missing field", value.NewRecord("a", value.Int(1)), []string{"z"}, "nil"},
		{"list", value.NewRecord("a", value.List{value.Int(1), value.Str("x")}), []string{"a"}, `[1, "x"]`},
		{"nested record", value.NewRecord("a", nested), []string{"a"}, "{b: 2, c: [false]}"},
		{"multi-field", value.NewRecord("a", value.Int(1), "b", value.Str("x")), []string{"a", "b"}, `1|"x"`},
		{"non-record token", value.Str("q"), []string{"a"}, `"q"`},
	}
	tk := event.NewTimekeeper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref := c.tok.String()
			if r, ok := c.tok.(value.Record); ok {
				ref = r.Key(c.fields...)
			}
			if ref != c.want {
				t.Errorf("reference key = %q, want %q", ref, c.want)
			}
			if got := string(appendGroupKey([]byte("stale"), c.fields, tk.External(c.tok, ts(0)))); got != "stale"+c.want {
				t.Errorf("rendered key = %q, want %q", got, "stale"+c.want)
			}
			o := New(Spec{Unit: Tuples, Size: 1, Step: 1, GroupBy: c.fields})
			ws := o.Put(tk.External(c.tok, ts(0)), ts(0))
			if len(ws) != 1 || ws[0].Group != c.want {
				t.Fatalf("operator windows = %v, want one with Group %q", ws, c.want)
			}
		})
	}
}

// TestDeadlineHeapHoldsOneEntryPerGroup drives 100k events through grouped
// time windows with formation timeouts and checks that the deadline heap
// never holds more than one entry per group, each at the position its group
// records, in heap order.
func TestDeadlineHeapHoldsOneEntryPerGroup(t *testing.T) {
	const keys, events = 50, 100_000
	o := New(Spec{Unit: Time, SizeDur: time.Second, StepDur: time.Second, Timeout: 300 * time.Millisecond,
		GroupBy: []string{"k"}})
	tk := event.NewTimekeeper()
	recs := make([]value.Value, keys)
	for k := range recs {
		recs[k] = value.NewRecord("k", value.Int(int64(k)))
	}
	check := func(i int) {
		t.Helper()
		if len(o.deadlines) > o.Groups() {
			t.Fatalf("after %d events the heap holds %d entries for %d groups", i, len(o.deadlines), o.Groups())
		}
		for j, g := range o.deadlines {
			if g.hpos != j+1 || g.deadline.IsZero() {
				t.Fatalf("after %d events entry %d has hpos %d, deadline %v", i, j, g.hpos, g.deadline)
			}
			if j > 0 && g.deadline.Before(o.deadlines[(j-1)/2].deadline) {
				t.Fatalf("after %d events entry %d precedes its parent", i, j)
			}
		}
	}
	forced := 0
	for i := 0; i < events; i++ {
		// Keys go quiet in turn, so timeouts fire while others stay busy.
		k := (i * 7) % keys
		if (i/5000)%keys == k {
			continue
		}
		now := ts(float64(i) / 1000)
		o.Put(tk.External(recs[k], now), now)
		if i%97 == 0 {
			forced += len(o.OnTime(now))
			o.DrainExpired()
			check(i)
		}
	}
	check(events)
	if forced == 0 || len(o.deadlines) == 0 {
		t.Fatalf("%d windows forced by a timeout, %d deadlines pending at the end; want both > 0", forced, len(o.deadlines))
	}
}
