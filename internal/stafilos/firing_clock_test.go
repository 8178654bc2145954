package stafilos_test

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/clock"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/stafilos"
	"repro/internal/value"
	"repro/internal/window"
)

// tickClock is an engine clock that moves only when read: reading k returns
// base + (10k + k²) seconds, so every reading is distinct, every step is
// longer than any timeout or rate window the tests use, and no two pairs of
// readings are the same distance apart. It counts and keeps its readings.
type tickClock struct {
	*clock.Virtual
	base     time.Time
	readings []time.Time
}

func newTickClock() *tickClock {
	return &tickClock{Virtual: clock.NewVirtual(), base: time.Unix(1_000_000, 0).UTC()}
}

func (c *tickClock) Now() time.Time {
	k := len(c.readings) + 1
	t := c.base.Add(time.Duration(10*k+k*k) * time.Second)
	c.readings = append(c.readings, t)
	return t
}

func (c *tickClock) reads() int { return len(c.readings) }

func (c *tickClock) last() time.Time { return c.readings[len(c.readings)-1] }

// watchedPolicy wraps a policy to see what the director does between picks:
// how often it read the clock for each pick, which instant every enqueued
// window was stamped with, and which instant each real firing ended at.
type watchedPolicy struct {
	stafilos.Scheduler
	t   *testing.T
	clk *tickClock

	picked     *stafilos.Entry
	pickedAt   int // clock reads when the pick was handed out
	picks      int
	forced     int                    // timeout-forced windows seen
	firingEnds map[string][]time.Time // per actor, the instant after each firing
	produced   map[string][]int
}

func (p *watchedPolicy) closePick() {
	if p.picked == nil {
		return
	}
	// The director's two, plus actors.Source asking the time itself.
	limit := 2
	if p.picked.Source {
		limit = 3
	}
	if n := p.clk.reads() - p.pickedAt; n > limit {
		p.t.Errorf("pick of %s read the clock %d times, want at most %d", p.picked.Actor.Name(), n, limit)
	}
	p.picked = nil
}

func (p *watchedPolicy) NextActor() *stafilos.Entry {
	p.closePick()
	e := p.Scheduler.NextActor()
	if e != nil {
		p.picked, p.pickedAt = e, p.clk.reads()
		p.picks++
	}
	return e
}

func (p *watchedPolicy) IterationEnd() {
	p.closePick()
	p.Scheduler.IterationEnd()
}

// Enqueue sees every window a delivery or a timeout poll produces. No clock
// read follows a firing's second one, so the latest reading is that second
// instant — and the window must carry exactly it.
func (p *watchedPolicy) Enqueue(item stafilos.ReadyItem) {
	if !item.Enqueued.Equal(p.clk.last()) {
		p.t.Errorf("window for %s stamped %v, want the firing's second instant %v",
			item.Actor.Name(), item.Enqueued, p.clk.last())
	}
	if item.Win.Partial {
		p.forced++
	}
	p.Scheduler.Enqueue(item)
}

func (p *watchedPolicy) ActorFired(e *stafilos.Entry, cost time.Duration, produced int) {
	if cost > 0 { // a real firing, not an unavailable source being counted
		name := e.Actor.Name()
		p.firingEnds[name] = append(p.firingEnds[name], p.clk.last())
		p.produced[name] = append(p.produced[name], produced)
	}
	p.Scheduler.ActorFired(e, cost, produced)
}

func intFeed(n int, at time.Time) []actors.Item {
	items := make([]actors.Item, n)
	for i := range items {
		items[i] = actors.Item{Tok: value.Int(int64(i)), Time: at}
	}
	return items
}

func identity(v value.Value) value.Value { return v }

// TestSequentialFiringReadsClockTwice pins the clock rule of the sequential
// director: a firing has two instants, before and after, and everything
// that used to read the clock for itself — the arrivals at the downstream
// receivers, the statistics record, the timeout poll that follows — sees
// the second.
func TestSequentialFiringReadsClockTwice(t *testing.T) {
	clk := newTickClock()
	const n, batch = 40, 8

	wf := model.NewWorkflow("clockrule")
	src := actors.NewSource("src", actors.NewSliceFeed(intFeed(n, clk.base)), batch)
	m1 := actors.NewMap("m1", identity)
	m2 := actors.NewMap("m2", identity)
	// Seven-event windows never fill from one event per delivery before the
	// 1 s formation timeout passes (a clock step is at least 11 s), so every
	// window here is forced out by the poll after some later firing.
	windows := 0
	tail := actors.NewSink("tail", window.Spec{Unit: window.Tuples, Size: 7, Step: 7, DeleteUsed: true, Timeout: time.Second},
		func(_ *model.FireContext, w *window.Window) error { windows++; return nil })
	wf.MustAdd(src, m1, m2, tail)
	wf.MustConnect(src.Out(), m1.In())
	wf.MustConnect(m1.Out(), m2.In())
	wf.MustConnect(m2.Out(), tail.In())

	pol := &watchedPolicy{Scheduler: sched.NewFIFO(), t: t, clk: clk,
		firingEnds: map[string][]time.Time{}, produced: map[string][]int{}}
	d := stafilos.NewDirector(pol, stafilos.Options{Clock: clk})
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	for i := 0; d.HasPendingWork(); i++ {
		if i > 10*n {
			t.Fatal("pipeline did not drain")
		}
		before, picks := clk.reads(), pol.picks
		if _, err := d.Step(); err != nil {
			t.Fatal(err)
		}
		// One poll on entry, then what the picks read (checked per pick).
		if got, max := clk.reads()-before, 1+3*(pol.picks-picks); got > max {
			t.Fatalf("step %d read the clock %d times for %d picks", i, got, pol.picks-picks)
		}
	}
	if windows == 0 || pol.forced == 0 {
		t.Fatalf("tail saw %d windows, %d of them forced by a timeout poll; want both > 0", windows, pol.forced)
	}
	if got := d.Stats().Get("m2").Invocations; got != n {
		t.Fatalf("m2 fired %d times, want %d", got, n)
	}

	// The statistics record is dated with the second instant too: a source
	// has no arrivals, so its rate window rolls only in RecordFiring, and
	// the published output rate is the previous firing's output over the
	// distance between the two firings' second instants.
	ends, out := pol.firingEnds["src"], pol.produced["src"]
	if len(ends) != n/batch {
		t.Fatalf("src fired %d times, want %d", len(ends), n/batch)
	}
	last := len(ends) - 1
	want := float64(out[last-1]) / ends[last].Sub(ends[last-1]).Seconds()
	if got := d.Stats().Get("src").OutputRate; math.Abs(got-want) > 1e-9 {
		t.Errorf("src output rate %v, want %v (window rolled at the firings' second instants)", got, want)
	}
}

// TestSequentialTimeoutFiresWithoutTraffic covers the poll after a pick that
// did no work: a timed window whose deadline passes while the only thing
// left to pick is a source with nothing available must still close within
// the same director iteration.
func TestSequentialTimeoutFiresWithoutTraffic(t *testing.T) {
	clk := newTickClock()

	wf := model.NewWorkflow("quiet")
	early := actors.NewSource("early", actors.NewSliceFeed(intFeed(3, clk.base)), 0)
	late := actors.NewSource("late", actors.NewSliceFeed(intFeed(1, clk.base.Add(1000*time.Hour))), 0)
	var sizes []int
	tail := actors.NewSink("tail", window.Spec{Unit: window.Tuples, Size: 100, Step: 100, DeleteUsed: true, Timeout: time.Second},
		func(_ *model.FireContext, w *window.Window) error { sizes = append(sizes, w.Len()); return nil })
	idle := actors.NewCollect("idle")
	wf.MustAdd(early, late, tail, idle)
	wf.MustConnect(early.Out(), tail.In())
	wf.MustConnect(late.Out(), idle.In())

	d := stafilos.NewDirector(sched.NewQBS(0), stafilos.Options{Clock: clk, SourceInterval: 5})
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	// One iteration: early fires and leaves three events pending with a 1 s
	// deadline; the next pick is late, which has nothing yet; the poll after
	// that pick is past the deadline, and tail runs before the iteration ends.
	if _, err := d.Step(); err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 1 || sizes[0] != 3 {
		t.Fatalf("after one iteration tail saw windows %v, want one window of 3", sizes)
	}
}

// TestSequentialPipelineSteadyStateAllocs is the pooling gate for the
// sequential director (run by `make bench-gate`): once the pool, the shell
// free-lists and every reused buffer have warmed up, moving an event across
// the pipeline allocates nothing, and the events it used are back in the
// director's pool at the end.
func TestSequentialPipelineSteadyStateAllocs(t *testing.T) {
	const warm, measured, batch = 20_000, 100_000, 64

	wf := model.NewWorkflow("steady")
	src := actors.NewSource("src", actors.NewSliceFeed(intFeed(warm+measured, time.Now().Add(-time.Hour))), batch)
	m1 := actors.NewMap("m1", identity)
	m2 := actors.NewMap("m2", identity)
	m3 := actors.NewMap("m3", identity)
	seen := 0
	sink := actors.NewSink("sink", window.Passthrough(), func(_ *model.FireContext, w *window.Window) error {
		seen += w.Len()
		return nil
	})
	wf.MustAdd(src, m1, m2, m3, sink)
	wf.MustConnect(src.Out(), m1.In())
	wf.MustConnect(m1.Out(), m2.In())
	wf.MustConnect(m2.Out(), m3.In())
	wf.MustConnect(m3.Out(), sink.In())

	d := stafilos.NewDirector(sched.NewQBS(500*time.Microsecond), stafilos.Options{SourceInterval: 5})
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	stepUntil := func(events int) {
		t.Helper()
		for seen < events {
			if _, err := d.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	stepUntil(warm)
	start := seen
	var m0, m1s runtime.MemStats
	runtime.ReadMemStats(&m0)
	stepUntil(warm + measured)
	runtime.ReadMemStats(&m1s)

	perEvent := float64(m1s.Mallocs-m0.Mallocs) / float64(seen-start)
	t.Logf("%.4f allocs/event over %d events, %d events idle in the pool", perEvent, seen-start, d.IdleEvents())
	if perEvent > 0.05 {
		t.Errorf("steady state allocates %.4f objects/event, want at most 0.05", perEvent)
	}
	if d.IdleEvents() == 0 {
		t.Error("no events came back to the director's pool")
	}
}

// TestWindowedDeliverySteadyStateAllocs is the windowed counterpart of the
// pipeline gate (run by `make bench-gate`): keyed records fan out to a
// group-by sliding tuple window and a group-by tumbling time window with a
// formation timeout, under sinks that allocate nothing. Once every group
// exists and the shell free lists are warm, the engine allocates at most
// two objects per event. One of them is the source event itself: window
// insertion pins it, so it never returns to the director's pool.
func TestWindowedDeliverySteadyStateAllocs(t *testing.T) {
	const keys, warm, measured, batch = 64, 20_000, 100_000, 64

	base := time.Now().Add(-time.Hour)
	// From its fourth event on, every event of a key closes one slide.
	feed := make([]actors.Item, warm+measured+3*keys)
	for i := range feed {
		feed[i] = actors.Item{
			Tok:  value.NewRecord("k", value.Int(int64(i%keys)), "v", value.Int(int64(i))),
			Time: base.Add(time.Duration(i) * 20 * time.Microsecond),
		}
	}
	wf := model.NewWorkflow("windowed")
	src := actors.NewSource("src", actors.NewSliceFeed(feed), batch)
	var slides, sum, members int64
	slide := actors.NewSink("slide", window.Spec{Unit: window.Tuples, Size: 4, Step: 1, GroupBy: []string{"k"}},
		func(_ *model.FireContext, w *window.Window) error {
			slides++
			for _, ev := range w.Events {
				sum += ev.Token.(value.Record).Int("v")
			}
			return nil
		})
	tumble := actors.NewSink("tumble", window.Spec{Unit: window.Time, SizeDur: 100 * time.Millisecond,
		StepDur: 100 * time.Millisecond, Timeout: 50 * time.Millisecond, GroupBy: []string{"k"}},
		func(_ *model.FireContext, w *window.Window) error {
			members += int64(w.Len())
			return nil
		})
	wf.MustAdd(src, slide, tumble)
	wf.MustConnect(src.Out(), slide.In())
	wf.MustConnect(src.Out(), tumble.In())

	d := stafilos.NewDirector(sched.NewQBS(500*time.Microsecond), stafilos.Options{SourceInterval: 5})
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	stepUntil := func(n int64) {
		t.Helper()
		for slides < n {
			if _, err := d.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	stepUntil(warm)
	start := slides
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stepUntil(warm + measured)
	runtime.ReadMemStats(&m1)

	perEvent := float64(m1.Mallocs-m0.Mallocs) / float64(slides-start)
	t.Logf("%.4f allocs/event over %d events (%d tumbling-window members so far)", perEvent, slides-start, members)
	if perEvent > 2 {
		t.Errorf("windowed steady state allocates %.4f objects/event, want at most 2", perEvent)
	}
	if members == 0 || sum == 0 {
		t.Errorf("sinks saw %d tumbling-window members and a slide sum of %d; want both > 0", members, sum)
	}
}
