package model

import (
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/value"
	"repro/internal/window"
)

// passActor forwards each incoming token, optionally multiplying it.
type passActor struct {
	Base
	in, out *Port
	fired   int
}

func newPassActor(name string) *passActor {
	a := &passActor{Base: NewBase(name)}
	a.Bind(a)
	a.in = a.Input("in")
	a.out = a.Output("out")
	return a
}

func (a *passActor) Fire(ctx *FireContext) error {
	a.fired++
	if tok := ctx.Token(a.in); tok != nil {
		ctx.Put(a.out, tok)
	}
	return nil
}

// srcActor is a marker source.
type srcActor struct {
	Base
	out  *Port
	done bool
}

func newSrcActor(name string) *srcActor {
	a := &srcActor{Base: NewBase(name)}
	a.Bind(a)
	a.out = a.Output("out")
	return a
}

func (a *srcActor) Exhausted() bool { return a.done }

// listReceiver collects delivered events.
type listReceiver struct{ got []*event.Event }

func (r *listReceiver) Put(ev *event.Event) { r.got = append(r.got, ev) }

func TestPortBasics(t *testing.T) {
	a := newPassActor("A")
	if a.in.Kind() != Input || a.out.Kind() != Output {
		t.Fatal("port kinds wrong")
	}
	if got := a.in.FullName(); got != "A.in" {
		t.Errorf("FullName = %q", got)
	}
	if a.in.Owner() != Actor(a) {
		t.Error("port owner should be the embedding actor, not Base")
	}
	if !a.in.Spec().IsPassthrough() {
		t.Error("default input should be passthrough")
	}
	if a.in.Connected() {
		t.Error("fresh port should not be connected")
	}
	if Input.String() != "input" || Output.String() != "output" {
		t.Error("PortKind.String")
	}
}

func TestDuplicatePortPanics(t *testing.T) {
	a := newPassActor("A")
	for _, fn := range []func(){
		func() { a.Input("in") },
		func() { a.Output("out") },
		func() { a.WindowedInput("w", window.Spec{Unit: window.Tuples, Size: 0, Step: 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSetReceiverOnOutputPanics(t *testing.T) {
	a := newPassActor("A")
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	a.out.SetReceiver(&listReceiver{})
}

func TestPortLookup(t *testing.T) {
	a := newPassActor("A")
	if a.InputByName("in") != a.in || a.InputByName("nope") != nil {
		t.Error("InputByName")
	}
	if a.OutputByName("out") != a.out || a.OutputByName("nope") != nil {
		t.Error("OutputByName")
	}
}

func TestWorkflowAddAndConnect(t *testing.T) {
	wf := NewWorkflow("test")
	a, b, c := newPassActor("A"), newPassActor("B"), newPassActor("C")
	if err := wf.Add(a, b, c); err != nil {
		t.Fatal(err)
	}
	if err := wf.Add(newPassActor("A")); err == nil {
		t.Error("duplicate actor name accepted")
	}
	if err := wf.Connect(a.out, b.in); err != nil {
		t.Fatal(err)
	}
	if err := wf.Connect(a.out, c.in); err != nil {
		t.Fatal(err) // fan-out
	}
	if err := wf.Connect(a.out, b.in); err == nil {
		t.Error("duplicate channel accepted")
	}
	if err := wf.Connect(b.in, a.out); err == nil {
		t.Error("reversed connect accepted")
	}
	outsider := newPassActor("X")
	if err := wf.Connect(outsider.out, b.in); err == nil {
		t.Error("foreign actor connect accepted")
	}
	if err := wf.Connect(nil, b.in); err == nil {
		t.Error("nil port connect accepted")
	}
	if len(wf.Channels()) != 2 {
		t.Errorf("Channels = %d, want 2", len(wf.Channels()))
	}
	if got := wf.Channels()[0].String(); got != "A.out -> B.in" {
		t.Errorf("Channel.String = %q", got)
	}
	if err := wf.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestWorkflowTopologyQueries(t *testing.T) {
	wf := NewWorkflow("topo")
	src := newSrcActor("Src")
	a, b, sink := newPassActor("A"), newPassActor("B"), newPassActor("Sink")
	wf.MustAdd(src, a, b, sink)
	wf.MustConnect(src.out, a.in)
	wf.MustConnect(a.out, b.in)
	wf.MustConnect(b.out, sink.in)

	srcs := wf.Sources()
	if len(srcs) != 1 || srcs[0].Name() != "Src" {
		t.Fatalf("Sources = %v", names(srcs))
	}
	if got := names(wf.Downstream(a)); got != "B" {
		t.Errorf("Downstream(A) = %q", got)
	}
	if got := names(wf.Upstream(b)); got != "A" {
		t.Errorf("Upstream(B) = %q", got)
	}
	if got := names(wf.Downstream(sink)); got != "" {
		t.Errorf("Downstream(Sink) = %q", got)
	}
	if wf.Actor("A") != Actor(a) || wf.Actor("missing") != nil {
		t.Error("Actor lookup")
	}
	if n := len(wf.InputPorts()); n != 3 {
		t.Errorf("InputPorts = %d, want 3 (the source has none)", n)
	}
}

func TestSourceDetectionWithoutMarker(t *testing.T) {
	// An actor with no connected inputs but connected outputs counts as a
	// source even without the SourceActor marker.
	wf := NewWorkflow("s")
	gen, sink := newPassActor("Gen"), newPassActor("Sink")
	wf.MustAdd(gen, sink)
	wf.MustConnect(gen.out, sink.in)
	srcs := wf.Sources()
	if len(srcs) != 1 || srcs[0].Name() != "Gen" {
		t.Errorf("Sources = %v", names(srcs))
	}
}

func names(actors []Actor) string {
	var parts []string
	for _, a := range actors {
		parts = append(parts, a.Name())
	}
	return strings.Join(parts, ",")
}

func TestBroadcastReachesAllDestinations(t *testing.T) {
	wf := NewWorkflow("b")
	a, b, c := newPassActor("A"), newPassActor("B"), newPassActor("C")
	wf.MustAdd(a, b, c)
	wf.MustConnect(a.out, b.in)
	wf.MustConnect(a.out, c.in)
	rb, rc := &listReceiver{}, &listReceiver{}
	b.in.SetReceiver(rb)
	c.in.SetReceiver(rc)

	tk := event.NewTimekeeper()
	ev := tk.External(value.Int(5), time.Unix(1, 0))
	a.out.BroadcastBatch([]*event.Event{ev})
	if len(rb.got) != 1 || len(rc.got) != 1 {
		t.Fatalf("broadcast delivered %d/%d", len(rb.got), len(rc.got))
	}
	if rb.got[0] != ev || rc.got[0] != ev {
		t.Error("broadcast should deliver the same immutable event")
	}
}

func TestFireContextStageAndPut(t *testing.T) {
	clk := clock.NewVirtual()
	tk := event.NewTimekeeper()
	ctx := NewFireContext(clk, tk)
	a := newPassActor("A")

	trigger := tk.External(value.Int(3), time.Unix(9, 0).UTC())
	w := &window.Window{Events: []*event.Event{trigger}, Time: trigger.Time, Wave: trigger.Wave}

	ctx.BeginFiring(trigger)
	ctx.Stage(a.in, w)
	if !ctx.Has(a.in) {
		t.Fatal("staged window not visible")
	}
	if got := ctx.Window(a.in); got != w {
		t.Fatal("Window did not return staged window")
	}
	if tok := ctx.Token(a.in); !tok.Equal(value.Int(3)) {
		t.Errorf("Token = %v", tok)
	}
	if ev := ctx.Event(a.in); ev != trigger {
		t.Error("Event should be the newest member")
	}
	ctx.Put(a.out, value.Int(30))
	ctx.Put(a.out, value.Int(31))
	ems := ctx.EndFiring()
	if len(ems) != 2 {
		t.Fatalf("emissions = %d", len(ems))
	}
	for i, em := range ems {
		if em.Port != a.out {
			t.Errorf("emission %d port = %v", i, em.Port.FullName())
		}
		if !em.Ev.Time.Equal(trigger.Time) {
			t.Errorf("emission %d did not inherit trigger time", i)
		}
		if !trigger.Wave.AncestorOf(em.Ev.Wave) {
			t.Errorf("emission %d not in trigger's wave", i)
		}
	}
	if !ems[1].Ev.Wave.Last || ems[0].Ev.Wave.Last {
		t.Error("last-of-wave marker misplaced")
	}
	// Staging is cleared between firings.
	if ctx.Has(a.in) {
		t.Error("staged window leaked across firings")
	}
}

// countedClock counts how often the engine clock is read.
type countedClock struct {
	*clock.Virtual
	reads int
}

func (c *countedClock) Now() time.Time {
	c.reads++
	return c.Virtual.Now()
}

// TestFireContextPutSkipsClockInsideWave: a token put while a firing has a
// triggering event takes the trigger's time, so Put must not read the clock
// for a fallback nobody uses — and must still read it, and stamp what it
// read, whenever there is no wave to inherit from.
func TestFireContextPutSkipsClockInsideWave(t *testing.T) {
	clk := &countedClock{Virtual: clock.NewVirtual()}
	clk.AdvanceTo(time.Unix(50, 0).UTC())
	tk := event.NewTimekeeper()
	ctx := NewFireContext(clk, tk)
	a := newPassActor("A")
	trigger := tk.External(value.Int(3), time.Unix(9, 0).UTC())

	ctx.BeginFiring(trigger)
	ctx.Put(a.out, value.Int(30))
	ctx.Put(a.out, value.Int(31))
	ems := ctx.EndFiring()
	if clk.reads != 0 {
		t.Errorf("Put inside a wave read the clock %d times, want 0", clk.reads)
	}
	if len(ems) != 2 || !ems[0].Ev.Time.Equal(trigger.Time) || !ems[1].Ev.Time.Equal(trigger.Time) {
		t.Fatalf("emissions %v did not inherit the trigger's time", ems)
	}

	// No triggering event (a source or timeout firing): the clock is the
	// only time there is.
	ctx.BeginFiring(nil)
	ctx.Put(a.out, value.Int(32))
	ems = ctx.EndFiring()
	if clk.reads != 1 {
		t.Errorf("Put with no trigger read the clock %d times, want 1", clk.reads)
	}
	if len(ems) != 1 || !ems[0].Ev.Time.Equal(clk.Virtual.Now()) || ems[0].Ev.Wave.Root != clk.Virtual.Now().UnixNano() {
		t.Fatalf("no-trigger emission %v not stamped with the clock's time", ems)
	}

	// Outside any firing, after a firing that had a trigger: the wave is
	// closed, so the put starts one of its own at the clock's time.
	ctx.BeginFiring(trigger)
	ctx.EndFiring()
	ctx.Put(a.out, value.Int(33))
	if clk.reads != 2 {
		t.Errorf("Put outside a firing read the clock %d times in all, want 2", clk.reads)
	}
	ctx.BeginFiring(trigger)
	ctx.Reset()
	ctx.Put(a.out, value.Int(34))
	if clk.reads != 3 {
		t.Errorf("Put after Reset read the clock %d times in all, want 3", clk.reads)
	}
}

func TestFireContextPuller(t *testing.T) {
	clk := clock.NewVirtual()
	tk := event.NewTimekeeper()
	ctx := NewFireContext(clk, tk)
	a := newPassActor("A")
	calls := 0
	ctx.SetPuller(func(p *Port) (*window.Window, bool) {
		calls++
		if p != a.in {
			t.Errorf("puller got port %s", p.FullName())
		}
		ev := tk.External(value.Int(7), time.Unix(2, 0))
		return &window.Window{Events: []*event.Event{ev}}, true
	})
	ctx.BeginFiring(nil)
	if tok := ctx.Token(a.in); !tok.Equal(value.Int(7)) {
		t.Errorf("Token via puller = %v", tok)
	}
	// Second access uses the staged copy, not another pull.
	ctx.Window(a.in)
	if calls != 1 {
		t.Errorf("puller called %d times, want 1", calls)
	}
	ctx.EndFiring()
}

func TestFireContextEmptyAccessors(t *testing.T) {
	ctx := NewFireContext(clock.NewVirtual(), event.NewTimekeeper())
	a := newPassActor("A")
	if ctx.Window(a.in) != nil || ctx.Event(a.in) != nil || ctx.Token(a.in) != nil {
		t.Error("accessors on empty context should return nil")
	}
	if r := ctx.Record(a.in); r.Len() != 0 {
		t.Error("Record on empty context should be empty")
	}
	if ctx.Stopped() {
		t.Error("fresh context reports stopped")
	}
	ctx.StopWorkflow()
	if !ctx.Stopped() {
		t.Error("StopWorkflow did not set flag")
	}
}

func TestManagerStates(t *testing.T) {
	for s, want := range map[ManagerState]string{Idle: "idle", Running: "running", Paused: "paused", Stopped: "stopped"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
}

func TestTaxonomyTable(t *testing.T) {
	rows := Taxonomy()
	if len(rows) != 13 {
		t.Fatalf("taxonomy has %d rows, want 13 (12 Kepler/PtolemyII + PNCWF)", len(rows))
	}
	// The paper's first group is Kepler, second PtolemyII, then PNCWF.
	if rows[0].Name != "SDF" || rows[len(rows)-1].Name != "PNCWF" {
		t.Errorf("taxonomy order wrong: first %s last %s", rows[0].Name, rows[len(rows)-1].Name)
	}
	pncwf, ok := TaxonomyByName("PNCWF")
	if !ok {
		t.Fatal("PNCWF missing from taxonomy")
	}
	if pncwf.ActorInteraction != "Push-Windowed" || pncwf.ComputationDriver != "Data-Windowed-driven" {
		t.Errorf("PNCWF traits = %+v", pncwf)
	}
	if pncwf.Scheduling != "Thread/OS" {
		t.Errorf("PNCWF scheduling = %q (the thread-based baseline relies on the OS)", pncwf.Scheduling)
	}
	tm, ok := TaxonomyByName("TM")
	if !ok || tm.QoS != "Priority" {
		t.Errorf("TM row wrong: %+v ok=%v (STAFiLOS's TM Windowed Receiver builds on the TM domain)", tm, ok)
	}
	if _, ok := TaxonomyByName("nope"); ok {
		t.Error("TaxonomyByName(nope) found a row")
	}
	groups := map[string]int{}
	for _, r := range rows {
		groups[r.Group]++
	}
	if groups["Kepler"] != 4 || groups["PtolemyII"] != 8 || groups["CONFLuEnCE"] != 1 {
		t.Errorf("group counts = %v", groups)
	}
}
