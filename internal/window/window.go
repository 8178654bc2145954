// Package window implements CONFLuEnCE's window semantics: the active-queue
// window operator that runs on every activity input.
//
// Five parameters define the semantics of a window operator (Section 2.1 of
// the paper): size, step, window_formation_timeout, group-by, and
// delete_used_events. Windows may be tuple-based, time-based or wave-based.
// Events that can no longer contribute to any future window are pushed to an
// expired-items queue, which a workflow may optionally consume with another
// activity. Combining size/step with delete_used_events realizes the hybrid
// window/consumption modes (unrestricted, recent, continuous) of
// Adaikkalavan & Chakravarthy cited by the paper.
//
// The Operator is a passive, deterministic data structure: Put feeds it one
// event, OnTime feeds it the current clock time, and both return the windows
// that became ready. Directors and receivers supply the glue to the engine's
// clock and scheduler.
package window

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/event"
	"repro/internal/ring"
	"repro/internal/value"
)

// Unit selects how window size and step are measured.
type Unit int

const (
	// Tuples measures windows in event counts.
	Tuples Unit = iota
	// Time measures windows in event-time duration, epoch-aligned.
	Time
	// Waves measures windows in whole waves. Wave windows close when an
	// event from a later wave arrives (wave progression acts as
	// punctuation) or on timeout. The paper lists wave-based windows as
	// designed but not yet supported; here they are a working extension.
	Waves
)

// String returns the unit name.
func (u Unit) String() string {
	switch u {
	case Tuples:
		return "tuples"
	case Time:
		return "time"
	case Waves:
		return "waves"
	default:
		return fmt.Sprintf("Unit(%d)", int(u))
	}
}

// Spec holds the five window parameters.
type Spec struct {
	// Unit selects tuple-, time- or wave-based windows.
	Unit Unit
	// Size is the window extent: a count for Tuples/Waves windows.
	Size int
	// Step is the window slide: a count for Tuples/Waves windows.
	Step int
	// SizeDur and StepDur are the extent and slide for Time windows.
	SizeDur time.Duration
	StepDur time.Duration
	// Timeout is the window_formation_timeout: how long (in clock time,
	// measured from the moment the pending window could first have closed,
	// or from the first pending event for tuple windows) before a partial
	// window is forced out. Zero disables timeouts.
	Timeout time.Duration
	// GroupBy lists record fields whose values partition the stream; each
	// group maintains independent window state. Empty means one group.
	GroupBy []string
	// DeleteUsed, when set, removes (expires) every event of a produced
	// window from the queue so it is used at most once.
	DeleteUsed bool
}

// Passthrough is the default input semantics when no window is declared:
// each event forms its own single-event window and is consumed.
func Passthrough() Spec {
	return Spec{Unit: Tuples, Size: 1, Step: 1, DeleteUsed: true}
}

// The hybrid window/consumption modes of Adaikkalavan & Chakravarthy that
// the paper cites map onto size/step/delete_used_events as follows.

// Unrestricted keeps every event eligible for every window: a sliding
// count window of the given size advancing one event at a time.
func Unrestricted(size int) Spec {
	return Spec{Unit: Tuples, Size: size, Step: 1}
}

// Recent emits, for every new event, a window of the most recent size
// events — identical extent to Unrestricted but named for the consumption
// mode where only the latest bundle matters.
func Recent(size int) Spec {
	return Spec{Unit: Tuples, Size: size, Step: 1, DeleteUsed: false}
}

// Continuous consumes each event in exactly one window: tumbling bundles
// of the given size with delete_used_events set.
func Continuous(size int) Spec {
	return Spec{Unit: Tuples, Size: size, Step: size, DeleteUsed: true}
}

// IsPassthrough reports whether s is the default single-event window.
func (s Spec) IsPassthrough() bool {
	return s.Unit == Tuples && s.Size == 1 && s.Step == 1 && s.DeleteUsed &&
		len(s.GroupBy) == 0 && s.Timeout == 0
}

// Validate reports whether the spec is well-formed.
func (s Spec) Validate() error {
	switch s.Unit {
	case Tuples, Waves:
		if s.Size <= 0 {
			return fmt.Errorf("window: %v size must be positive, got %d", s.Unit, s.Size)
		}
		if s.Step <= 0 {
			return fmt.Errorf("window: %v step must be positive, got %d", s.Unit, s.Step)
		}
	case Time:
		if s.SizeDur <= 0 {
			return fmt.Errorf("window: time size must be positive, got %v", s.SizeDur)
		}
		if s.StepDur <= 0 {
			return fmt.Errorf("window: time step must be positive, got %v", s.StepDur)
		}
	default:
		return fmt.Errorf("window: unknown unit %v", s.Unit)
	}
	if s.Timeout < 0 {
		return fmt.Errorf("window: negative timeout %v", s.Timeout)
	}
	return nil
}

// String renders the spec in the paper's notation, e.g.
// "{Size: 4 tokens, Step: 1 token, Group-by: carID}".
func (s Spec) String() string {
	var size, step string
	switch s.Unit {
	case Time:
		size, step = s.SizeDur.String(), s.StepDur.String()
	default:
		size, step = fmt.Sprintf("%d %v", s.Size, s.Unit), fmt.Sprintf("%d %v", s.Step, s.Unit)
	}
	out := fmt.Sprintf("{Size: %s, Step: %s", size, step)
	if len(s.GroupBy) > 0 {
		out += ", Group-by: "
		for i, g := range s.GroupBy {
			if i > 0 {
				out += ", "
			}
			out += g
		}
	}
	if s.Timeout > 0 {
		out += fmt.Sprintf(", Timeout: %v", s.Timeout)
	}
	if s.DeleteUsed {
		out += ", delete_used_events"
	}
	return out + "}"
}

// Window is a produced logical bundle of events.
type Window struct {
	// Group is the group-by key ("" when ungrouped).
	Group string
	// Events are the member events in timestamp order.
	Events []*event.Event
	// Start and End bound time windows ([Start, End)); zero otherwise.
	Start, End time.Time
	// Partial marks windows forced out by the formation timeout before
	// they closed naturally.
	Partial bool
	// Time is the representative event time: the newest member event's
	// timestamp (or End for empty timed windows). Response time of results
	// derived from this window is measured against it.
	Time time.Time
	// Wave is the newest member event's wave tag.
	Wave event.WaveTag
}

// Len returns the number of member events.
func (w *Window) Len() int { return len(w.Events) }

// Tokens returns the member tokens in window order.
func (w *Window) Tokens() []value.Value {
	out := make([]value.Value, len(w.Events))
	for i, e := range w.Events {
		out[i] = e.Token
	}
	return out
}

// Record reads member i's token as a record, in place; a non-record token
// reads as the empty record. Records are immutable values, so the result
// may outlive the firing that borrows the window.
func (w *Window) Record(i int) value.Record {
	r, _ := w.Events[i].Token.(value.Record)
	return r
}

func (w *Window) finalize() {
	if n := len(w.Events); n > 0 {
		last := w.Events[n-1]
		w.Time = last.Time
		w.Wave = last.Wave
	} else {
		w.Time = w.End
	}
}

// group holds per-group window state.
type group struct {
	key string
	// events is the retained queue in event order.
	events []*event.Event
	// base is the absolute index of events[0] since the group started
	// (tuple windows).
	base int64
	// nextStart is the absolute index (tuple) of the next window's first
	// event.
	nextStart int64
	// winStart is the start time of the next unproduced time window;
	// zero until initialized. For wave windows it tracks the first pending
	// wave ordinal.
	winStart time.Time
	timeInit bool
	// deadline is the pending formation-timeout deadline (zero if none);
	// hpos is the group's position in the operator's deadline heap plus
	// one, 0 while it has no deadline.
	deadline time.Time
	hpos     int
	// waves tracks distinct wave roots seen, in order (wave windows).
	waves []event.WaveTag
	// firstPendingAt is the clock time the oldest pending tuple event was
	// inserted (for tuple timeouts).
	firstPendingAt time.Time
	hasPending     bool
}

// Operator evaluates window semantics over one input queue.
type Operator struct {
	spec    Spec
	groups  map[string]*group
	expired []*event.Event
	// drained is how much of expired's backing the last DrainExpired handed
	// out; the next Put or OnTime clears it before reusing the backing.
	drained int
	// pending counts retained (unexpired) events across all groups,
	// maintained incrementally at the insert/expire sites so Pending is
	// O(1) — consumers poll it per drain, and a scan over every group-by
	// partition there turns ingestion quadratic in the partition count.
	pending int
	// deadlines orders the groups with a pending formation timeout, so
	// NextDeadline is O(1) instead of a scan over every group-by partition.
	deadlines deadlineHeap
	// key is the buffer each event's group-by key is rendered into.
	// Indexing groups with string(key) does not allocate, so a key string
	// is built only when its group is created.
	key []byte
	// out is the slice Put and OnTime return, reused by the next call.
	out []*Window
	// shells, when set, is the free list produced windows draw their shell
	// and Events backing from; the receiver that owns the operator refills
	// it at its recycle point. Without one every window is allocated.
	shells *ring.MPMC[*Window]
}

// deadlineHeap is a min-heap of groups ordered by formation-timeout
// deadline, indexed by group: each group records its own position (hpos),
// so a changed deadline is fixed in place and a group holds at most one
// entry — no interface boxing, no stale entries to skip. It reads and
// writes nothing of a group but deadline and hpos.
type deadlineHeap []*group

// set changes g's deadline to at, a zero time clearing it. An unchanged
// deadline costs one comparison.
func (h *deadlineHeap) set(g *group, at time.Time) {
	if at.Equal(g.deadline) {
		return
	}
	g.deadline = at
	switch {
	case at.IsZero():
		h.remove(g.hpos - 1)
	case g.hpos == 0:
		*h = append(*h, g)
		g.hpos = len(*h)
		h.up(len(*h) - 1)
	default:
		if i := g.hpos - 1; !h.down(i) {
			h.up(i)
		}
	}
}

func (h deadlineHeap) less(i, j int) bool { return h[i].deadline.Before(h[j].deadline) }

func (h deadlineHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].hpos, h[j].hpos = i+1, j+1
}

func (h deadlineHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

// down sifts entry i towards the leaves and reports whether it moved.
func (h deadlineHeap) down(i0 int) bool {
	i, n := i0, len(h)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

func (h *deadlineHeap) remove(i int) {
	last := len(*h) - 1
	if i != last {
		h.swap(i, last)
	}
	g := (*h)[last]
	(*h)[last] = nil
	*h = (*h)[:last]
	g.hpos = 0
	if i != last && !h.down(i) {
		h.up(i)
	}
}

// New returns an operator for the given spec. It panics if the spec is
// invalid; validate specs at workflow-construction time with Spec.Validate.
func New(spec Spec) *Operator {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return &Operator{spec: spec, groups: make(map[string]*group)}
}

// Spec returns the operator's window specification.
func (o *Operator) Spec() Spec { return o.spec }

// Put inserts one event at clock time now and returns any windows that
// became ready, in production order. The returned slice belongs to the
// operator and is valid until the next Put or OnTime: callers that keep
// the windows copy the pointers out. Insertion pins ev: a windowed event
// outlives its edge (it may appear in several sliding windows), so it
// leaves the recycling protocol here.
func (o *Operator) Put(ev *event.Event, now time.Time) []*Window {
	g := o.group(ev)
	out := o.begin()
	switch o.spec.Unit {
	case Tuples:
		out = o.putTuple(g, ev, now, out)
	case Time:
		out = o.putTime(g, ev, now, out)
	default:
		out = o.putWave(g, ev, now, out)
	}
	o.out = out
	return out
}

// OnTime advances the operator to clock time now, forcing out any windows
// whose formation timeout has passed. The returned slice is reused like
// Put's.
func (o *Operator) OnTime(now time.Time) []*Window {
	out := o.begin()
	for len(o.deadlines) > 0 && !o.deadlines[0].deadline.After(now) {
		// Force everything due in the soonest group before the next one;
		// forceWindow clears the deadline whenever it produces nothing.
		g := o.deadlines[0]
		for !g.deadline.IsZero() && !g.deadline.After(now) {
			w := o.forceWindow(g, now)
			if w == nil {
				break
			}
			out = append(out, w)
		}
	}
	o.out = out
	return out
}

// begin starts a Put or OnTime call: it empties the returned-window slice
// and the part of the expired queue's backing that DrainExpired handed out,
// so neither keeps pointers the caller has finished with.
func (o *Operator) begin() []*Window {
	clear(o.out)
	if o.drained > 0 {
		clear(o.expired[:o.drained])
		o.drained = 0
	}
	return o.out[:0]
}

// NextDeadline reports the earliest pending formation-timeout deadline
// across all groups.
func (o *Operator) NextDeadline() (time.Time, bool) {
	if len(o.deadlines) == 0 {
		return time.Time{}, false
	}
	return o.deadlines[0].deadline, true
}

// DrainExpired returns and clears the expired-items queue. The returned
// slice is valid until the next Put or OnTime, which reuse its backing.
func (o *Operator) DrainExpired() []*event.Event {
	out := o.expired
	o.expired = o.expired[:0]
	o.drained = max(o.drained, len(out))
	return out
}

// Pending returns the total number of retained (unexpired) events across
// all groups.
func (o *Operator) Pending() int { return o.pending }

// recountPending recomputes the pending count from scratch; it exists only
// to cross-check the incremental counter in tests.
func (o *Operator) recountPending() int {
	n := 0
	for _, g := range o.groups {
		n += len(g.events)
	}
	return n
}

// Groups returns the number of group-by partitions seen so far.
func (o *Operator) Groups() int { return len(o.groups) }

// group returns ev's group-by partition, creating it on first sight.
func (o *Operator) group(ev *event.Event) *group {
	o.key = appendGroupKey(o.key[:0], o.spec.GroupBy, ev)
	if g, ok := o.groups[string(o.key)]; ok {
		return g
	}
	g := &group{key: string(o.key)}
	o.groups[g.key] = g
	return g
}

// appendGroupKey appends the group-by key of ev to dst: the record's Key
// over fields, or — when grouping is requested on a non-record token — the
// token's rendered value. Ungrouped operators use the empty key.
func appendGroupKey(dst []byte, fields []string, ev *event.Event) []byte {
	if len(fields) == 0 {
		return dst
	}
	if r, ok := ev.Token.(value.Record); ok {
		return r.AppendKey(dst, fields...)
	}
	return value.Append(dst, ev.Token)
}

// newWindow returns an empty window of g: a recycled shell, keeping its
// Events backing, when the free list has one, else a fresh allocation.
func (o *Operator) newWindow(g *group) *Window {
	if o.shells != nil {
		if w, ok := o.shells.TryPop(); ok {
			*w = Window{Group: g.key, Events: w.Events[:0]}
			return w
		}
	}
	return &Window{Group: g.key}
}

// compact drops the first n elements of s in place, clearing the vacated
// tail so the backing array keeps no stale references.
func compact[T any](s []T, n int) []T {
	m := copy(s, s[n:])
	clear(s[m:])
	return s[:m]
}

// insert appends ev keeping the per-group queue ordered by event Compare.
// Streams are normally in order, so the common case is a plain append.
// Insertion pins the event: the operator may hold it across many windows
// (and hand it to several), so it leaves the single-owner recycling
// protocol (see event.Pool).
func (o *Operator) insert(g *group, ev *event.Event) {
	ev.Pin()
	o.pending++
	n := len(g.events)
	if n == 0 || g.events[n-1].Compare(ev) <= 0 {
		g.events = append(g.events, ev)
		return
	}
	i := sort.Search(n, func(i int) bool { return g.events[i].Compare(ev) > 0 })
	g.events = append(g.events, nil)
	copy(g.events[i+1:], g.events[i:])
	g.events[i] = ev
}

// --- tuple windows ---

func (o *Operator) putTuple(g *group, ev *event.Event, now time.Time, out []*Window) []*Window {
	o.insert(g, ev)
	if !g.hasPending {
		g.hasPending = true
		g.firstPendingAt = now
		if o.spec.Timeout > 0 {
			o.deadlines.set(g, now.Add(o.spec.Timeout))
		}
	}
	for {
		total := g.base + int64(len(g.events))
		if total < g.nextStart+int64(o.spec.Size) {
			break
		}
		out = append(out, o.produceTuple(g, g.nextStart+int64(o.spec.Size), false, now))
	}
	return out
}

// produceTuple emits the window [g.nextStart, end) (absolute indices).
// Partial windows pass end < nextStart+Size.
func (o *Operator) produceTuple(g *group, end int64, partial bool, now time.Time) *Window {
	lo := int(g.nextStart - g.base)
	hi := int(end - g.base)
	if lo < 0 {
		lo = 0
	}
	if hi > len(g.events) {
		hi = len(g.events)
	}
	w := o.newWindow(g)
	w.Partial = partial
	w.Events = append(w.Events, g.events[lo:hi]...)
	w.finalize()

	// Advance and expire. With delete_used_events, the used events are
	// expired immediately; otherwise only events that precede every future
	// window expire.
	g.nextStart += int64(o.spec.Step)
	if o.spec.DeleteUsed && end > g.nextStart {
		g.nextStart = end
	}
	if partial && end > g.nextStart {
		// A timed-out partial window consumes what it emitted: the next
		// window starts no earlier than after the emitted events, so a
		// quiet stream does not re-emit them forever.
		g.nextStart = end
	}
	drop := int(g.nextStart - g.base)
	if drop > len(g.events) {
		drop = len(g.events)
	}
	if drop > 0 {
		o.expired = append(o.expired, g.events[:drop]...)
		g.events = compact(g.events, drop)
		g.base += int64(drop)
		o.pending -= drop
	}
	// Refresh the pending-timeout state.
	if len(g.events) == 0 || g.base+int64(len(g.events)) <= g.nextStart {
		g.hasPending = false
		o.deadlines.set(g, time.Time{})
	} else {
		g.firstPendingAt = now
		if o.spec.Timeout > 0 {
			o.deadlines.set(g, now.Add(o.spec.Timeout))
		}
	}
	return w
}

// --- time windows ---

// alignDown returns the largest multiple of step not after t (epoch-based).
func alignDown(t time.Time, step time.Duration) time.Time {
	ns := t.UnixNano()
	s := step.Nanoseconds()
	aligned := (ns / s) * s
	if ns < 0 && ns%s != 0 {
		aligned -= s
	}
	return time.Unix(0, aligned).UTC()
}

func (o *Operator) putTime(g *group, ev *event.Event, now time.Time, out []*Window) []*Window {
	o.insert(g, ev)
	if !g.timeInit {
		g.timeInit = true
		// Earliest window that can contain this event: the first aligned
		// start s with s+Size > ev.Time.
		s := alignDown(ev.Time.Add(-o.spec.SizeDur), o.spec.StepDur).Add(o.spec.StepDur)
		g.winStart = s
	}
	// Close every window whose end is at or before the new event's time:
	// with in-order streams no more members can arrive for them. Windows
	// that turn out empty advance the window state but are not emitted.
	for !ev.Time.Before(g.winStart.Add(o.spec.SizeDur)) {
		if w := o.produceTime(g, false); w != nil {
			out = append(out, w)
		}
		if !g.timeInit {
			// The queue drained; re-anchor the window sequence at the
			// new event instead of walking step-by-step across the gap.
			g.timeInit = true
			g.winStart = alignDown(ev.Time.Add(-o.spec.SizeDur), o.spec.StepDur).Add(o.spec.StepDur)
		}
	}
	if o.spec.Timeout > 0 {
		o.deadlines.set(g, maxTime(now, g.winStart.Add(o.spec.SizeDur)).Add(o.spec.Timeout))
	}
	return out
}

// produceTime closes the time window [winStart, winStart+Size) and returns
// it; an empty one is returned only when emitEmpty is set, and otherwise
// takes no window at all.
func (o *Operator) produceTime(g *group, emitEmpty bool) *Window {
	start, end := g.winStart, g.winStart.Add(o.spec.SizeDur)
	var w *Window
	for _, ev := range g.events {
		if !ev.Time.Before(start) && ev.Time.Before(end) {
			if w == nil {
				w = o.newWindow(g)
			}
			w.Events = append(w.Events, ev)
		}
	}
	if w == nil && emitEmpty {
		w = o.newWindow(g)
	}
	if w != nil {
		w.Start, w.End = start, end
		w.finalize()
	}

	g.winStart = g.winStart.Add(o.spec.StepDur)
	// Expire events that precede every future window — or, with
	// delete_used_events, every used event.
	cut := g.winStart
	if o.spec.DeleteUsed && end.After(cut) {
		cut = end
		if g.winStart.Before(end) {
			g.winStart = alignDown(end, o.spec.StepDur)
			if g.winStart.Before(end) {
				g.winStart = g.winStart.Add(o.spec.StepDur)
			}
		}
	}
	keep := g.events[:0]
	for _, ev := range g.events {
		if ev.Time.Before(cut) {
			o.expired = append(o.expired, ev)
			o.pending--
		} else {
			keep = append(keep, ev)
		}
	}
	clear(g.events[len(keep):])
	g.events = keep
	if len(g.events) == 0 {
		o.deadlines.set(g, time.Time{})
		g.timeInit = false
	}
	return w
}

// --- wave windows ---

func (o *Operator) putWave(g *group, ev *event.Event, now time.Time, out []*Window) []*Window {
	o.insert(g, ev)
	if !containsWave(g.waves, ev.Wave) {
		g.waves = append(g.waves, ev.Wave)
	}
	if o.spec.Timeout > 0 {
		o.deadlines.set(g, now.Add(o.spec.Timeout))
	}
	// A window of Size waves closes when events from at least Size+1
	// distinct waves have been seen: the newer wave punctuates the old.
	for len(g.waves) > o.spec.Size {
		out = append(out, o.produceWave(g, false))
	}
	return out
}

func containsWave(waves []event.WaveTag, w event.WaveTag) bool {
	for _, x := range waves {
		if x.SameWave(w) {
			return true
		}
	}
	return false
}

// produceWave emits the window holding the first Size pending waves.
func (o *Operator) produceWave(g *group, partial bool) *Window {
	n := o.spec.Size
	if n > len(g.waves) {
		n = len(g.waves)
	}
	member := g.waves[:n]
	w := o.newWindow(g)
	w.Partial = partial
	for _, ev := range g.events {
		if containsWave(member, ev.Wave) {
			w.Events = append(w.Events, ev)
		}
	}
	w.finalize()

	step := o.spec.Step
	if o.spec.DeleteUsed && step < n {
		step = n
	}
	if step > len(g.waves) {
		step = len(g.waves)
	}
	dropped := g.waves[:step]
	keep := g.events[:0]
	for _, ev := range g.events {
		if containsWave(dropped, ev.Wave) {
			o.expired = append(o.expired, ev)
			o.pending--
		} else {
			keep = append(keep, ev)
		}
	}
	clear(g.events[len(keep):])
	g.events = keep
	g.waves = compact(g.waves, step)
	if len(g.events) == 0 {
		o.deadlines.set(g, time.Time{})
	}
	return w
}

// forceWindow produces the pending window for g due to timeout expiry.
// It returns nil when nothing is pending.
func (o *Operator) forceWindow(g *group, now time.Time) *Window {
	switch o.spec.Unit {
	case Tuples:
		if !g.hasPending {
			o.deadlines.set(g, time.Time{})
			return nil
		}
		end := g.base + int64(len(g.events))
		if max := g.nextStart + int64(o.spec.Size); end > max {
			end = max
		}
		if end <= g.nextStart {
			o.deadlines.set(g, time.Time{})
			g.hasPending = false
			return nil
		}
		return o.produceTuple(g, end, end < g.nextStart+int64(o.spec.Size), now)
	case Time:
		if len(g.events) == 0 {
			o.deadlines.set(g, time.Time{})
			return nil
		}
		// The deadline is max(now, window end)+timeout, so by the time it
		// fires the window's period has fully elapsed: the window is
		// complete, just closed by a timer instead of a successor event.
		w := o.produceTime(g, true)
		if o.spec.Timeout > 0 && len(g.events) > 0 {
			o.deadlines.set(g, maxTime(now, g.winStart.Add(o.spec.SizeDur)).Add(o.spec.Timeout))
		}
		return w
	default:
		if len(g.waves) == 0 {
			o.deadlines.set(g, time.Time{})
			return nil
		}
		w := o.produceWave(g, len(g.waves) < o.spec.Size)
		if len(g.waves) == 0 {
			o.deadlines.set(g, time.Time{})
		} else {
			o.deadlines.set(g, now.Add(o.spec.Timeout))
		}
		return w
	}
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
