// Package ringsafe is the seeded fixture for the ringsafe analyzer: a
// self-contained SPSC look-alike, one field with two unguarded producers,
// a //confvet:single-writer-guarded twin that must stay silent, and the
// two TryPush-discard shapes.
package ringsafe

// SPSC mimics the single-producer ring (detection is by constructor
// name, matching ring.NewSPSC).
type SPSC struct{ buf []int }

func NewSPSC(capacity int) *SPSC { return &SPSC{buf: make([]int, 0, capacity)} }

func (q *SPSC) TryPush(v int) bool { return len(q.buf) < cap(q.buf) }
func (q *SPSC) TryPop() (int, bool) {
	if len(q.buf) == 0 {
		return 0, false
	}
	return q.buf[0], true
}

func spill(v int) {}

// --- seeded violation: SPSC field with two statically distinct producers ---

type holder struct{ q *SPSC }

func newHolder() *holder {
	h := &holder{}
	h.q = NewSPSC(8) // want: unguarded SPSC with >1 producer
	return h
}

func (h *holder) put(v int) {
	if !h.q.TryPush(v) {
		spill(v)
	}
}

func (h *holder) putBatch(vs []int) {
	for _, v := range vs {
		if !h.q.TryPush(v) {
			spill(v)
		}
	}
}

// --- seeded violations: discarded TryPush results ---

type dropper struct{ q *SPSC }

// newDropper is guarded so only the discard diagnostics fire below.
//
//confvet:single-writer
func newDropper() *dropper {
	d := &dropper{}
	d.q = NewSPSC(4)
	return d
}

func (d *dropper) dropStmt(v int) {
	d.q.TryPush(v) // want: TryPush result discarded
}

func (d *dropper) dropBlank(v int) {
	_ = d.q.TryPush(v) // want: TryPush result discarded
}

// --- clean shapes ---

// guarded mirrors window.Inbox.Init: two producers, but the construction
// site carries the single-writer proof.
type guarded struct{ q *SPSC }

// newGuarded routes the field to SPSC under a caller-proven
// single-producer regime.
//
//confvet:single-writer
func newGuarded() *guarded {
	g := &guarded{}
	g.q = NewSPSC(8)
	return g
}

func (g *guarded) put(v int) {
	if !g.q.TryPush(v) {
		spill(v)
	}
}

func (g *guarded) putBatch(vs []int) {
	for _, v := range vs {
		if !g.q.TryPush(v) {
			spill(v)
		}
	}
}

// single has exactly one producer: no guard needed.
type single struct{ q *SPSC }

func newSingle() *single {
	s := &single{}
	s.q = NewSPSC(8)
	return s
}

func (s *single) put(v int) {
	for !s.q.TryPush(v) {
		spill(v)
	}
}
