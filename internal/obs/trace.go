package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/event"
	"repro/internal/obs/prov"
)

// traceCapacity is how many hops the lineage store holds when
// Options.Provenance is off.
const traceCapacity = 4096

// traceRetention is the lineage store's shape for tracing without
// provenance: capacity hops in total, newest kept, each stripe evicting a
// quarter of its share at a time.
func traceRetention(capacity int) prov.Options {
	per := (capacity + prov.Stripes - 1) / prov.Stripes
	seg := max(per/4, 1)
	return prov.Options{SegmentHops: seg, MaxSegments: prov.Stripes * ((per + seg - 1) / seg)}
}

// FormatWaveID renders a wave identifier.
func FormatWaveID(root int64, rootSeq uint64) string {
	return fmt.Sprintf("t%d-%d", root, rootSeq)
}

// ParseWaveID parses a wave identifier. It accepts the canonical
// "t<root>-<rootseq>" form, a bare "t<root>" (hasSeq false: the caller
// matches every wave with that root), and full wave-tag strings as rendered
// by event.WaveTag.String ("t<root>.<p1>.<p2>*" — path and last-of-wave
// marker are ignored, since lineage is per wave, not per event).
func ParseWaveID(s string) (root int64, rootSeq uint64, hasSeq bool, err error) {
	if !strings.HasPrefix(s, "t") {
		return 0, 0, false, fmt.Errorf("obs: wave id %q: want t<root>[-<seq>]", s)
	}
	s = strings.TrimPrefix(s, "t")
	s = strings.TrimSuffix(s, "*")
	if i := strings.IndexByte(s, '.'); i >= 0 {
		s = s[:i] // drop the wave-tag path
	}
	// A leading '-' belongs to a negative root, not the root/seq separator.
	body, neg := s, false
	if strings.HasPrefix(body, "-") {
		body, neg = body[1:], true
	}
	rootStr, seqStr, found := strings.Cut(body, "-")
	if neg {
		rootStr = "-" + rootStr
	}
	root, err = strconv.ParseInt(rootStr, 10, 64)
	if err != nil {
		return 0, 0, false, fmt.Errorf("obs: wave id root %q: %v", rootStr, err)
	}
	if !found {
		return root, 0, false, nil
	}
	rootSeq, err = strconv.ParseUint(seqStr, 10, 64)
	if err != nil {
		return 0, 0, false, fmt.Errorf("obs: wave id seq %q: %v", seqStr, err)
	}
	return root, rootSeq, true, nil
}

// Tracer makes the per-wave tracing decision. Sampling is deterministic per
// wave — a wave is either fully traced or not at all, so a sampled output
// event's lineage is always complete. A nil or zero-rate Tracer is disabled:
// Sampled reports false without touching any shared state, so the engine hot
// path records nothing.
type Tracer struct {
	// mod is the sampling modulus: 0 disables tracing, 1 samples every
	// wave, n samples waves whose hash ≡ 0 (mod n) (≈ rate 1/n).
	mod uint64

	// forced is the cross-bridge trace-propagation table: waves the
	// upstream node sampled that this node must trace regardless of its own
	// sampling decision. It is a fixed open-addressed set of wave hashes
	// probed lock-free on the hot path; forcedN gates the probe so a node
	// that never receives trace context pays a single atomic load.
	// Collisions overwrite (best effort): a lost entry only means a wave's
	// downstream hops go unrecorded, never a wrong lineage.
	forcedN atomic.Uint64
	forced  [forcedSlots]atomic.Uint64
}

// forcedSlots sizes the forced-wave table; a power of two so the home slot
// is a mask. 2048 in-flight cross-bridge traced waves is far beyond any
// real sampling rate's working set.
const forcedSlots = 2048

// forcedProbes is the linear-probe window before Force overwrites the home
// slot.
const forcedProbes = 4

// NewTracer builds a tracer sampling approximately the given fraction of
// waves (rate <= 0 disables tracing; rate >= 1 traces every wave).
func NewTracer(rate float64) *Tracer {
	t := &Tracer{}
	switch {
	case rate <= 0:
		t.mod = 0
	case rate >= 1:
		t.mod = 1
	default:
		t.mod = uint64(1/rate + 0.5)
	}
	return t
}

// Enabled reports whether any wave can be sampled at all. A tracer with
// local sampling off still samples once a bridge forces waves into it.
func (t *Tracer) Enabled() bool {
	return t != nil && (t.mod != 0 || t.forcedN.Load() != 0)
}

// Sampled reports whether the given wave is traced: either the local
// sampling decision (deterministic in the wave identity, so every hop of
// a sampled wave is recorded) or an upstream node's decision propagated
// over a bridge (Force).
func (t *Tracer) Sampled(w event.WaveTag) bool {
	if t == nil {
		return false
	}
	if t.mod == 1 {
		return true
	}
	h := prov.WaveHash(w.Root, w.RootSeq)
	if t.mod != 0 && h%t.mod == 0 {
		return true
	}
	if t.forcedN.Load() == 0 {
		return false
	}
	key := h | 1
	slot := h & (forcedSlots - 1)
	for i := uint64(0); i < forcedProbes; i++ {
		v := t.forced[(slot+i)&(forcedSlots-1)].Load()
		if v == key {
			return true
		}
		if v == 0 {
			return false
		}
	}
	return false
}

// Force marks a wave as traced regardless of the local sampling decision —
// the receiving half of cross-bridge trace propagation. Best effort: under
// extreme collision pressure an entry may be overwritten and the wave's
// local hops go unrecorded; a false positive is impossible.
func (t *Tracer) Force(root int64, rootSeq uint64) {
	if t == nil {
		return
	}
	h := prov.WaveHash(root, rootSeq)
	key := h | 1
	slot := h & (forcedSlots - 1)
	for i := uint64(0); i < forcedProbes; i++ {
		s := &t.forced[(slot+i)&(forcedSlots-1)]
		v := s.Load()
		if v == key {
			return // already forced
		}
		if v == 0 {
			if s.CompareAndSwap(0, key) {
				t.forcedN.Add(1)
				return
			}
			if s.Load() == key {
				return
			}
		}
	}
	// Probe window full of other waves: overwrite the home slot.
	t.forced[slot].Store(key)
	t.forcedN.Add(1)
}
