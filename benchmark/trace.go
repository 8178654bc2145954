package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// sampleEvery is the span sampling period: the benchmark's actors record a
// span for a wave when its source sequence number is a multiple of this.
const sampleEvery = 64

func sampled(seq int64) bool { return seq%sampleEvery == 0 }

// spanKind says what the gap before a span measures.
type spanKind int

const (
	// kindFirst: first benchmark-owned actor on the timed path; the gap
	// from the wave's due time to its start is the source lag.
	kindFirst spanKind = iota
	// kindHop: the gap from the parent's end is one local hop (transport
	// plus scheduling wait).
	kindHop
	// kindBridge: the parent ran on the other node; the gap is the bridge
	// transit (sender firing, wire, receive ring, receiver firing).
	kindBridge
	// kindClose: a timed window's consumer; the gap from the newest
	// member's due time is how long the window took to close.
	kindClose
)

// span is one firing of a benchmark-owned actor on behalf of one wave.
// Times are ns after the phase epoch (the due time of source item 0).
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Wave   int64  `json:"wave"`
	Branch int    `json:"branch,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanBuf collects one actor's spans. An actor never fires concurrently
// with itself under any director, so a buffer has a single writer.
type spanBuf struct {
	name, parent string
	kind         spanKind
	t            *tracer
	spans        []span
}

// span runs f, one firing's work on behalf of wave, and records it as a span
// when the wave is sampled. A nil buffer (spans off) only runs f.
func (b *spanBuf) span(wave int64, branch int, f func()) {
	if b == nil || !sampled(wave) {
		f()
		return
	}
	start := time.Now()
	f()
	b.spans = append(b.spans, span{
		Name: b.name, Parent: b.parent, Wave: wave, Branch: branch,
		Start: int64(start.Sub(b.t.epoch)), End: int64(time.Since(b.t.epoch)),
	})
}

// tracer hands each benchmark-owned actor its span buffer. A nil tracer
// means spans are off and hands out nil buffers. epoch is set once the
// phase's schedule is fixed, before the first firing.
type tracer struct {
	epoch time.Time
	bufs  []*spanBuf
}

func (t *tracer) actor(name, parent string, kind spanKind) *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{name: name, parent: parent, kind: kind, t: t}
	t.bufs = append(t.bufs, b)
	return b
}

// spanStats are the per-layer numbers derived from one traced paced phase.
type spanStats struct {
	sourceLag, hopTransit, self, bridge, closeLag []int64
}

// analyze derives the gaps each span kind measures. due maps a wave's
// source sequence number to its due time in ns after the epoch.
func (t *tracer) analyze(due func(seq int64) int64) spanStats {
	type key struct {
		name   string
		wave   int64
		branch int
	}
	ends := map[key]int64{}
	for _, b := range t.bufs {
		for _, s := range b.spans {
			ends[key{s.Name, s.Wave, s.Branch}] = s.End
		}
	}
	var st spanStats
	for _, b := range t.bufs {
		for _, s := range b.spans {
			st.self = append(st.self, s.End-s.Start)
			switch b.kind {
			case kindFirst:
				st.sourceLag = append(st.sourceLag, s.Start-due(s.Wave))
			case kindClose:
				st.closeLag = append(st.closeLag, s.Start-due(s.Wave))
			case kindHop, kindBridge:
				// A fan-out parent fired once for the wave (branch 0); a
				// branch parent fired once per branch.
				pe, ok := ends[key{s.Parent, s.Wave, s.Branch}]
				if !ok {
					pe, ok = ends[key{s.Parent, s.Wave, 0}]
				}
				if !ok {
					continue
				}
				if b.kind == kindBridge {
					st.bridge = append(st.bridge, s.Start-pe)
				} else {
					st.hopTransit = append(st.hopTransit, s.Start-pe)
				}
			}
		}
	}
	for _, xs := range [][]int64{st.sourceLag, st.hopTransit, st.self, st.bridge, st.closeLag} {
		slices.Sort(xs)
	}
	return st
}

// traceFile is what -trace leaves behind for one workload.
type traceFile struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	PacedRate   float64 `json:"paced_rate_eps"`
	SampleEvery int     `json:"sample_every"`
	EpochUnixNs int64   `json:"epoch_unix_ns"`
	Spans       []span  `json:"spans"`
}

// write stores the spans kept in memory during the run.
func (t *tracer) write(dir, workload string, seed int64, rate float64) (string, error) {
	tf := traceFile{Workload: workload, Seed: seed, PacedRate: rate,
		SampleEvery: sampleEvery, EpochUnixNs: t.epoch.UnixNano()}
	for _, b := range t.bufs {
		tf.Spans = append(tf.Spans, b.spans...)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	raw, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}
