package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	confluence "repro"
	"repro/internal/dist"
)

const (
	// sourceBatch caps one source firing. An uncapped source emits a whole
	// back-dated feed in one firing, which measures the receivers' overflow
	// path instead of the engine.
	sourceBatch = 64
	// limit is the response-time limit: a later result is a failed one.
	limit = time.Second
	// quantum is the QBS basic quantum every scheduled workload uses.
	quantum = 500 * time.Microsecond
	// backdate puts a drain feed's schedule in the past so all of it is due.
	backdate = time.Hour
	// pacedLead is how far ahead of "now" the paced schedule starts, so the
	// director is running before item 0 falls due.
	pacedLead = 100 * time.Millisecond
)

// rtWorkload is a workload driven in wall-clock time, in two phases on
// fresh directors: drain (closed loop: the feed is back-dated, the engine
// pulls as fast as it can) and paced (open loop: item i falls due on a
// schedule that does not slow when the engine does).
type rtWorkload struct {
	name string
	// drainEvents is the source events of one drain repetition, and
	// pacedRate the paced phase's source events per second. Run length
	// scales the first and the paced duration, never the rate.
	drainEvents int
	pacedRate   float64
	// pncwf marks the one workload hosted by the thread-based director.
	pncwf bool
	// hopPath, on the pipes, lists the layer operations one hop pays (see
	// layers.go); bare, on the observed pipe, is the same pipe unobserved.
	hopPath map[string]float64
	bare    *rtWorkload
	// payload makes source item i's token from the seeded generator.
	payload func(rng *rand.Rand, i int) confluence.Value
	// build wires a fresh workflow over feed. Its actors report to p.
	build func(p *probe, feed []confluence.FeedItem) (*instance, error)
}

// instance is one built, not yet run, copy of a workload.
type instance struct {
	// setup is Director.Setup; run is Director.Run.
	setup func() error
	run   func(ctx context.Context) error
	// sinks are the workload's result collectors; the first one's last
	// expected result ends the drain timing.
	sinks []*collector
	// check is the oracle: expected results, how many of them were missing,
	// duplicated or out of order, and what did not match.
	check func() (attempted, failed int64, err error)
	// reordered points at the count of results that arrived out of
	// sequence, where the workload's results have one.
	reordered *int64
	stats     *confluence.Stats
	// recv is the bridge's receiving half, partialFrac the share of timed
	// windows forced out partial; each is nil where the workload has none.
	recv        *dist.Receiver
	partialFrac func() float64
}

func (in *instance) reorderedCount() int64 {
	if in.reordered == nil {
		return 0
	}
	return *in.reordered
}

// probe is what a workload's own actors report into during one phase.
// epoch, the due time of source item 0, is set before the first firing.
type probe struct {
	paced bool
	epoch time.Time
	tr    *tracer
}

// collector is one sink's view of a phase. Each sink owns one: a sink never
// fires concurrently with itself.
type collector struct {
	p       *probe
	expect  int64
	n       int64
	doneAt  time.Time
	samples []sample
}

func (p *probe) sink(expect int64) *collector {
	c := &collector{p: p, expect: expect}
	if p.paced && expect > 0 {
		c.samples = make([]sample, 0, expect)
	}
	return c
}

// result records one result whose newest contributing event was due at due.
func (c *collector) result(due time.Time) {
	c.n++
	if c.p.paced {
		now := time.Now()
		c.samples = append(c.samples, sample{due: int64(due.Sub(c.p.epoch)), resp: int64(now.Sub(due))})
		if c.n == c.expect {
			c.doneAt = now
		}
		return
	}
	if c.n == c.expect {
		c.doneAt = time.Now()
	}
}

// phaseOut is what one phase measured.
type phaseOut struct {
	// setup is generation, build and Director.Setup; wall runs from Run's
	// start to the last timed result, runWall to Run's return.
	setup, wall, runWall, cpu time.Duration
	events                    int
	mallocs                   uint64
	attempted, failed         int64
	// cpuPerEvent is, for a paced phase, the median over due-time buckets of
	// the CPU the process used in the bucket per event due in it, in µs.
	cpuPerEvent float64
	samples     []sample
	due         []int64 // per source item, ns after epoch
	inst        *instance
	gcCycles    uint32
	gcPause     time.Duration
	heapPeak    uint64
}

// phaseSpec says what one phase feeds the engine and how.
type phaseSpec struct {
	seed  int64
	n     int
	paced bool
	tr    *tracer
	// gap, when set, replaces the rate schedule: item i falls due i*gap
	// after the epoch (the idle-cost measurement's two far-apart items).
	gap time.Duration
}

// phase generates the source items from the seed, builds a fresh instance,
// runs it to completion and checks it against its oracle.
func (w *rtWorkload) phase(ps phaseSpec) (*phaseOut, error) {
	n := ps.n
	out := &phaseOut{events: n}
	// Start set-up, and below the run, from a collected heap, so where GC
	// cycles land does not depend on what the previous phase left behind.
	// The collections are the benchmark's, so they are not timed.
	runtime.GC()
	t0 := time.Now()
	rng := rand.New(rand.NewSource(ps.seed))
	feed := make([]confluence.FeedItem, n)
	out.due = make([]int64, n)
	period := 1e9 / w.pacedRate
	for i := range feed {
		feed[i].Tok = w.payload(rng, i)
		// Arrivals are jittered within their slot: the rate is fixed, the
		// seed decides the spacing.
		out.due[i] = int64((float64(i) + rng.Float64()) * period)
		if ps.gap > 0 {
			out.due[i] = int64(i) * int64(ps.gap)
		}
	}
	p := &probe{paced: ps.paced, tr: ps.tr}
	inst, err := w.build(p, feed)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", w.name, err)
	}
	out.setup = time.Since(t0)
	runtime.GC()
	t0 = time.Now()
	p.epoch = time.Now().Add(-backdate)
	if ps.paced {
		p.epoch = time.Now().Add(pacedLead)
	}
	if ps.tr != nil {
		ps.tr.epoch = p.epoch
	}
	for i := range feed {
		feed[i].Time = p.epoch.Add(time.Duration(out.due[i]))
	}
	if err := inst.setup(); err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	out.setup += time.Since(t0)
	out.inst = inst

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	var meter *cpuMeter
	if ps.paced && ps.gap == 0 {
		meter = startCPUMeter(p.epoch)
	}
	cpu0 := cpuTime()
	start := time.Now()
	err = inst.run(ctx)
	out.cpu = cpuTime() - cpu0
	if meter != nil {
		out.cpuPerEvent = meter.stop(out.due)
	}
	if out.cpuPerEvent == 0 {
		out.cpuPerEvent = float64(out.cpu.Microseconds()) / float64(n)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: run: %w", w.name, err)
	}
	out.runWall = time.Since(start)
	runtime.ReadMemStats(&m1)
	out.mallocs = m1.Mallocs - m0.Mallocs
	out.gcCycles = m1.NumGC - m0.NumGC
	out.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	out.heapPeak = m1.HeapSys
	if done := inst.sinks[0].doneAt; !done.IsZero() {
		out.wall = done.Sub(start)
	}
	for _, c := range inst.sinks {
		out.samples = append(out.samples, c.samples...)
	}

	out.attempted, out.failed, err = inst.check()
	if err != nil {
		return out, fmt.Errorf("%s: oracle: %w", w.name, err)
	}
	for _, s := range out.samples {
		if s.resp > int64(limit) {
			out.failed++
		}
	}
	return out, nil
}

// cpuMeter reads the process's CPU time at every bucket boundary of a paced
// phase, so CPU per event can be reported as a median over buckets like the
// response percentiles: one stall or one neighbour's burst then moves one
// bucket, not the metric.
type cpuMeter struct {
	quit chan struct{}
	done chan struct{}
	at   []time.Duration // CPU time at epoch + i*bucketWidth
}

func startCPUMeter(epoch time.Time) *cpuMeter {
	m := &cpuMeter{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		for i := 0; ; i++ {
			select {
			case <-m.quit:
				return
			case <-time.After(time.Until(epoch.Add(time.Duration(i) * bucketWidth))):
				m.at = append(m.at, cpuTime())
			}
		}
	}()
	return m
}

// stop ends the readings and returns the median µs of CPU per event due,
// over the full buckets after the first.
func (m *cpuMeter) stop(due []int64) float64 {
	close(m.quit)
	<-m.done
	perBucket := make([]int, len(m.at))
	for _, d := range due {
		if b := int(d / int64(bucketWidth)); b < len(perBucket) {
			perBucket[b]++
		}
	}
	var us []float64
	for b := 1; b+1 < len(m.at); b++ {
		if perBucket[b]*2 < perBucket[1] {
			continue // the schedule's last, partial bucket
		}
		us = append(us, float64((m.at[b+1]-m.at[b]).Microseconds())/float64(perBucket[b]))
	}
	return median(us) // 0 when the phase is shorter than three buckets
}
