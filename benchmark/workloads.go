package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"time"

	confluence "repro"
	"repro/internal/actors"
	"repro/internal/dist"
)

// rtWorkloads are the six wall-clock workloads, in BENCHMARK.json order.
// lr_virtual, the seventh, runs in virtual time and has its own driver.
//
// Sizes are one drain repetition at the default run length; rates are the
// paced phase's, about a quarter of what the seed engine drains.
var rtWorkloads = func() []*rtWorkload {
	scwf := confluence.RunOptions{Scheduler: "QBS", Quantum: quantum}
	bare := &rtWorkload{name: "pipe_scwf", drainEvents: 200_000, pacedRate: 60_000, payload: seqPayload,
		hopPath: scwfHopPath, build: pipeBuilder(scwf, true, false)}
	return []*rtWorkload{
		{name: "pipe_pncwf", drainEvents: 500_000, pacedRate: 200_000, payload: seqPayload, pncwf: true,
			hopPath: pncwfHopPath, build: pipeBuilder(confluence.RunOptions{Scheduler: "PNCWF"}, false, false)},
		bare,
		{name: "pipe_scwf_obs", drainEvents: 150_000, pacedRate: 60_000, payload: seqPayload,
			hopPath: scwfHopPath, bare: bare, build: pipeBuilder(scwf, true, true)},
		{name: "window_scwf", drainEvents: 150_000, pacedRate: 50_000, payload: keyedPayload, build: buildWindow},
		{name: "fanin_par2", drainEvents: 15_000, pacedRate: 5_000, payload: seqPayload, build: buildFanin},
		{name: "bridge_tcp", drainEvents: 120_000, pacedRate: 40_000, payload: seqPayload, build: buildBridge},
	}
}()

// pipeEdges is the number of edges an event crosses in a pipe workload.
const pipeEdges = 4

// seqPayload makes item i carry its own sequence number, which is also its
// wave id in the trace.
func seqPayload(_ *rand.Rand, i int) confluence.Value { return confluence.Int(i) }

func seqOf(v confluence.Value) int64 { return int64(v.(confluence.IntValue)) }

// stage returns the per-token function of a benchmark-owned Map actor: the
// identity, which under trace also records a span for every sampled wave.
func (p *probe) stage(name, parent string, kind spanKind) func(confluence.Value) confluence.Value {
	if p.tr == nil {
		return func(v confluence.Value) confluence.Value { return v }
	}
	buf := p.tr.actor(name, parent, kind)
	return func(v confluence.Value) confluence.Value {
		buf.span(seqOf(v), 0, func() {})
		return v
	}
}

// seqSink checks that the tokens 0 … n-1 each arrive exactly once, and
// counts those that arrive out of order.
type seqSink struct {
	c          *collector
	seen       []bool
	next       int64
	wrong      int64 // duplicates and values outside 0 … n-1
	misordered int64
	// ordered makes an out-of-order arrival a failed operation.
	ordered bool
}

// newSeqSink builds the sink actor of a pipeline that must deliver n
// sequence numbers; parent names the actor feeding it.
func (p *probe) newSeqSink(n int, parent string, ordered bool) (*seqSink, *actors.Sink) {
	s := &seqSink{c: p.sink(int64(n)), seen: make([]bool, n), ordered: ordered}
	buf := p.tr.actor("sink", parent, kindHop)
	sink := confluence.NewSink("sink", confluence.Passthrough(), func(_ *confluence.FireContext, w *confluence.Window) error {
		for _, ev := range w.Events {
			seq := seqOf(ev.Token)
			if seq != s.next {
				s.misordered++
			}
			s.next = seq + 1
			if seq < 0 || seq >= int64(len(s.seen)) || s.seen[seq] {
				s.wrong++
			} else {
				s.seen[seq] = true
			}
			buf.span(seq, 0, func() { s.c.result(ev.Time) })
		}
		return nil
	})
	return s, sink
}

func (s *seqSink) check() (attempted, failed int64, err error) {
	attempted = s.c.expect
	lost := s.wrong
	for _, ok := range s.seen {
		if !ok {
			lost++
		}
	}
	failed = lost
	if s.ordered {
		failed += s.misordered
	}
	if failed > 0 {
		err = fmt.Errorf("sink saw %d of %d results: %d missing or duplicated, %d out of order",
			s.c.n, attempted, lost, s.misordered)
	}
	return attempted, failed, err
}

// directed wraps one workflow and its director as an instance's setup/run.
func directed(wf *confluence.Workflow, opts confluence.RunOptions) (setup func() error, run func(context.Context) error, err error) {
	dir, err := confluence.NewDirector(opts)
	if err != nil {
		return nil, nil, err
	}
	setup = func() error {
		if err := dir.Setup(wf); err != nil {
			return err
		}
		opts.Observer.Watch(wf.Name(), wf, opts.Stats, dir)
		return nil
	}
	return setup, dir.Run, nil
}

// pipeBuilder builds src → 3 identity Map stages → sink (4 edges) under the
// given director. With observed set every engine hook is live: a sampling
// tracer with provenance and latency attribution, and a QoS monitor with
// one SLO on the sink.
//
// ordered is false under PNCWF only. Its receivers can hand a full ring's
// worth of events over after newer ones that overflowed (the consumer finds
// the ring dry, is descheduled while the producer fills and overflows it,
// then serves the overflow first); a back-dated feed hits that in about one
// run in three on this box. The oracle still demands every value exactly
// once, and the reordered count is reported.
func pipeBuilder(opts confluence.RunOptions, ordered, observed bool) func(*probe, []confluence.FeedItem) (*instance, error) {
	return func(p *probe, feed []confluence.FeedItem) (*instance, error) {
		wf := confluence.NewWorkflow("pipe")
		src := confluence.NewSource("src", confluence.NewSliceFeed(feed), sourceBatch)
		m1 := confluence.NewMap("m1", p.stage("m1", "", kindFirst))
		m2 := confluence.NewMap("m2", p.stage("m2", "m1", kindHop))
		m3 := confluence.NewMap("m3", p.stage("m3", "m2", kindHop))
		ss, sink := p.newSeqSink(len(feed), "m3", ordered)
		wf.MustAdd(src, m1, m2, m3, sink)
		wf.MustConnect(src.Out(), m1.In())
		wf.MustConnect(m1.Out(), m2.In())
		wf.MustConnect(m2.Out(), m3.In())
		wf.MustConnect(m3.Out(), sink.In())

		opts := opts
		opts.Stats = confluence.NewStats()
		if observed {
			opts.Observer = confluence.NewObserver(confluence.ObserveOptions{
				SampleRate: 0.25, Provenance: true, Latency: true})
			mon := confluence.NewQoSMonitor(opts.Observer, confluence.QoSOptions{
				Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
			// The threshold is above the drain feed's back-dating, so the
			// monitor does all its per-result work and never alerts.
			mon.AddSLO(confluence.SLO{Name: "sink-deadline", Sink: "sink",
				Target: 0.99, Threshold: 2 * backdate})
		}
		setup, run, err := directed(wf, opts)
		if err != nil {
			return nil, err
		}
		return &instance{setup: setup, run: run, sinks: []*collector{ss.c}, check: ss.check, reordered: &ss.misordered, stats: opts.Stats}, nil
	}
}

// Window workload shape.
const (
	windowKeys   = 1000
	slideSize    = 4
	tumbleWidth  = 100 * time.Millisecond
	tumbleExpiry = 50 * time.Millisecond
)

// keyedPayload makes item i a {k, v} record: k drawn from the seed over
// windowKeys keys, v the sequence number.
func keyedPayload(rng *rand.Rand, i int) confluence.Value {
	return confluence.NewRecord("k", confluence.Int(rng.Intn(windowKeys)), "v", confluence.Int(i))
}

// buildWindow fans the keyed source out to a sliding tuple window (size 4,
// step 1, group-by k) summing v, and a 100 ms tumbling time window
// (group-by k, 50 ms formation timeout) counting members, each into its own
// sink, under sequential SCWF.
func buildWindow(p *probe, feed []confluence.FeedItem) (*instance, error) {
	// Every event from a key's 4th on closes one sliding window.
	var wantSlides int64
	perKey := make([]int, windowKeys)
	for _, it := range feed {
		k := it.Tok.(confluence.Record).Int("k")
		if perKey[k]++; perKey[k] >= slideSize {
			wantSlides++
		}
	}

	slideC, tumbleC := p.sink(wantSlides), p.sink(-1)
	slideBuf := p.tr.actor("slide", "", kindFirst)
	tumbleBuf := p.tr.actor("tumble", "", kindClose)
	slideSinkBuf := p.tr.actor("slide_sink", "slide", kindHop)
	tumbleSinkBuf := p.tr.actor("tumble_sink", "tumble", kindHop)
	newest := func(w *confluence.Window) int64 {
		return w.Events[len(w.Events)-1].Token.(confluence.Record).Int("v")
	}
	slide := confluence.NewAggregate("slide", confluence.WindowSpec{
		Unit: confluence.Tuples, Size: slideSize, Step: 1, GroupBy: []string{"k"},
	}, func(w *confluence.Window) (out confluence.Value) {
		seq := newest(w)
		slideBuf.span(seq, 0, func() {
			var sum int64
			for _, ev := range w.Events {
				sum += ev.Token.(confluence.Record).Int("v")
			}
			// The newest member's sequence number rides along so the sink
			// can name the wave.
			out = confluence.NewRecord("sum", confluence.Int(int(sum)), "v", confluence.Int(int(seq)))
		})
		return out
	})
	var gotSum, gotMembers, offBoundary, partial, tumbles int64
	tumble := confluence.NewAggregate("tumble", confluence.WindowSpec{
		Unit: confluence.Time, SizeDur: tumbleWidth, StepDur: tumbleWidth,
		Timeout: tumbleExpiry, GroupBy: []string{"k"},
	}, func(w *confluence.Window) (out confluence.Value) {
		seq := newest(w)
		tumbleBuf.span(seq, 0, func() {
			tumbles++
			if w.End.UnixNano()%int64(tumbleWidth) != 0 {
				offBoundary++
			}
			if w.Partial {
				partial++
			}
			out = confluence.NewRecord("n", confluence.Int(len(w.Events)), "v", confluence.Int(int(seq)))
		})
		return out
	})
	sinkFn := func(c *collector, buf *spanBuf, field string, total *int64) func(*confluence.FireContext, *confluence.Window) error {
		return func(_ *confluence.FireContext, w *confluence.Window) error {
			for _, ev := range w.Events {
				r := ev.Token.(confluence.Record)
				*total += r.Int(field)
				buf.span(r.Int("v"), 0, func() { c.result(ev.Time) })
			}
			return nil
		}
	}
	slideSink := confluence.NewSink("slide_sink", confluence.Passthrough(), sinkFn(slideC, slideSinkBuf, "sum", &gotSum))
	tumbleSink := confluence.NewSink("tumble_sink", confluence.Passthrough(), sinkFn(tumbleC, tumbleSinkBuf, "n", &gotMembers))

	wf := confluence.NewWorkflow("window")
	src := confluence.NewSource("src", confluence.NewSliceFeed(feed), sourceBatch)
	wf.MustAdd(src, slide, tumble, slideSink, tumbleSink)
	wf.MustConnect(src.Out(), slide.In())
	wf.MustConnect(src.Out(), tumble.In())
	wf.MustConnect(slide.Out(), slideSink.In())
	wf.MustConnect(tumble.Out(), tumbleSink.In())

	opts := confluence.RunOptions{Scheduler: "QBS", Quantum: quantum, Stats: confluence.NewStats()}
	setup, run, err := directed(wf, opts)
	if err != nil {
		return nil, err
	}
	n := int64(len(feed))
	check := func() (attempted, failed int64, err error) {
		// Reference: per key, every run of 4 consecutive v's yields their sum.
		var wantSum int64
		last := make([][]int64, windowKeys)
		for _, it := range feed {
			r := it.Tok.(confluence.Record)
			k := r.Int("k")
			last[k] = append(last[k], r.Int("v"))
			if vs := last[k]; len(vs) >= slideSize {
				for _, v := range vs[len(vs)-slideSize:] {
					wantSum += v
				}
			}
		}
		attempted = wantSlides + tumbleC.n
		missing := wantSlides - slideC.n
		if missing < 0 {
			missing = -missing
		}
		failed = missing + offBoundary
		switch {
		case slideC.n != wantSlides || gotSum != wantSum:
			err = fmt.Errorf("sliding sink: %d results summing %d, want %d summing %d", slideC.n, gotSum, wantSlides, wantSum)
		case gotMembers != n:
			err = fmt.Errorf("tumbling sink: windows hold %d members, want %d", gotMembers, n)
		case offBoundary > 0:
			err = fmt.Errorf("tumbling sink: %d windows end off a %v boundary", offBoundary, tumbleWidth)
		}
		if err != nil && failed == 0 {
			failed = 1
		}
		return attempted, failed, err
	}
	inst := &instance{setup: setup, run: run, sinks: []*collector{slideC, tumbleC}, check: check, stats: opts.Stats}
	inst.partialFrac = func() float64 {
		if tumbles == 0 {
			return 0
		}
		return float64(partial) / float64(tumbles)
	}
	return inst, nil
}

// Fan-in workload shape.
const (
	faninBranches = 4
	// burnIters makes one branch firing cost about 20 µs on the seed box.
	burnIters = 20_000
)

// burnSink keeps the compiler from removing burn's loop.
var burnSink uint64

func burn(x uint64) {
	for j := 0; j < burnIters; j++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	if x == 0 {
		burnSink++
	}
}

// buildFanin fans the source out to 4 Map actors that each burn ~20 µs and
// tag the token with their branch, all merging into one actor and then the
// sink, on the parallel SCWF director with 2 workers.
func buildFanin(p *probe, feed []confluence.FeedItem) (*instance, error) {
	n := len(feed)
	wf := confluence.NewWorkflow("fanin")
	src := confluence.NewSource("src", confluence.NewSliceFeed(feed), sourceBatch)
	// Downstream of a branch the token is seq*4+branch.
	mergeBuf := p.tr.actor("merge", "work", kindHop)
	sinkBuf := p.tr.actor("sink", "merge", kindHop)
	merge := confluence.NewMap("merge", func(v confluence.Value) confluence.Value {
		tok := seqOf(v)
		mergeBuf.span(tok/faninBranches, int(tok%faninBranches), func() {})
		return v
	})
	c := p.sink(int64(n) * faninBranches)
	seen := make([]uint8, n)
	sink := confluence.NewSink("sink", confluence.Passthrough(), func(_ *confluence.FireContext, w *confluence.Window) error {
		for _, ev := range w.Events {
			tok := seqOf(ev.Token)
			seq := tok / faninBranches
			if seq >= 0 && seq < int64(n) {
				seen[seq]++
			}
			sinkBuf.span(seq, int(tok%faninBranches), func() { c.result(ev.Time) })
		}
		return nil
	})
	wf.MustAdd(src, merge, sink)
	for b := 0; b < faninBranches; b++ {
		b := b
		buf := p.tr.actor("work", "", kindFirst)
		work := confluence.NewMap(fmt.Sprintf("work%d", b), func(v confluence.Value) (out confluence.Value) {
			seq := seqOf(v)
			buf.span(seq, b, func() {
				burn(uint64(seq))
				out = confluence.Int(int(seq)*faninBranches + b)
			})
			return out
		})
		wf.MustAdd(work)
		wf.MustConnect(src.Out(), work.In())
		wf.MustConnect(work.Out(), merge.In())
	}
	wf.MustConnect(merge.Out(), sink.In())

	opts := confluence.RunOptions{Scheduler: "QBS", Quantum: quantum, Workers: 2, Stats: confluence.NewStats()}
	setup, run, err := directed(wf, opts)
	if err != nil {
		return nil, err
	}
	check := func() (attempted, failed int64, err error) {
		attempted = c.expect
		for _, k := range seen {
			if k != faninBranches {
				failed++
			}
		}
		if failed > 0 || c.n != attempted {
			err = fmt.Errorf("sink saw %d of %d results; %d values not seen exactly %d times", c.n, attempted, failed, faninBranches)
			if failed == 0 {
				failed = 1
			}
		}
		return attempted, failed, err
	}
	return &instance{setup: setup, run: run, sinks: []*collector{c}, check: check, stats: opts.Stats}, nil
}

// buildBridge splits a pipeline over two sequential-SCWF nodes of one
// dist.Cluster joined by one loopback TCP connection: node A runs
// src → a → Sender, node B runs Receiver → b → sink.
func buildBridge(p *probe, feed []confluence.FeedItem) (*instance, error) {
	recv, err := dist.Listen("bridge", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	wfB := confluence.NewWorkflow("node-b")
	b := confluence.NewMap("b", p.stage("b", "a", kindBridge))
	ss, sink := p.newSeqSink(len(feed), "b", true)
	wfB.MustAdd(recv, b, sink)
	wfB.MustConnect(recv.Out(), b.In())
	wfB.MustConnect(b.Out(), sink.In())

	wfA := confluence.NewWorkflow("node-a")
	src := confluence.NewSource("src", confluence.NewSliceFeed(feed), sourceBatch)
	a := confluence.NewMap("a", p.stage("a", "", kindFirst))
	send := dist.NewSender("bridge", recv.Addr())
	wfA.MustAdd(src, a, send)
	wfA.MustConnect(src.Out(), a.In())
	wfA.MustConnect(a.Out(), send.In())

	stats := confluence.NewStats()
	cluster := dist.NewCluster()
	for _, node := range []struct {
		name string
		wf   *confluence.Workflow
	}{{"a", wfA}, {"b", wfB}} {
		dir, err := confluence.NewDirector(confluence.RunOptions{Scheduler: "QBS", Quantum: quantum, Stats: stats})
		if err != nil {
			return nil, err
		}
		if err := cluster.AddNode(node.name, node.wf, dir); err != nil {
			return nil, err
		}
	}
	check := func() (attempted, failed int64, err error) {
		attempted, failed, err = ss.check()
		if bad := recv.Dropped() + recv.SeqGaps() + recv.DecodeErrors(); bad > 0 {
			failed += bad
			err = fmt.Errorf("bridge: dropped=%d seq_gaps=%d decode_errors=%d", recv.Dropped(), recv.SeqGaps(), recv.DecodeErrors())
		}
		return attempted, failed, err
	}
	// Cluster.Run sets each node's director up itself, so that part of
	// set-up falls inside the run here.
	return &instance{setup: func() error { return nil }, run: cluster.Run,
		sinks: []*collector{ss.c}, check: check, reordered: &ss.misordered, stats: stats, recv: recv}, nil
}
