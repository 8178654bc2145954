package main

import (
	"sync/atomic"
	"time"

	"repro/internal/actors"
	"repro/internal/clock"
	"repro/internal/director"
	"repro/internal/event"
	"repro/internal/lr"
	"repro/internal/model"
	"repro/internal/ring"
	"repro/internal/sched"
	"repro/internal/stafilos"
	"repro/internal/stats"
	"repro/internal/value"
	"repro/internal/window"
)

// layerOp is one layer operation timed from outside: make prepares state
// and returns a function that performs the operation n times.
type layerOp struct {
	name string
	make func() func(n int)
}

// layerOps are the loops around exported functions, one per step a hop can
// take. README.md says which end-to-end metric each should move.
var layerOps = []layerOp{
	{"ring.spsc_push_pop_ns", func() func(int) {
		q := ring.NewSPSC[int](1024)
		return func(n int) {
			for i := 0; i < n; i++ {
				q.TryPush(i)
				q.TryPop()
			}
		}
	}},
	{"ring.mpmc_push_pop_ns", func() func(int) {
		q := ring.NewMPMC[int](1024)
		return func(n int) {
			for i := 0; i < n; i++ {
				q.TryPush(i)
				q.TryPop()
			}
		}
	}},
	{"ring.waiter_wake_nowaiter_ns", func() func(int) {
		w := ring.NewWaiter()
		return func(n int) {
			for i := 0; i < n; i++ {
				w.Wake()
			}
		}
	}},
	{"ring.waiter_handoff_ns", waiterHandoff},
	{"event.pool_get_release_ns", func() func(int) {
		p := event.NewPool(1024)
		return func(n int) {
			for i := 0; i < n; i++ {
				p.Release(p.Get())
			}
		}
	}},
	{"event.stamp_external_ns", func() func(int) {
		tk, ts, tok := event.NewTimekeeper(), time.Unix(0, 0).UTC(), value.Int(1)
		return func(n int) {
			for i := 0; i < n; i++ {
				tk.External(tok, ts)
			}
		}
	}},
	{"event.firing_stamp_ns", func() func(int) {
		tk, pool, tok := event.NewTimekeeper(), event.NewPool(1024), value.Int(1)
		tk.SetPool(pool)
		root := tk.External(tok, time.Unix(0, 0).UTC())
		fallback := time.Unix(1, 0).UTC()
		return func(n int) {
			for i := 0; i < n; i++ {
				tk.BeginFiring(root)
				ev := tk.Stamp(tok, fallback)
				tk.FinalizeFiring()
				pool.Release(ev)
			}
		}
	}},
	{"director.ringrecv_put_get_ns", func() func(int) { return ringRecvPutGet(false) }},
	{"director.ringrecv_put_get_mp_ns", func() func(int) { return ringRecvPutGet(true) }},
	{"stafilos.tmrecv_put_recycle_ns", func() func(int) {
		a := nopActor("a")
		var item stafilos.ReadyItem
		r := stafilos.NewTMReceiver(a.In(), clock.NewReal(), nil, func(it stafilos.ReadyItem) { item = it })
		pool := event.NewPool(64)
		r.SetPool(pool)
		now, tok := time.Now(), value.Int(1)
		return func(n int) {
			for i := 0; i < n; i++ {
				ev := pool.Get()
				ev.Token, ev.Time = tok, now
				r.Put(ev)
				r.Recycle(item.Win)
			}
		}
	}},
	{"sched.cycle_qbs_ns", func() func(int) { return schedCycle(sched.NewQBS(quantum), false) }},
	{"sched.claim_qbs_ns", func() func(int) { return schedCycle(sched.NewQBS(quantum), true) }},
	{"sched.cycle_rr_ns", func() func(int) { return schedCycle(sched.NewRR(10*time.Millisecond), false) }},
	{"sched.cycle_rb_ns", func() func(int) { return schedCycle(sched.NewRB(), false) }},
	{"sched.cycle_fifo_ns", func() func(int) { return schedCycle(sched.NewFIFO(), false) }},
	{"model.firectx_cycle_ns", func() func(int) {
		a := nopActor("a")
		tk, pool := event.NewTimekeeper(), event.NewPool(1024)
		tk.SetPool(pool)
		ctx := model.NewFireContext(clock.NewReal(), tk)
		tok := value.Int(1)
		trigger := tk.External(tok, time.Unix(0, 0).UTC())
		win := &window.Window{Events: []*event.Event{trigger}, Time: trigger.Time}
		return func(n int) {
			for i := 0; i < n; i++ {
				ctx.BeginFiring(trigger)
				ctx.Stage(a.In(), win)
				ctx.Put(a.Out(), ctx.Window(a.In()).Events[0].Token)
				for _, em := range ctx.EndFiring() {
					pool.Release(em.Ev)
				}
			}
		}
	}},
	{"model.broadcast_1_ns", func() func(int) { return broadcast(1) }},
	{"model.broadcast_4_ns", func() func(int) { return broadcast(4) }},
	{"stats.record_firing_ns", func() func(int) {
		e := stats.NewRegistry().Entry("a")
		now := time.Now()
		return func(n int) {
			for i := 0; i < n; i++ {
				e.RecordFiring(time.Microsecond, 1, 1, now)
			}
		}
	}},
	{"clock.real_now_ns", func() func(int) {
		var clk clock.Clock = clock.NewReal()
		return func(n int) {
			for i := 0; i < n; i++ {
				clk.Now()
			}
		}
	}},
	{"window.put_passthrough_ns", func() func(int) { return windowPut(window.Passthrough()) }},
	{"window.put_tuple_groupby_ns", func() func(int) {
		return windowPut(window.Spec{Unit: window.Tuples, Size: slideSize, Step: 1, GroupBy: []string{"k"}})
	}},
	{"window.put_time_timeout_ns", func() func(int) {
		return windowPut(window.Spec{Unit: window.Time, SizeDur: tumbleWidth, StepDur: tumbleWidth,
			Timeout: tumbleExpiry, GroupBy: []string{"k"}})
	}},
	{"value.binary_encode_ns", func() func(int) {
		rec := value.NewRecord("k", value.Int(7), "v", value.Int(123456))
		buf := make([]byte, 0, 256)
		return func(n int) {
			for i := 0; i < n; i++ {
				buf = value.AppendBinary(buf[:0], rec)
			}
		}
	}},
	{"value.binary_decode_ns", func() func(int) {
		raw := value.AppendBinary(nil, value.NewRecord("k", value.Int(7), "v", value.Int(123456)))
		return func(n int) {
			for i := 0; i < n; i++ {
				if _, _, err := value.DecodeBinary(raw); err != nil {
					panic(err)
				}
			}
		}
	}},
	{"lr.db_toll_ns", func() func(int) {
		db := lrDB()
		return func(n int) {
			for i := 0; i < n; i++ {
				db.Toll(0, 0, i%100, 5*60+30)
			}
		}
	}},
	{"lr.db_record_minute_ns", func() func(int) {
		db := lrDB()
		return func(n int) {
			for i := 0; i < n; i++ {
				db.RecordMinuteAvg(0, 0, i%100, 5, 35)
			}
		}
	}},
}

// nopActor is a one-in one-out actor to hang ports and scheduler entries on.
func nopActor(name string) *actors.Func {
	return actors.NewFunc(name, window.Passthrough(),
		func(*model.FireContext, *window.Window, func(value.Value)) error { return nil })
}

// waiterHandoff times one wake-to-running hand-off between two goroutines
// that take turns: what a parked actor thread costs its producer.
func waiterHandoff() func(int) {
	return func(n int) {
		mine, theirs := ring.NewWaiter(), ring.NewWaiter()
		var turn atomic.Int64 // rounds the partner has answered
		done := make(chan struct{})
		await := func(w *ring.Waiter, ready func() bool) {
			for !ready() {
				seen := w.Gen()
				if ready() {
					return
				}
				w.Wait(seen, time.Millisecond)
			}
		}
		var asked atomic.Int64
		go func() {
			defer close(done)
			for i := 1; i <= n/2; i++ {
				await(theirs, func() bool { return asked.Load() >= int64(i) })
				turn.Store(int64(i))
				mine.Wake()
			}
		}()
		for i := 1; i <= n/2; i++ {
			asked.Store(int64(i))
			theirs.Wake()
			await(mine, func() bool { return turn.Load() >= int64(i) })
		}
		<-done
	}
}

// ringRecvPutGet times delivery into a passthrough RingReceiver, drained
// and recycled in firing batches of 64 as an actor thread does.
func ringRecvPutGet(multiProducer bool) func(int) {
	pool := event.NewPool(1024)
	r := director.NewRingReceiver(window.Passthrough(), clock.NewReal(), pool, multiProducer, 0)
	var buf []*window.Window
	now, tok, i := time.Now(), value.Int(1), 0
	return func(n int) {
		for end := i + n; i < end; i++ {
			ev := pool.Get()
			ev.Token, ev.Time = tok, now
			r.Put(ev)
			if i%64 == 63 {
				buf, _ = r.GetBatch(buf[:0], 64)
				r.Recycle(buf)
			}
		}
	}
}

// schedCycle times a policy's per-window bookkeeping: enqueue, pick (or
// claim, as a parallel worker does), pop, report the firing.
func schedCycle(s stafilos.Scheduler, claim bool) func(int) {
	if err := s.Init(&stafilos.Env{SourceInterval: 5}); err != nil {
		panic(err)
	}
	var acts []*actors.Func
	for i := 0; i < 8; i++ {
		a := nopActor(string(rune('A' + i)))
		acts = append(acts, a)
		s.Register(a, false)
	}
	tk := event.NewTimekeeper()
	ev := tk.External(value.Int(1), time.Unix(0, 0).UTC())
	win := &window.Window{Events: []*event.Event{ev}, Time: ev.Time}
	next := s.NextActor
	if claim {
		next = s.(stafilos.ConcurrentScheduler).Claim
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			a := acts[i%len(acts)]
			s.Enqueue(stafilos.NewItem(a, a.In(), win))
			e := next()
			if e == nil {
				// Quantum exhausted: the end-of-iteration maintenance
				// (re-quantification) runs as the director would run it.
				s.IterationEnd()
				s.IterationBegin()
				continue
			}
			e.Pop()
			s.ActorFired(e, 100*time.Microsecond, 1)
			if claim {
				e.EndFire()
			}
		}
	}
}

// countingReceiver accepts deliveries and drops them, so broadcast times the
// port fan-out and not a receiver.
type countingReceiver struct{ n int }

func (r *countingReceiver) Put(*event.Event)            { r.n++ }
func (r *countingReceiver) PutBatch(evs []*event.Event) { r.n += len(evs) }

// broadcast times delivering a one-emission firing to fanout destinations.
func broadcast(fanout int) func(int) {
	wf := model.NewWorkflow("fanout")
	src := nopActor("src")
	wf.MustAdd(src)
	for i := 0; i < fanout; i++ {
		d := nopActor(string(rune('A' + i)))
		wf.MustAdd(d)
		wf.MustConnect(src.Out(), d.In())
		d.In().SetReceiver(&countingReceiver{})
	}
	tk := event.NewTimekeeper()
	ev := tk.External(value.Int(1), time.Unix(0, 0).UTC())
	emissions := []model.Emission{{Port: src.Out(), Ev: ev}}
	var scratch []*event.Event
	return func(n int) {
		for i := 0; i < n; i++ {
			scratch = model.BroadcastEmissions(emissions, scratch)
		}
	}
}

// windowPut times inserting {k, v} records over windowKeys keys, 20 µs of
// event time apart (the window workload's paced rate), into an operator.
func windowPut(spec window.Spec) func(int) {
	op := window.New(spec)
	tk := event.NewTimekeeper()
	recs := make([]value.Value, windowKeys)
	for k := range recs {
		recs[k] = value.NewRecord("k", value.Int(int64(k)), "v", value.Int(int64(k)))
	}
	base, i := time.Unix(0, 0).UTC(), 0
	return func(n int) {
		for end := i + n; i < end; i++ {
			now := base.Add(time.Duration(i) * 20 * time.Microsecond)
			op.Put(tk.External(recs[(i*7919)%windowKeys], now), now)
			if i%64 == 0 {
				// As often as a director polls for due formation timeouts.
				op.OnTime(now)
				op.DrainExpired()
			}
		}
	}
}

// lrDB is a Linear Road store holding five minutes of statistics for 100
// segments, about what the toll query sees mid-experiment.
func lrDB() *lr.DB {
	db := lr.NewDB()
	for seg := 0; seg < 100; seg++ {
		for minute := int64(0); minute < 5; minute++ {
			db.RecordMinuteAvg(0, 0, seg, minute, 35)
			db.RecordCarCount(0, 0, seg, minute, 60)
		}
	}
	return db
}

// timeOp returns the median ns per operation over reps timings of at least
// budget each.
func timeOp(op layerOp, budget time.Duration, reps int) float64 {
	run := op.make()
	n := 64
	for {
		t0 := time.Now()
		run(n)
		if el := time.Since(t0); el >= budget/8 || n >= 1<<28 {
			n = int(float64(n) * float64(budget) / float64(el+1))
			break
		}
		n *= 4
	}
	if n < 2 {
		n = 2
	}
	per := make([]float64, reps)
	for r := range per {
		t0 := time.Now()
		run(n)
		per[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// layers times every layer operation and adds the results to o.
func (o *outcome) layers(budget time.Duration, reps int) {
	for _, op := range layerOps {
		o.set(op.name, timeOp(op, budget, reps), "ns")
		o.Samples[op.name] = reps
	}
}

// hopBudget fills in ROADMAP item 2's table for a pipe: what one hop (an
// edge plus a firing) costs end to end, how much of that the layer
// operations on its path add up to, and the share left unexplained.
func (o *outcome) hopBudget(drainEps float64, edges int, path map[string]float64) {
	e2e := 1e9 / (drainEps * float64(edges))
	attributed := 0.0
	for name, times := range path {
		attributed += o.Metrics[name].Value * times
	}
	o.set("hop.e2e_ns", e2e, "ns")
	o.set("hop.attributed_ns", attributed, "ns")
	o.set("hop.unattributed_frac", 1-attributed/e2e, "frac")
}

// Layer operations on one hop's path, and how many times the hop pays each.
var (
	// Sequential SCWF: the receiver wraps and hands the window to the
	// scheduler; the director picks it, runs the fire-context cycle (which
	// stamps the emission and reads the clock once), reads the clock four
	// more times (fire time, cost start and end, statistics), broadcasts
	// and records the firing.
	scwfHopPath = map[string]float64{
		"stafilos.tmrecv_put_recycle_ns": 1, "sched.cycle_qbs_ns": 1, "model.firectx_cycle_ns": 1,
		"model.broadcast_1_ns": 1, "stats.record_firing_ns": 1, "clock.real_now_ns": 4,
	}
	// PNCWF: ring delivery and batch drain, the fire-context cycle and the
	// broadcast; statistics and clock reads are paid once per batch of 64.
	pncwfHopPath = map[string]float64{
		"director.ringrecv_put_get_ns": 1, "model.firectx_cycle_ns": 1, "model.broadcast_1_ns": 1,
	}
)
