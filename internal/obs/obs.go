package obs

import (
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs/latency"
	"repro/internal/obs/prov"
	"repro/internal/obs/sketch"
	"repro/internal/stats"
)

// Options configures an Engine.
type Options struct {
	// SampleRate is the fraction of waves traced (0 disables tracing, 1
	// traces every wave). Sampling is deterministic per wave, so a traced
	// wave's lineage is always complete.
	SampleRate float64

	// NodeName gives this process a stable cluster identity (see
	// dist.NodeIDOf): hops recorded into the lineage store carry it, and
	// traced events leaving over a bridge are stamped with its derived ID
	// so downstream nodes can attribute the upstream lineage. Empty means
	// "no identity" (single-process runs).
	NodeName string
	// Provenance raises the lineage store's retention from the newest 4096
	// hops to the prov package defaults (~65K). It changes nothing else:
	// the store records, and /provenance serves, either way.
	Provenance bool
	// Peers lists the other nodes' obs HTTP base addresses
	// ("host:port" or "http://host:port") for the /cluster rollup and
	// cluster-scoped /provenance queries.
	Peers []string

	// Latency enables critical-path latency attribution (/latency): sampled
	// waves' lineages are folded into per-wave waterfalls and a fleet-wide
	// per-actor/per-edge profile. Implies Provenance's retention, so a
	// wave's lineage outlives the analysis queue.
	Latency bool
}

// queueReporter is what a scheduler-backed director exposes for scraping
// per-actor ready-queue depths; the STAFiLOS directors implement it.
type queueReporter interface {
	ActorQueueDepths(yield func(actor string, ready, buffered int))
}

// workerReporter is what a multi-worker director exposes; the parallel
// STAFiLOS director implements it.
type workerReporter interface {
	Workers() int
	Executing() int
	PeakConcurrency() int
}

// statsProvider lets Watch resolve a director's own statistics registry when
// the caller did not pass one; the PNCWF and ThreadSim directors implement it.
type statsProvider interface {
	Stats() *stats.Registry
}

// pendingReporter is what a director exposes for liveness probing: whether
// the run can still make progress. Both SCWF directors implement it.
type pendingReporter interface {
	HasPendingWork() bool
}

// DecisionKind classifies one scheduler decision forwarded to a QoS
// subscriber (internal/obs/qos feeds its flight recorder from these).
type DecisionKind uint8

const (
	// DecisionPick: the policy granted a firing to an actor.
	DecisionPick DecisionKind = iota
	// DecisionPark: the policy skipped an actor whose firing flag was taken.
	DecisionPark
	// DecisionClaimEmpty: a worker asked for work and the queues were empty.
	DecisionClaimEmpty
)

// String returns the decision name used in flight-recorder dumps.
func (k DecisionKind) String() string {
	switch k {
	case DecisionPick:
		return "pick"
	case DecisionPark:
		return "park"
	case DecisionClaimEmpty:
		return "claim-empty"
	default:
		return "unknown"
	}
}

// QoSHooks is the subscription interface of the continuous QoS layer: the
// Engine forwards its hot-path hooks to one registered subscriber
// (internal/obs/qos.Monitor). eventTime is the trigger event's external
// timestamp (hasEventTime false for source firings), fireAt the engine time
// the firing began — their difference at a sink actor is the wave's
// end-to-end latency.
type QoSHooks interface {
	QoSFiring(actor string, eventTime time.Time, hasEventTime bool,
		fireAt time.Time, cost, queueWait time.Duration)
	QoSDecision(kind DecisionKind, actor string)
}

// qosHandle wraps the subscriber so it can live in an atomic.Pointer (an
// interface value cannot).
type qosHandle struct{ hooks QoSHooks }

// watch is one observed workflow: the handle set the scrape-time collectors
// walk.
type watch struct {
	name  string
	wf    *model.Workflow
	stats *stats.Registry
	dir   model.Director
}

// Engine is the introspection hub: it owns the telemetry registry, the
// wave-tag tracer and the lineage store, receives the directors' hot-path
// hooks, and walks watched workflows at scrape time for queue-depth, shed
// and per-actor series.
//
// Every hook is safe on a nil *Engine and returns immediately, so call sites
// guard with a single pointer check and pay nothing when observability is
// off.
type Engine struct {
	reg    *Registry
	tracer *Tracer

	// store holds every sampled firing, once. nodeName/nodeID are this
	// process's cluster identity.
	store    *prov.Store
	nodeName string
	nodeID   uint64

	// latency is the critical-path attribution profile (nil when
	// Options.Latency is off).
	latency *latency.Profile

	// hot-path instruments, updated by the director hooks.
	firingSeconds *HistogramVec // by actor
	queueWait     *sketch.Sketch
	claimSeconds  *sketch.Sketch
	claims        *CounterVec // by result: picked | empty
	picked        *CounterVec // by actor
	parked        *CounterVec // by actor
	spans         *Counter
	forcedWaves   *Counter
	bridgeTransit *HistogramVec // by receiving bridge actor

	// qos is the registered continuous QoS subscriber (nil = none); one
	// atomic load per hook when unset.
	qos atomic.Pointer[qosHandle]

	// lastScrape is the unix-nano time of the last /metrics scrape (0 =
	// never), reported by /healthz as scrape freshness.
	lastScrape atomic.Int64

	// liveMux is the currently-serving route table; Mount swaps in a rebuilt
	// mux so routes can be added after Serve.
	liveMux atomic.Pointer[http.ServeMux]

	mu        sync.Mutex
	watches   []watch
	responses []*metrics.ResponseCollector
	extra     map[string]http.Handler
	peers     []string

	srv *server
}

// NewEngine builds an introspection engine. The zero Options value means
// tracing off.
func NewEngine(opts Options) *Engine {
	e := &Engine{
		reg:      NewRegistry(),
		tracer:   NewTracer(opts.SampleRate),
		nodeName: opts.NodeName,
		nodeID:   uint64(dist.NodeIDOf(opts.NodeName)),
		peers:    append([]string(nil), opts.Peers...),
	}
	retention := traceRetention(traceCapacity)
	if opts.Provenance || opts.Latency {
		retention = prov.Options{}
	}
	e.store = prov.NewStore(retention)
	if opts.Latency {
		e.latency = latency.NewProfile(e.resolveWave)
	}
	r := e.reg
	e.firingSeconds = r.NewHistogramVec("confluence_firing_seconds",
		"Firing latency by actor.", "actor")
	e.queueWait = r.NewHistogram("confluence_queue_wait_seconds",
		"Time ready windows waited in scheduler queues before firing.")
	e.claimSeconds = r.NewHistogram("confluence_sched_claim_seconds",
		"Latency of Scheduler.Claim calls.")
	e.claims = r.NewCounterVec("confluence_sched_claims_total",
		"Claim outcomes: picked an entry or found the queue empty.", "result")
	e.picked = r.NewCounterVec("confluence_sched_picked_total",
		"Firings the scheduler granted, by actor.", "actor")
	e.parked = r.NewCounterVec("confluence_sched_parked_total",
		"Times the scheduler skipped an actor because a firing was in flight, by actor.", "actor")
	e.spans = r.NewCounter("confluence_trace_spans_total",
		"Sampled firings recorded into the lineage store.")
	e.forcedWaves = r.NewCounter("confluence_trace_forced_waves_total",
		"Waves forced into the local tracer by upstream bridge trace context.")
	e.bridgeTransit = r.NewHistogramVec("confluence_bridge_transit_seconds",
		"Skew-corrected one-way bridge transit of traced waves, by receiving bridge actor.", "actor")
	e.registerCollectors()
	return e
}

// Lineage returns the store every sampled firing is recorded into (nil on a
// nil engine; the nil store answers every query empty).
func (e *Engine) Lineage() *prov.Store {
	if e == nil {
		return nil
	}
	return e.store
}

// SetCluster replaces the peer list used by /cluster and cluster-scoped
// /provenance queries. Safe to call while serving.
func (e *Engine) SetCluster(peers []string) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.peers = append([]string(nil), peers...)
	e.mu.Unlock()
}

// clusterPeers snapshots the peer list.
func (e *Engine) clusterPeers() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.peers...)
}

// traceSampled adapts the tracer's wave-sampling decision to the bridge
// sender hook signature.
func (e *Engine) traceSampled(root int64, rootSeq uint64) bool {
	return e.tracer.Sampled(event.WaveTag{Root: root, RootSeq: rootSeq})
}

// traceForced is the bridge receiver hook: an upstream node sampled this
// wave, so trace it here too and remember where it came from.
func (e *Engine) traceForced(root int64, rootSeq uint64, origin uint64) {
	e.tracer.Force(root, rootSeq)
	if origin != 0 {
		e.store.NoteOrigin(root, rootSeq, origin)
	}
	e.forcedWaves.Inc()
}

// traceSamplerTarget is what a bridge sender exposes for trace-context
// propagation (dist.Sender implements it; declared structurally so obs
// wires any compatible transport).
type traceSamplerTarget interface {
	SetTraceSampler(func(root int64, rootSeq uint64) bool, uint64)
}

// traceSinkTarget is what a bridge receiver exposes (dist.Receiver).
type traceSinkTarget interface {
	SetTraceSink(func(root int64, rootSeq uint64, origin uint64))
}

// Registry returns the engine's telemetry registry, for callers that want to
// add their own series.
func (e *Engine) Registry() *Registry { return e.reg }

// SetQoS registers (or, with nil, removes) the continuous QoS subscriber.
// The engine forwards every firing and scheduler decision to it; there is at
// most one subscriber.
func (e *Engine) SetQoS(h QoSHooks) {
	if e == nil {
		return
	}
	if h == nil {
		e.qos.Store(nil)
		return
	}
	e.qos.Store(&qosHandle{hooks: h})
}

// qosHooks returns the registered subscriber or nil.
func (e *Engine) qosHooks() QoSHooks {
	if h := e.qos.Load(); h != nil {
		return h.hooks
	}
	return nil
}

// QueueDepths walks every watched director that reports scheduler queue
// depths, yielding per-actor ready and buffered window counts. The QoS
// bottleneck tracker samples this at snapshot time.
func (e *Engine) QueueDepths(yield func(actor string, ready, buffered int)) {
	if e == nil {
		return
	}
	for _, w := range e.snapshotWatches() {
		if q, ok := w.dir.(queueReporter); ok {
			q.ActorQueueDepths(yield)
		}
	}
}

// Tracer returns the engine's wave-tag tracer.
func (e *Engine) Tracer() *Tracer { return e.tracer }

// Watch registers a workflow for scrape-time collection. st may be nil when
// the director carries its own registry (PNCWF/ThreadSim); dir may be nil
// for snapshot-only views. Safe to call while the workflow runs.
func (e *Engine) Watch(name string, wf *model.Workflow, st *stats.Registry, dir model.Director) {
	if e == nil {
		return
	}
	if st == nil {
		if sp, ok := dir.(statsProvider); ok {
			st = sp.Stats()
		}
	}
	if wf != nil {
		// Auto-wire trace-context propagation through any bridges in the
		// workflow: senders stamp sampled waves with this node's identity,
		// receivers force upstream-sampled waves into the local tracer.
		for _, a := range wf.Actors() {
			if s, ok := a.(traceSamplerTarget); ok {
				s.SetTraceSampler(e.traceSampled, e.nodeID)
			}
			if r, ok := a.(traceSinkTarget); ok {
				r.SetTraceSink(e.traceForced)
			}
			// Bridge transit timing rides the same structural wiring: the
			// receiver reports each traced wave's skew-corrected wire time,
			// attributed to the receiving bridge actor.
			if t, ok := a.(transitSinkTarget); ok {
				bridge := a.Name()
				t.SetTransitSink(func(root int64, rootSeq uint64, origin uint64,
					sentNs, recvNs int64, transit time.Duration) {
					e.transitObserved(bridge, root, rootSeq, origin, sentNs, recvNs, transit)
				})
			}
		}
	}
	e.mu.Lock()
	e.watches = append(e.watches, watch{name: name, wf: wf, stats: st, dir: dir})
	e.mu.Unlock()
}

// WatchResponses registers response-time collectors for the /workflows view.
func (e *Engine) WatchResponses(cs ...*metrics.ResponseCollector) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.responses = append(e.responses, cs...)
	e.mu.Unlock()
}

// snapshotWatches copies the watch set for lock-free iteration.
func (e *Engine) snapshotWatches() []watch {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]watch(nil), e.watches...)
}

// FiringObserved is the director hook for one completed firing: actor name,
// the trigger event (nil for source firings), the firing's emissions (valid
// only for the duration of the call), its start time, measured cost, how
// long the consumed window waited ready, and the consumed event count.
func (e *Engine) FiringObserved(actor string, trigger *event.Event, emissions []model.Emission,
	start time.Time, cost, queueWait time.Duration, consumed int) {
	if e == nil {
		return
	}
	e.firingSeconds.With(actor).Observe(cost)
	if trigger != nil {
		e.queueWait.Observe(queueWait)
	}
	if h := e.qosHooks(); h != nil {
		var eventTime time.Time
		if trigger != nil {
			eventTime = trigger.Time
		}
		h.QoSFiring(actor, eventTime, trigger != nil, start, cost, queueWait)
	}
	if !e.tracer.Enabled() {
		return
	}
	if trigger != nil {
		// Downstream firing: one hop for the trigger's wave.
		if !e.tracer.Sampled(trigger.Wave) {
			return
		}
		h := prov.Hop{
			Actor:     actor,
			Root:      trigger.Wave.Root,
			RootSeq:   trigger.Wave.RootSeq,
			In:        trigger.Wave,
			Start:     start,
			QueueWait: queueWait,
			Cost:      cost,
			Consumed:  consumed,
			Produced:  len(emissions),
		}
		if len(emissions) > 0 {
			h.Out = emissions[0].Ev.Wave
		}
		e.record(h)
		return
	}
	// Source firing: every emission starts a wave; record one hop per
	// sampled wave (consecutive emissions of one wave collapse into it).
	var lastRoot int64
	var lastSeq uint64
	recorded := false
	for _, em := range emissions {
		w := em.Ev.Wave
		if recorded && w.Root == lastRoot && w.RootSeq == lastSeq {
			continue
		}
		lastRoot, lastSeq, recorded = w.Root, w.RootSeq, true
		if !e.tracer.Sampled(w) {
			continue
		}
		e.record(prov.Hop{
			Actor:    actor,
			Root:     w.Root,
			RootSeq:  w.RootSeq,
			Out:      w,
			Start:    start,
			Cost:     cost,
			Produced: len(emissions),
		})
	}
}

// record stores one sampled firing — the only write any lineage view reads.
func (e *Engine) record(h prov.Hop) {
	h.Node = e.nodeName
	e.store.Record(h)
	e.spans.Inc()
	// A hop that emitted nothing ended its wave here (a sink, or a
	// filter dropping the last event): queue it for waterfall analysis.
	if e.latency != nil && h.Produced == 0 {
		e.latency.NoteEndpoint(h.Root, h.RootSeq)
	}
}

// ClaimObserved is the scheduler hook for one Scheduler.Claim call: the
// picked actor ("" when the queue was empty) and the call latency.
func (e *Engine) ClaimObserved(actor string, latency time.Duration) {
	if e == nil {
		return
	}
	e.claimSeconds.Observe(latency)
	if actor == "" {
		e.claims.With("empty").Inc()
		if h := e.qosHooks(); h != nil {
			h.QoSDecision(DecisionClaimEmpty, "")
		}
	} else {
		e.claims.With("picked").Inc()
	}
}

// PickObserved is the scheduler hook for a policy decision granting a
// firing to an actor.
func (e *Engine) PickObserved(actor string) {
	if e == nil {
		return
	}
	e.picked.With(actor).Inc()
	if h := e.qosHooks(); h != nil {
		h.QoSDecision(DecisionPick, actor)
	}
}

// ParkObserved is the scheduler hook for a policy decision skipping an
// actor whose firing flag is already taken (the head-of-queue park of
// Base.ClaimRunnable and the RB/quantum source scans).
func (e *Engine) ParkObserved(actor string) {
	if e == nil {
		return
	}
	e.parked.With(actor).Inc()
	if h := e.qosHooks(); h != nil {
		h.QoSDecision(DecisionPark, actor)
	}
}

// registerCollectors wires the scrape-time families: series derived from
// watched workflows' statistics registries, receiver queue depths, shed
// counters, worker utilization and Go runtime state. They cost nothing
// until /metrics is scraped.
func (e *Engine) registerCollectors() {
	r := e.reg

	perActor := func(f func(name string, a stats.Actor) float64) func(emit func(string, float64)) {
		return func(emit func(string, float64)) {
			for _, w := range e.snapshotWatches() {
				if w.stats == nil {
					continue
				}
				for _, na := range w.stats.SnapshotSorted() {
					emit(na.Name, f(na.Name, na.Actor))
				}
			}
		}
	}
	r.RegisterCollector("confluence_actor_firings_total",
		"Completed invocations by actor.", typeCounter, "actor",
		perActor(func(_ string, a stats.Actor) float64 { return float64(a.Invocations) }))
	r.RegisterCollector("confluence_actor_events_in_total",
		"Events consumed by actor firings.", typeCounter, "actor",
		perActor(func(_ string, a stats.Actor) float64 { return float64(a.InputEvents) }))
	r.RegisterCollector("confluence_actor_events_out_total",
		"Events produced by actor firings.", typeCounter, "actor",
		perActor(func(_ string, a stats.Actor) float64 { return float64(a.OutputEvents) }))
	r.RegisterCollector("confluence_actor_arrivals_total",
		"Events delivered to actor input queues.", typeCounter, "actor",
		perActor(func(_ string, a stats.Actor) float64 { return float64(a.Arrivals) }))
	r.RegisterCollector("confluence_actor_cost_seconds",
		"Smoothed per-invocation firing cost by actor.", typeGauge, "actor",
		perActor(func(_ string, a stats.Actor) float64 { return a.Cost() }))
	r.RegisterCollector("confluence_actor_input_rate",
		"Recent input events/second by actor.", typeGauge, "actor",
		perActor(func(_ string, a stats.Actor) float64 { return a.InputRate }))
	r.RegisterCollector("confluence_actor_output_rate",
		"Recent output events/second by actor.", typeGauge, "actor",
		perActor(func(_ string, a stats.Actor) float64 { return a.OutputRate }))

	r.RegisterCollector("confluence_queue_depth",
		"Pending events per input port (receiver depth).", typeGauge, "port",
		func(emit func(string, float64)) {
			for _, w := range e.snapshotWatches() {
				if w.wf == nil {
					continue
				}
				for _, p := range w.wf.InputPorts() {
					if d, ok := p.Receiver().(model.DepthReporter); ok {
						emit(p.FullName(), float64(d.Depth()))
					}
				}
			}
		})
	r.RegisterCollector("confluence_actor_ready_windows",
		"Ready (fireable) windows per actor in the scheduler queues.", typeGauge, "actor",
		func(emit func(string, float64)) {
			for _, w := range e.snapshotWatches() {
				if q, ok := w.dir.(queueReporter); ok {
					q.ActorQueueDepths(func(actor string, ready, _ int) {
						emit(actor, float64(ready))
					})
				}
			}
		})
	r.RegisterCollector("confluence_actor_buffered_windows",
		"Buffered (not yet ready) windows per actor in the scheduler queues.", typeGauge, "actor",
		func(emit func(string, float64)) {
			for _, w := range e.snapshotWatches() {
				if q, ok := w.dir.(queueReporter); ok {
					q.ActorQueueDepths(func(actor string, _, buffered int) {
						emit(actor, float64(buffered))
					})
				}
			}
		})

	perShed := func(f func(s metrics.ShedStats) float64) func(emit func(string, float64)) {
		return func(emit func(string, float64)) {
			for _, w := range e.snapshotWatches() {
				for _, s := range metrics.ShedStatsOf(w.wf) {
					emit(s.Actor, f(s))
				}
			}
		}
	}
	r.RegisterCollector("confluence_shed_dropped_total",
		"Events dropped by load-shedding actors.", typeCounter, "actor",
		perShed(func(s metrics.ShedStats) float64 { return float64(s.Dropped) }))
	r.RegisterCollector("confluence_shed_passed_total",
		"Events passed through by load-shedding actors.", typeCounter, "actor",
		perShed(func(s metrics.ShedStats) float64 { return float64(s.Passed) }))

	perBridge := func(f func(b metrics.BridgeStats) float64) func(emit func(string, float64)) {
		return func(emit func(string, float64)) {
			for _, w := range e.snapshotWatches() {
				for _, b := range metrics.BridgeStatsOf(w.wf) {
					emit(b.Actor, f(b))
				}
			}
		}
	}
	r.RegisterCollector("confluence_bridge_received_total",
		"Events accepted into a bridge receiver's ring.", typeCounter, "actor",
		perBridge(func(b metrics.BridgeStats) float64 { return float64(b.Received) }))
	r.RegisterCollector("confluence_bridge_dropped_total",
		"Events a bridge discarded because it shut down while they were in flight.", typeCounter, "actor",
		perBridge(func(b metrics.BridgeStats) float64 { return float64(b.Dropped) }))
	r.RegisterCollector("confluence_bridge_watermark",
		"Peak receive-ring occupancy per bridge (the bridge's bottleneck signal).", typeGauge, "actor",
		perBridge(func(b metrics.BridgeStats) float64 { return float64(b.Watermark) }))
	r.RegisterCollector("confluence_bridge_ring_capacity",
		"Receive-ring capacity per bridge, the denominator for the watermark.", typeGauge, "actor",
		perBridge(func(b metrics.BridgeStats) float64 { return float64(b.RingCapacity) }))
	r.RegisterCollector("confluence_bridge_decode_errors_total",
		"Malformed frames dropped off the wire per bridge.", typeCounter, "actor",
		perBridge(func(b metrics.BridgeStats) float64 { return float64(b.DecodeErrors) }))
	r.RegisterCollector("confluence_bridge_seq_gaps_total",
		"Frame sequence discontinuities per bridge.", typeCounter, "actor",
		perBridge(func(b metrics.BridgeStats) float64 { return float64(b.SeqGaps) }))

	provStat := func(f func(prov.Stats) int64) func(emit func(string, float64)) {
		return func(emit func(string, float64)) {
			emit("", float64(f(e.store.Stats())))
		}
	}
	r.RegisterCollector("confluence_prov_resident_hops",
		"Lineage hops currently resident in the provenance store.", typeGauge, "",
		provStat(func(st prov.Stats) int64 { return st.Resident }))
	r.RegisterCollector("confluence_prov_evicted_hops_total",
		"Lineage hops evicted from the provenance store by retention.", typeCounter, "",
		provStat(func(st prov.Stats) int64 { return st.EvictedHops }))
	r.RegisterCollector("confluence_prov_recorded_total",
		"Lineage hops ever recorded into the provenance store.", typeCounter, "",
		provStat(func(st prov.Stats) int64 { return st.Recorded }))
	r.RegisterCollector("confluence_prov_segments",
		"Segments currently resident in the provenance store.", typeGauge, "",
		provStat(func(st prov.Stats) int64 { return int64(st.Segments) }))

	r.RegisterCollector("confluence_latency_endpoints_total",
		"Wave endpoints queued for critical-path analysis.", typeCounter, "",
		func(emit func(string, float64)) {
			if e.latency != nil {
				emit("", float64(e.latency.Noted()))
			}
		})
	r.RegisterCollector("confluence_latency_dropped_total",
		"Wave endpoints dropped because the analysis queue was full.", typeCounter, "",
		func(emit func(string, float64)) {
			if e.latency != nil {
				emit("", float64(e.latency.Dropped()))
			}
		})

	r.RegisterCollector("confluence_workers",
		"Configured worker count of the parallel executor.", typeGauge, "",
		func(emit func(string, float64)) {
			for _, w := range e.snapshotWatches() {
				if wr, ok := w.dir.(workerReporter); ok {
					emit("", float64(wr.Workers()))
				}
			}
		})
	r.RegisterCollector("confluence_executing_firings",
		"Firings currently executing on the parallel executor.", typeGauge, "",
		func(emit func(string, float64)) {
			for _, w := range e.snapshotWatches() {
				if wr, ok := w.dir.(workerReporter); ok {
					emit("", float64(wr.Executing()))
				}
			}
		})
	r.RegisterCollector("confluence_peak_concurrency",
		"Highest number of simultaneously executing firings observed.", typeGauge, "",
		func(emit func(string, float64)) {
			for _, w := range e.snapshotWatches() {
				if wr, ok := w.dir.(workerReporter); ok {
					emit("", float64(wr.PeakConcurrency()))
				}
			}
		})

	r.RegisterCollector("confluence_goroutines",
		"Current goroutine count.", typeGauge, "",
		func(emit func(string, float64)) {
			emit("", float64(runtime.NumGoroutine()))
		})
	r.RegisterCollector("confluence_heap_alloc_bytes",
		"Bytes of allocated heap objects.", typeGauge, "",
		func(emit func(string, float64)) {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			emit("", float64(m.HeapAlloc))
		})
}
