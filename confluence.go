// Package confluence is the public API of this CONFLuEnCE reproduction: a
// CONtinuous workFLow ExeCution Engine with the STAFiLOS pluggable
// scheduling framework (Neophytou, Chrysanthis, Labrinidis — SIGMOD 2011
// demo; SWEET 2013 scheduling framework).
//
// A continuous workflow is a composition of actors wired through ports and
// channels; input ports carry window semantics (size, step, formation
// timeout, group-by, delete_used_events) over unbounded streams, and every
// event is timestamped and wave-stamped. A director executes the workflow:
// the thread-based PNCWF director runs one goroutine per actor, while the
// Scheduled CWF director dispatches actors through a pluggable STAFiLOS
// scheduler (QBS, RR, RB, FIFO, EDF).
//
// Quick start:
//
//	wf := confluence.NewWorkflow("demo")
//	src := confluence.NewGenerator("src", time.Unix(0, 0), time.Second, 100,
//		func(i int) confluence.Value { return confluence.Int(i) })
//	double := confluence.NewMap("double", func(v confluence.Value) confluence.Value {
//		return confluence.Int(int(v.(confluence.IntValue)) * 2)
//	})
//	sink := confluence.NewCollect("sink")
//	wf.MustAdd(src, double, sink)
//	wf.MustConnect(src.Out(), double.In())
//	wf.MustConnect(double.Out(), sink.In())
//	err := confluence.Run(context.Background(), wf, confluence.RunOptions{Scheduler: "QBS"})
//
// See the examples/ directory for runnable programs, and internal/lr for
// the complete Linear Road benchmark used in the paper's evaluation.
package confluence

import (
	"context"
	"fmt"
	"time"

	"repro/internal/actors"
	"repro/internal/clock"
	"repro/internal/director"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/multiwf"
	"repro/internal/obs"
	"repro/internal/obs/qos"
	"repro/internal/sched"
	"repro/internal/stafilos"
	"repro/internal/stats"
	"repro/internal/value"
	"repro/internal/window"
)

// Core model types.
type (
	// Workflow is a composition of actors wired through channels.
	Workflow = model.Workflow
	// Actor is an independent workflow component.
	Actor = model.Actor
	// Port is an actor's communication interface.
	Port = model.Port
	// FireContext is passed to actor lifecycle methods.
	FireContext = model.FireContext
	// Director executes a workflow under a model of computation.
	Director = model.Director
)

// Token values.
type (
	// Value is a typed token.
	Value = value.Value
	// IntValue, FloatValue, StrValue, BoolValue are scalar tokens.
	IntValue   = value.Int
	FloatValue = value.Float
	StrValue   = value.Str
	BoolValue  = value.Bool
	// Record is a named-field token.
	Record = value.Record
)

// Int builds an integer token.
func Int(i int) Value { return value.Int(i) }

// Float builds a float token.
func Float(f float64) Value { return value.Float(f) }

// Str builds a string token.
func Str(s string) Value { return value.Str(s) }

// NewRecord builds a record token from name/value pairs.
func NewRecord(pairs ...any) Record { return value.NewRecord(pairs...) }

// Window semantics.
type (
	// WindowSpec holds the five window parameters of the CWf model.
	WindowSpec = window.Spec
	// Window is a produced bundle of events.
	Window = window.Window
)

// Window units.
const (
	Tuples = window.Tuples
	Time   = window.Time
	Waves  = window.Waves
)

// Passthrough is the default single-event window.
func Passthrough() WindowSpec { return window.Passthrough() }

// Standard actors.
type (
	// SourceActor pumps a feed into the workflow.
	SourceActor = actors.Source
	// Collect is a sink gathering every token.
	Collect = actors.Collect
	// Composite is a sub-workflow behind actor ports.
	Composite = director.Composite
	// Probe measures response times in-line.
	Probe = metrics.Probe
	// Feed is a timestamped external event sequence.
	Feed = actors.Feed
	// FeedItem is one feed element.
	FeedItem = actors.Item
)

// NewWorkflow creates an empty workflow.
func NewWorkflow(name string) *Workflow { return model.NewWorkflow(name) }

// NewSource builds a source actor over a feed.
func NewSource(name string, feed Feed, batch int) *SourceActor {
	return actors.NewSource(name, feed, batch)
}

// NewSliceFeed replays a fixed item sequence.
func NewSliceFeed(items []FeedItem) Feed { return actors.NewSliceFeed(items) }

// NewGenerator emits count tokens spaced interval apart.
func NewGenerator(name string, start time.Time, interval time.Duration, count int, produce func(i int) Value) *actors.Generator {
	return actors.NewGenerator(name, start, interval, count, produce)
}

// NewTCPSource streams newline-delimited records from a TCP endpoint.
func NewTCPSource(name, addr string, parse actors.LineParser) *actors.NetSource {
	return actors.NewTCPSource(name, addr, parse)
}

// NewHTTPSource streams newline-delimited records from an HTTP endpoint.
func NewHTTPSource(name, url string, parse actors.LineParser) *actors.NetSource {
	return actors.NewHTTPSource(name, url, parse)
}

// NewFunc builds the general windowed transform actor.
func NewFunc(name string, spec WindowSpec, fn func(ctx *FireContext, w *Window, emit func(Value)) error) *actors.Func {
	return actors.NewFunc(name, spec, fn)
}

// NewMap builds a per-token transform actor.
func NewMap(name string, f func(Value) Value) *actors.Func { return actors.NewMap(name, f) }

// NewFilter builds a predicate actor.
func NewFilter(name string, pred func(Value) bool) *actors.Func { return actors.NewFilter(name, pred) }

// NewAggregate reduces each window to one token. agg borrows the window
// as a NewSink callback does: it must not keep w or w.Events.
func NewAggregate(name string, spec WindowSpec, agg func(w *Window) Value) *actors.Func {
	return actors.NewAggregate(name, spec, agg)
}

// NewJoin builds a two-stream windowed equi-join on the given key fields.
func NewJoin(name string, on []string, retainLeft, retainRight int,
	combine func(l, r Record) Value) *actors.Join {
	return actors.NewJoin(name, on, retainLeft, retainRight, combine)
}

// NewShedder builds a load-shedding pass-through dropping tokens staler
// than maxLag.
func NewShedder(name string, maxLag time.Duration) *actors.Shedder {
	return actors.NewShedder(name, maxLag)
}

// NewSink consumes windows with a callback. The window, its Events slice
// and its events are borrowed for the callback only: every director
// recycles them once the firing is over — the next window reuses the shell
// and its Events backing — so copy out the tokens you keep.
func NewSink(name string, spec WindowSpec, fn func(ctx *FireContext, w *Window) error) *actors.Sink {
	return actors.NewSink(name, spec, fn)
}

// NewCollect gathers every token for inspection.
func NewCollect(name string) *Collect { return actors.NewCollect(name) }

// NewComposite builds an opaque composite actor over an inner workflow
// governed by an SDF or DDF inside-director.
func NewComposite(name string, inner *Workflow, inside director.InsideDirector) *Composite {
	return director.NewComposite(name, inner, inside)
}

// NewSDF and NewDDF build inside-directors for composites.
func NewSDF() *director.SDF { return director.NewSDF() }

// NewDDF builds a dynamic-dataflow inside-director.
func NewDDF() *director.DDF { return director.NewDDF() }

// NewResponseCollector builds a QoS response-time collector.
func NewResponseCollector(name string, epoch time.Time, deadline time.Duration) *metrics.ResponseCollector {
	return metrics.NewResponseCollector(name, epoch, deadline)
}

// NewProbe builds a pass-through response-time probe.
func NewProbe(name string, c *metrics.ResponseCollector) *Probe { return metrics.NewProbe(name, c) }

// Scheduling.
type (
	// Scheduler is a STAFiLOS scheduling policy.
	Scheduler = stafilos.Scheduler
	// SCWFDirector is the Scheduled CWF director with a pluggable policy.
	SCWFDirector = stafilos.Director
	// CostModel supplies modelled firing costs for virtual-time runs.
	CostModel = stafilos.CostModel
	// Stats is the runtime statistics registry.
	Stats = stats.Registry
)

// NewScheduler builds a scheduler by policy name: "QBS", "RR", "RB",
// "RB+src" (sources scheduled in intervals), "FIFO", "LQF" or "EDF".
// quantum configures QBS's basic quantum or RR's slice (zero selects the
// paper's best values).
func NewScheduler(policy string, quantum time.Duration) (Scheduler, error) {
	switch policy {
	case "QBS":
		return sched.NewQBS(quantum), nil
	case "RR":
		return sched.NewRR(quantum), nil
	case "RB":
		return sched.NewRB(), nil
	case "RB+src":
		return sched.NewRBPrioritizedSources(), nil
	case "FIFO":
		return sched.NewFIFO(), nil
	case "LQF":
		return sched.NewLQF(), nil
	case "EDF":
		return sched.NewEDF(nil, quantum), nil
	default:
		return nil, fmt.Errorf("confluence: unknown scheduler %q (want QBS, RR, RB, RB+src, FIFO, LQF or EDF)", policy)
	}
}

// RunOptions configures Run.
type RunOptions struct {
	// Scheduler selects the STAFiLOS policy ("QBS", "RR", "RB", "FIFO",
	// "EDF"), or "PNCWF" for the thread-based director. Empty means QBS.
	Scheduler string
	// Quantum configures QBS/RR (zero = the paper's defaults).
	Quantum time.Duration
	// Priorities are designer-assigned actor priorities (QBS).
	Priorities map[string]int
	// SourceInterval is the source scheduling interval (default 5).
	SourceInterval int
	// Virtual runs in deterministic virtual time using Cost (which is then
	// required) instead of the wall clock.
	Virtual bool
	// Cost models actor firing costs for virtual runs.
	Cost CostModel
	// Stats, when set, receives runtime statistics.
	Stats *Stats
	// Workers > 1 selects the parallel SCWF director (real-time only):
	// the policy still orders firings, a worker pool executes them on
	// multiple cores (the paper's Section 5 single-node scaling).
	Workers int
	// Observer, when set, receives the engine's introspection hooks (firing
	// spans, scheduler decisions) and watches the workflow for scrape-time
	// series. Build one with NewObserver or Observe.
	Observer *Observer
}

// Run executes a workflow to completion under the selected director.
func Run(ctx context.Context, wf *Workflow, opts RunOptions) error {
	dir, err := NewDirector(opts)
	if err != nil {
		return err
	}
	if err := dir.Setup(wf); err != nil {
		return err
	}
	opts.Observer.Watch(wf.Name(), wf, opts.Stats, dir)
	return dir.Run(ctx)
}

// NewDirector builds (without running) the director described by opts.
func NewDirector(opts RunOptions) (Director, error) {
	if opts.Scheduler == "PNCWF" {
		if opts.Virtual {
			return director.NewThreadSim(0, 0, 0, opts.Cost, opts.Stats), nil
		}
		return director.NewPNCWF(director.PNCWFOptions{Stats: opts.Stats}), nil
	}
	policy := opts.Scheduler
	if policy == "" {
		policy = "QBS"
	}
	s, err := NewScheduler(policy, opts.Quantum)
	if err != nil {
		return nil, err
	}
	interval := opts.SourceInterval
	if interval == 0 {
		interval = 5
	}
	sopts := stafilos.Options{
		Priorities:     opts.Priorities,
		SourceInterval: interval,
		Stats:          opts.Stats,
		Obs:            opts.Observer,
	}
	if opts.Workers > 1 {
		if opts.Virtual {
			return nil, fmt.Errorf("confluence: parallel execution is real-time only")
		}
		return stafilos.NewParallelDirector(s, sopts, opts.Workers), nil
	}
	if opts.Virtual {
		if opts.Cost == nil {
			return nil, fmt.Errorf("confluence: virtual runs require a cost model")
		}
		sopts.Clock = clock.NewVirtual()
		sopts.Cost = opts.Cost
	}
	return stafilos.NewDirector(s, sopts), nil
}

// NewStats returns an empty runtime-statistics registry.
func NewStats() *Stats { return stats.NewRegistry() }

// Observability.
type (
	// Observer is the engine introspection hub: a telemetry registry
	// exported at /metrics, the lineage store of sampled waves behind
	// /provenance, and the director hooks feeding both. A nil *Observer is valid
	// everywhere and means observability off.
	Observer = obs.Engine
	// ObserveOptions configures tracing (per-wave sampling rate), cluster
	// identity, lineage retention, and critical-path latency attribution
	// (Latency: true serves per-wave waterfalls and the fleet-wide profile
	// at /latency).
	ObserveOptions = obs.Options
)

// NewObserver builds an introspection engine without serving HTTP; pass it
// in RunOptions.Observer and mount Handler() yourself, or call Serve later.
func NewObserver(opts ObserveOptions) *Observer { return obs.NewEngine(opts) }

// Observe builds an introspection engine and serves /metrics,
// /debug/pprof/, /workflows and /provenance on addr (host:port; port 0 picks a
// free port). Wire the returned observer into RunOptions.Observer, and
// Close it when done.
func Observe(addr string, opts ObserveOptions) (*Observer, error) {
	e := obs.NewEngine(opts)
	if _, err := e.Serve(addr); err != nil {
		return nil, err
	}
	return e, nil
}

// Continuous QoS monitoring.
type (
	// QoSMonitor subscribes to an Observer's hook stream and maintains
	// sliding-window latency quantiles per sink, SLO burn-rate alerts, a
	// live bottleneck watermark and an SLO-triggered flight recorder,
	// served at /slo and /debug/flightrecorder on the observer.
	QoSMonitor = qos.Monitor
	// QoSOptions configures a QoSMonitor (window shape, recorder span,
	// alert logger).
	QoSOptions = qos.Options
	// SLO is a declarative latency objective over one sink actor, e.g.
	// "99% of tolls within 5s".
	SLO = qos.SLO
)

// NewQoSMonitor attaches a continuous QoS monitor to an observer: it
// registers the qos Prometheus series, mounts /slo and /debug/flightrecorder
// and subscribes to the hook stream. Declare objectives with AddSLO, or
// track latency without alerting via TrackSink.
func NewQoSMonitor(o *Observer, opts QoSOptions) *QoSMonitor {
	return qos.NewMonitor(o, opts)
}

// UniformCost returns a cost model charging the same cost per firing.
func UniformCost(cost, dispatch time.Duration) CostModel {
	return stafilos.UniformCostModel{Cost: cost, Dispatch: dispatch}
}

// Multi-workflow execution (Figure 9 of the paper).
type (
	// Global is the top-level scheduler over workflow instances.
	Global = multiwf.Global
	// ConnectionController manages running workflows over TCP.
	ConnectionController = multiwf.Controller
)

// NewGlobal builds an empty global scheduler.
func NewGlobal() *Global { return multiwf.NewGlobal() }

// NewConnectionController starts the TCP controller for a global scheduler.
func NewConnectionController(g *Global, addr string) (*ConnectionController, error) {
	return multiwf.NewController(g, addr)
}

// Static workflow validation (tier B of confvet): pre-execution checks over
// a composed workflow — channel type resolution, dangling and multiply-
// driven ports, composite boundary bindings, undelayed cycles and the
// Parks-style boundedness heuristic.
type (
	// ValidationDiagnostic is one validator finding, located by actor/port
	// path and graded by severity.
	ValidationDiagnostic = model.Diagnostic
	// ValidationSeverity grades a diagnostic: info, warning or error.
	ValidationSeverity = model.Severity
)

// Validation severities.
const (
	SevInfo    = model.SevInfo
	SevWarning = model.SevWarning
	SevError   = model.SevError
)

// Validate statically checks a composed workflow and returns diagnostics in
// declaration order; an empty result means the graph is clean. Only
// error-severity findings make the workflow invalid — see HasErrors.
func Validate(wf *Workflow) []ValidationDiagnostic { return model.Vet(wf) }

// HasErrors reports whether any diagnostic is an error.
func HasErrors(diags []ValidationDiagnostic) bool { return model.HasErrors(diags) }

// TokenType is the set of value kinds a port accepts or emits; the zero
// value (AnyType) is unconstrained, so typing is adoptable port by port.
type TokenType = value.TypeSet

// AnyType accepts or produces every kind.
const AnyType = value.Any

// Value kinds, for building TokenTypes with TypeOf.
const (
	KindNil    = value.KindNil
	KindBool   = value.KindBool
	KindInt    = value.KindInt
	KindFloat  = value.KindFloat
	KindString = value.KindString
	KindList   = value.KindList
	KindRecord = value.KindRecord
)

// TypeOf builds the TokenType containing exactly the given kinds.
func TypeOf(kinds ...value.Kind) TokenType { return value.TypeOf(kinds...) }
