// Package qos implements the continuous QoS monitor of the introspection
// layer: sliding-window latency sketches, declarative SLO specs with
// multi-window burn-rate alerting, per-actor bottleneck watermarks, and an
// SLO-triggered flight recorder over the scheduler's decision stream. It
// subscribes to the obs.Engine hook stream (obs.QoSHooks) and mounts /slo
// and /debug/flightrecorder on the introspection server. The quantile
// sketch itself lives in internal/obs/sketch, shared with the latency
// attribution engine.
package qos

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/sketch"
)

// Options configures a Monitor.
type Options struct {
	// SlotWidth/Slots shape the per-sink latency window ring (default 5s x
	// 12 slots = 60s span).
	SlotWidth time.Duration
	Slots     int
	// RecorderSpan is how far back a flight-recorder freeze reaches
	// (default 30s).
	RecorderSpan time.Duration
	// Logger receives structured alert raise/clear events (default: JSON
	// to stderr).
	Logger *slog.Logger
}

// sinkTracker is the latency window of one tracked sink actor.
type sinkTracker struct {
	name string
	win  *sketch.Windowed
}

// Monitor is the continuous QoS monitor: it subscribes to an obs.Engine's
// hook stream and maintains sliding-window latency sketches per sink,
// burn-rate state per SLO, per-actor queue-wait watermarks, and the flight
// recorder. All hook-path methods are lock-free or stripe-locked; snapshots
// and scrapes walk the same state read-only.
type Monitor struct {
	eng  *obs.Engine
	opts Options
	log  *slog.Logger
	rec  *flightRecorder

	// tracks maps actor name -> *actorTrack: the single hook-path lookup.
	tracks sync.Map

	// mu guards the slos slice and sink registration (control path only).
	mu    sync.Mutex
	slos  []*sloTracker
	sinks []*sinkTracker

	policy   atomic.Pointer[string]
	lastSeen atomic.Int64 // engine-time watermark: max sink fireAt, unix nanos
	pickSeq  atomic.Uint64
}

// pickSampleEvery thins pick recording to one in N. Picks dominate the
// decision stream (one per firing in steady state), so at engine rates an
// unsampled ring holds well under a second of history — far short of the
// recorder's span. Sampling stretches the ring's horizon N-fold and cuts
// the hot-path recording cost the same way, while keeping the stream
// statistically faithful. Parks and empty claims are rarer and more
// diagnostic, so every one is kept.
const pickSampleEvery = 8

// NewMonitor builds a monitor, subscribes it to the engine's hook stream,
// registers its Prometheus series and mounts /slo and /debug/flightrecorder
// on the introspection handler. eng may be nil for standalone use (tests);
// hook methods can then be driven directly.
func NewMonitor(eng *obs.Engine, opts Options) *Monitor {
	log := opts.Logger
	if log == nil {
		log = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	m := &Monitor{
		eng:  eng,
		opts: opts,
		log:  log,
		rec:  newFlightRecorder(opts.RecorderSpan),
	}
	empty := ""
	m.policy.Store(&empty)
	if eng != nil {
		m.registerSeries(eng.Registry())
		eng.Mount("/slo", http.HandlerFunc(m.handleSLO))
		eng.Mount("/debug/flightrecorder", http.HandlerFunc(m.handleFlightRecorder))
		eng.SetQoS(m)
	}
	return m
}

// trackOf resolves (or creates) the per-actor track.
func (m *Monitor) trackOf(actor string) *actorTrack {
	if v, ok := m.tracks.Load(actor); ok {
		return v.(*actorTrack)
	}
	v, _ := m.tracks.LoadOrStore(actor, &actorTrack{})
	return v.(*actorTrack)
}

// TrackSink registers sink actors for end-to-end latency sketching. Firings
// of untracked actors still feed the bottleneck watermarks and the flight
// recorder, but no latency window.
func (m *Monitor) TrackSink(names ...string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, name := range names {
		t := m.trackOf(name)
		if t.sink != nil {
			continue
		}
		st := &sinkTracker{name: name, win: sketch.NewWindowed(m.opts.SlotWidth, m.opts.Slots)}
		t.sink = st
		m.sinks = append(m.sinks, st)
		sort.Slice(m.sinks, func(i, j int) bool { return m.sinks[i].name < m.sinks[j].name })
	}
}

// AddSLO installs an SLO; its sink is tracked automatically.
func (m *Monitor) AddSLO(spec SLO) {
	m.TrackSink(spec.Sink)
	st := newSLOTracker(spec)
	m.mu.Lock()
	m.slos = append(m.slos, st)
	m.mu.Unlock()
	t := m.trackOf(spec.Sink)
	m.mu.Lock()
	t.slos = append(t.slos, st)
	m.mu.Unlock()
}

// SetPolicy labels subsequent measurements with the active scheduling
// policy (reported on /slo; call Reset when switching policies mid-process
// so windows do not mix regimes).
func (m *Monitor) SetPolicy(label string) {
	m.policy.Store(&label)
}

// Policy returns the current policy label.
func (m *Monitor) Policy() string { return *m.policy.Load() }

// Reset clears every window, alert and recording — between successive runs
// (a virtual engine clock restarts at the epoch, so stale windows would
// otherwise shadow the new run).
func (m *Monitor) Reset() {
	m.tracks.Range(func(_, v any) bool {
		t := v.(*actorTrack)
		if t.sink != nil {
			t.sink.win.Reset()
		}
		t.waitEWMA.Store(0)
		return true
	})
	m.mu.Lock()
	slos := append([]*sloTracker(nil), m.slos...)
	m.mu.Unlock()
	for _, st := range slos {
		st.reset()
	}
	m.rec.Reset()
	m.lastSeen.Store(0)
}

// now returns the monitor's notion of current engine time: the latest sink
// firing seen, falling back to wall clock before any data arrives. Keeping
// window math on engine time makes the monitor clock-agnostic (virtual-time
// benchmark runs behave like wall-clock serving).
func (m *Monitor) now() time.Time {
	if ns := m.lastSeen.Load(); ns != 0 {
		return time.Unix(0, ns)
	}
	return time.Now()
}

// QoSFiring implements obs.QoSHooks: one completed firing. Firings are not
// recorded as flight-recorder decisions — the recorder captures the
// scheduler's decision stream, and the firings themselves arrive in the
// dump through the sampled wave lineages.
func (m *Monitor) QoSFiring(actor string, eventTime time.Time, hasEventTime bool,
	fireAt time.Time, cost, queueWait time.Duration) {
	t := m.trackOf(actor)
	if queueWait > 0 {
		t.observeWait(queueWait)
	}
	if t.sink == nil || !hasEventTime {
		return
	}
	ns := fireAt.UnixNano()
	for {
		cur := m.lastSeen.Load()
		if ns <= cur || m.lastSeen.CompareAndSwap(cur, ns) {
			break
		}
	}
	latency := fireAt.Sub(eventTime)
	if latency < 0 {
		latency = 0
	}
	t.sink.win.Observe(fireAt, latency)
	for _, st := range t.slos {
		st.observe(fireAt, latency, m.log, m.onRaise)
	}
}

// QoSDecision implements obs.QoSHooks: one scheduler decision. Picks are
// sampled (see pickSampleEvery) starting with the first, so a dump frozen
// early in a run still holds one; parks and empty claims are all recorded.
func (m *Monitor) QoSDecision(kind obs.DecisionKind, actor string) {
	if kind == obs.DecisionPick && (m.pickSeq.Add(1)-1)%pickSampleEvery != 0 {
		return
	}
	m.rec.Record(kind.String(), actor)
}

// onRaise runs when an SLO alert transitions to firing: name the current
// bottleneck and freeze the flight recorder around the violation.
func (m *Monitor) onRaise(t *sloTracker) {
	b := m.Bottleneck()
	if b.Actor != "" {
		m.log.Warn("qos bottleneck at alert",
			"slo", t.spec.Name,
			"actor", b.Actor,
			"score", b.Score,
			"ready", b.Ready,
			"queue_wait_seconds", b.QueueWaitSeconds)
	}
	m.rec.Freeze("slo burn-rate alert", t.spec.Name, m.eng.Lineage())
}

// Bottleneck samples live queue depths against the queue-wait watermarks
// and names the heaviest actor.
func (m *Monitor) Bottleneck() Bottleneck {
	if m.eng == nil {
		return Bottleneck{}
	}
	return bottleneckOf(&m.tracks, m.eng.QueueDepths)
}

// Frozen returns the flight recorder's latest dump, or nil.
func (m *Monitor) Frozen() *Dump { return m.rec.Frozen() }

// SinkReport is one sink's live latency window in the /slo view.
type SinkReport struct {
	Sink          string  `json:"sink"`
	WindowSeconds float64 `json:"window_seconds"`
	Count         int64   `json:"count"`
	P50Seconds    float64 `json:"p50_seconds"`
	P95Seconds    float64 `json:"p95_seconds"`
	P99Seconds    float64 `json:"p99_seconds"`
	MaxSeconds    float64 `json:"max_seconds"`
}

// SLOReport is one SLO's burn-rate state in the /slo view.
type SLOReport struct {
	Name              string  `json:"name"`
	Sink              string  `json:"sink"`
	Target            float64 `json:"target"`
	ThresholdSeconds  float64 `json:"threshold_seconds"`
	FastWindowSeconds float64 `json:"fast_window_seconds"`
	SlowWindowSeconds float64 `json:"slow_window_seconds"`
	FastBurn          float64 `json:"fast_burn"`
	SlowBurn          float64 `json:"slow_burn"`
	BurnThreshold     float64 `json:"burn_threshold"`
	FastGood          int64   `json:"fast_good"`
	FastTotal         int64   `json:"fast_total"`
	Firing            bool    `json:"firing"`
	RaisedAt          string  `json:"raised_at,omitempty"`
	AlertsTotal       int64   `json:"alerts_total"`
}

// RecorderReport summarizes the flight recorder in the /slo view.
type RecorderReport struct {
	Frozen    bool   `json:"frozen"`
	FrozenAt  string `json:"frozen_at,omitempty"`
	Reason    string `json:"reason,omitempty"`
	SLO       string `json:"slo,omitempty"`
	Decisions int    `json:"decisions,omitempty"`
	Waves     int    `json:"waves,omitempty"`
}

// Report is the full /slo JSON shape.
type Report struct {
	Policy         string         `json:"policy,omitempty"`
	Now            string         `json:"now"`
	Sinks          []SinkReport   `json:"sinks"`
	SLOs           []SLOReport    `json:"slos"`
	Bottleneck     Bottleneck     `json:"bottleneck"`
	FlightRecorder RecorderReport `json:"flight_recorder"`
}

// Snapshot evaluates every SLO at the current engine time and assembles the
// full QoS report.
func (m *Monitor) Snapshot() Report {
	now := m.now()
	m.mu.Lock()
	sinks := append([]*sinkTracker(nil), m.sinks...)
	slos := append([]*sloTracker(nil), m.slos...)
	m.mu.Unlock()

	rep := Report{
		Policy: m.Policy(),
		Now:    now.Format(time.RFC3339Nano),
		Sinks:  []SinkReport{},
		SLOs:   []SLOReport{},
	}
	for _, st := range sinks {
		snap := st.win.Snapshot(now, 0)
		rep.Sinks = append(rep.Sinks, SinkReport{
			Sink:          st.name,
			WindowSeconds: st.win.Span().Seconds(),
			Count:         snap.Total,
			P50Seconds:    snap.Quantile(0.50).Seconds(),
			P95Seconds:    snap.Quantile(0.95).Seconds(),
			P99Seconds:    snap.Quantile(0.99).Seconds(),
			MaxSeconds:    snap.Max().Seconds(),
		})
	}
	for _, st := range slos {
		// A scrape also advances the alert state machine, so an alert can
		// clear (or raise) even when the sink has gone quiet.
		st.maybeEvaluate(now, m.log, m.onRaise)
		fastGood, fastTotal := st.win.counts(now, st.spec.FastWindow)
		slowGood, slowTotal := st.win.counts(now, st.spec.SlowWindow)
		sr := SLOReport{
			Name:              st.spec.Name,
			Sink:              st.spec.Sink,
			Target:            st.spec.Target,
			ThresholdSeconds:  st.spec.Threshold.Seconds(),
			FastWindowSeconds: st.spec.FastWindow.Seconds(),
			SlowWindowSeconds: st.spec.SlowWindow.Seconds(),
			FastBurn:          st.burn(fastGood, fastTotal),
			SlowBurn:          st.burn(slowGood, slowTotal),
			BurnThreshold:     st.spec.BurnThreshold,
			FastGood:          fastGood,
			FastTotal:         fastTotal,
			Firing:            st.firing.Load(),
			AlertsTotal:       st.alerts.Load(),
		}
		if at := st.raisedAt.Load(); at != 0 {
			sr.RaisedAt = time.Unix(0, at).Format(time.RFC3339Nano)
		}
		rep.SLOs = append(rep.SLOs, sr)
	}
	rep.Bottleneck = m.Bottleneck()
	if d := m.rec.Frozen(); d != nil {
		rep.FlightRecorder = RecorderReport{
			Frozen:    true,
			FrozenAt:  d.FrozenAt.Format(time.RFC3339Nano),
			Reason:    d.Reason,
			SLO:       d.SLO,
			Decisions: len(d.Decisions),
			Waves:     len(d.Waves),
		}
	}
	return rep
}

// registerSeries adds the QoS families to the engine registry. They are
// registered only here, so an engine without a monitor keeps its exposition
// unchanged.
func (m *Monitor) registerSeries(r *obs.Registry) {
	perSink := func(f func(name string, snap sketch.Snapshot) float64) func(emit func(string, float64)) {
		return func(emit func(string, float64)) {
			now := m.now()
			m.mu.Lock()
			sinks := append([]*sinkTracker(nil), m.sinks...)
			m.mu.Unlock()
			for _, st := range sinks {
				emit(st.name, f(st.name, st.win.Snapshot(now, 0)))
			}
		}
	}
	r.RegisterCollector("confluence_qos_latency_p50_seconds",
		"Windowed p50 end-to-end wave latency by sink.", "gauge", "sink",
		perSink(func(_ string, s sketch.Snapshot) float64 { return s.Quantile(0.50).Seconds() }))
	r.RegisterCollector("confluence_qos_latency_p95_seconds",
		"Windowed p95 end-to-end wave latency by sink.", "gauge", "sink",
		perSink(func(_ string, s sketch.Snapshot) float64 { return s.Quantile(0.95).Seconds() }))
	r.RegisterCollector("confluence_qos_latency_p99_seconds",
		"Windowed p99 end-to-end wave latency by sink.", "gauge", "sink",
		perSink(func(_ string, s sketch.Snapshot) float64 { return s.Quantile(0.99).Seconds() }))
	r.RegisterCollector("confluence_qos_latency_max_seconds",
		"Windowed max end-to-end wave latency by sink.", "gauge", "sink",
		perSink(func(_ string, s sketch.Snapshot) float64 { return s.Max().Seconds() }))
	r.RegisterCollector("confluence_qos_latency_count",
		"Samples in the latency window by sink.", "gauge", "sink",
		perSink(func(_ string, s sketch.Snapshot) float64 { return float64(s.Total) }))

	perSLO := func(f func(t *sloTracker, now time.Time) float64) func(emit func(string, float64)) {
		return func(emit func(string, float64)) {
			now := m.now()
			m.mu.Lock()
			slos := append([]*sloTracker(nil), m.slos...)
			m.mu.Unlock()
			for _, st := range slos {
				emit(st.spec.Name, f(st, now))
			}
		}
	}
	r.RegisterCollector("confluence_qos_slo_fast_burn",
		"Burn rate over the SLO's fast window.", "gauge", "slo",
		perSLO(func(t *sloTracker, now time.Time) float64 {
			return t.burn(t.win.counts(now, t.spec.FastWindow))
		}))
	r.RegisterCollector("confluence_qos_slo_slow_burn",
		"Burn rate over the SLO's slow window.", "gauge", "slo",
		perSLO(func(t *sloTracker, now time.Time) float64 {
			return t.burn(t.win.counts(now, t.spec.SlowWindow))
		}))
	r.RegisterCollector("confluence_qos_slo_firing",
		"Whether the SLO's burn-rate alert is firing (0/1).", "gauge", "slo",
		perSLO(func(t *sloTracker, _ time.Time) float64 {
			if t.firing.Load() {
				return 1
			}
			return 0
		}))
	r.RegisterCollector("confluence_qos_slo_alerts_total",
		"Burn-rate alerts raised since start.", "counter", "slo",
		perSLO(func(t *sloTracker, _ time.Time) float64 {
			return float64(t.alerts.Load())
		}))

	r.RegisterCollector("confluence_qos_bottleneck_score",
		"Ready-depth x queue-wait score of the current bottleneck actor.", "gauge", "actor",
		func(emit func(string, float64)) {
			if b := m.Bottleneck(); b.Actor != "" {
				emit(b.Actor, b.Score)
			}
		})
}

// handleSLO serves the /slo view.
func (m *Monitor) handleSLO(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, m.Snapshot())
}

// handleFlightRecorder serves the latest frozen dump, or 404 before any
// alert has frozen one.
func (m *Monitor) handleFlightRecorder(w http.ResponseWriter, _ *http.Request) {
	d := m.rec.Frozen()
	if d == nil {
		http.Error(w, "flight recorder not frozen (no SLO alert yet)", http.StatusNotFound)
		return
	}
	type waveView struct {
		ID    string        `json:"id"`
		Spans []obs.HopView `json:"spans"`
	}
	waves := make([]waveView, 0, len(d.Waves))
	for _, wl := range d.Waves {
		waves = append(waves, waveView{ID: wl.ID, Spans: obs.HopViews(wl.Hops)})
	}
	writeJSON(w, map[string]any{
		"frozen_at":    d.FrozenAt.Format(time.RFC3339Nano),
		"reason":       d.Reason,
		"slo":          d.SLO,
		"span_seconds": d.Span.Seconds(),
		"decisions":    d.Decisions,
		"waves":        waves,
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone mid-write
}
