// Package obs is the engine introspection layer: a stdlib-only telemetry
// registry exported in Prometheus text exposition format, one lineage store
// (internal/obs/prov) recording a hop per firing of each sampled wave, and an
// HTTP server mounting /metrics, /debug/pprof/, /workflows and /provenance.
//
// The package sits below every director: internal/stafilos and internal/sched
// call the Engine's hot-path hooks (nil Engine = observability off, zero
// overhead), while workflow-level series (per-actor statistics, queue depths,
// shed drops, worker utilization) are collected lazily at scrape time from
// the watched workflows, so the engine hot path never pays for them.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs/sketch"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; all methods are lock-free and safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative to preserve counter semantics).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// histFiniteBuckets is the number of finite buckets a histogram renders:
// the latency sketch's power-of-two microsecond buckets from 1µs (2^0) to
// ~4.19s (2^22); slower observations count only toward +Inf.
const histFiniteBuckets = 23

// histBound returns the i-th bucket's upper bound in seconds.
func histBound(i int) float64 { return math.Ldexp(1e-6, i) }

// metric type names in the exposition format.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// family is one metric family: a name, help text, a type, and either a
// single unlabeled instrument, labeled children, or a scrape-time collector.
type family struct {
	name  string
	help  string
	typ   string
	label string // label name for children ("" = single instrument)

	single   any      // *Counter or *sketch.Sketch when label == ""
	children sync.Map // label value (string) -> instrument

	// collect, when set, produces the family's samples at scrape time
	// instead of from stored instruments.
	collect func(emit func(labelValue string, value float64))
}

// CounterVec is a family of counters keyed by one label.
type CounterVec struct{ fam *family }

// With resolves the counter child for the given label value, creating it on
// first use. Hot loops may cache the returned handle.
func (v *CounterVec) With(labelValue string) *Counter {
	if c, ok := v.fam.children.Load(labelValue); ok {
		return c.(*Counter)
	}
	c, _ := v.fam.children.LoadOrStore(labelValue, &Counter{})
	return c.(*Counter)
}

// HistogramVec is a family of latency histograms keyed by one label.
type HistogramVec struct{ fam *family }

// With resolves the histogram child for the given label value.
func (v *HistogramVec) With(labelValue string) *sketch.Sketch {
	if h, ok := v.fam.children.Load(labelValue); ok {
		return h.(*sketch.Sketch)
	}
	h, _ := v.fam.children.LoadOrStore(labelValue, &sketch.Sketch{})
	return h.(*sketch.Sketch)
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration is not safe for concurrent use (do it at
// construction); updating registered instruments and WritePrometheus are.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(f *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.families[f.name]; ok {
		return existing
	}
	r.families[f.name] = f
	return f
}

// NewCounter registers and returns an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	f := r.register(&family{name: name, help: help, typ: typeCounter, single: c})
	return f.single.(*Counter)
}

// NewHistogram registers and returns an unlabeled latency histogram.
func (r *Registry) NewHistogram(name, help string) *sketch.Sketch {
	h := &sketch.Sketch{}
	f := r.register(&family{name: name, help: help, typ: typeHistogram, single: h})
	return f.single.(*sketch.Sketch)
}

// NewCounterVec registers a counter family keyed by one label.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	f := r.register(&family{name: name, help: help, typ: typeCounter, label: label})
	return &CounterVec{fam: f}
}

// NewHistogramVec registers a histogram family keyed by one label.
func (r *Registry) NewHistogramVec(name, help, label string) *HistogramVec {
	f := r.register(&family{name: name, help: help, typ: typeHistogram, label: label})
	return &HistogramVec{fam: f}
}

// RegisterCollector registers a scrape-time family: collect is invoked on
// every WritePrometheus call and emits (labelValue, value) samples. Pass
// label "" for a single unlabeled sample (emit with labelValue ""). typ is
// "counter" or "gauge".
func (r *Registry) RegisterCollector(name, help, typ, label string, collect func(emit func(labelValue string, value float64))) {
	r.register(&family{name: name, help: help, typ: typ, label: label, collect: collect})
}

// WritePrometheus renders every family in text exposition format, families
// sorted by name and samples sorted by label value, so output is
// deterministic for identical metric states.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		switch {
		case f.collect != nil:
			type sample struct {
				label string
				value float64
			}
			var samples []sample
			f.collect(func(lv string, v float64) {
				samples = append(samples, sample{lv, v})
			})
			sort.Slice(samples, func(i, j int) bool { return samples[i].label < samples[j].label })
			for _, s := range samples {
				writeSample(&b, f.name, f.label, s.label, s.value)
			}
		case f.label == "":
			writeInstrument(&b, f.name, "", "", f.single)
		default:
			type child struct {
				label string
				inst  any
			}
			var cs []child
			f.children.Range(func(k, v any) bool {
				cs = append(cs, child{k.(string), v})
				return true
			})
			sort.Slice(cs, func(i, j int) bool { return cs[i].label < cs[j].label })
			for _, c := range cs {
				writeInstrument(&b, f.name, f.label, c.label, c.inst)
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeInstrument renders one stored instrument's samples.
func writeInstrument(b *strings.Builder, name, label, labelValue string, inst any) {
	switch m := inst.(type) {
	case *Counter:
		writeSample(b, name, label, labelValue, float64(m.Value()))
	case *sketch.Sketch:
		writeHistogram(b, name, label, labelValue, m)
	}
}

// writeHistogram renders the first histFiniteBuckets sketch buckets
// cumulatively, +Inf as the total, plus _sum (seconds) and _count.
func writeHistogram(b *strings.Builder, name, label, labelValue string, h *sketch.Sketch) {
	var s sketch.Snapshot
	h.Load(&s)
	cum := int64(0)
	for i := 0; i < histFiniteBuckets; i++ {
		cum += s.Counts[i]
		le := strconv.FormatFloat(histBound(i), 'g', -1, 64)
		b.WriteString(name)
		b.WriteString("_bucket{")
		if label != "" {
			fmt.Fprintf(b, "%s=%q,", label, labelValue)
		}
		fmt.Fprintf(b, "le=%q} %d\n", le, cum)
	}
	b.WriteString(name)
	b.WriteString("_bucket{")
	if label != "" {
		fmt.Fprintf(b, "%s=%q,", label, labelValue)
	}
	fmt.Fprintf(b, "le=\"+Inf\"} %d\n", s.Total)
	sumName, countName := name+"_sum", name+"_count"
	writeSample(b, sumName, label, labelValue, float64(s.SumNS)/1e9)
	writeSample(b, countName, label, labelValue, float64(s.Total))
}

// writeSample renders one sample line. Integral values print without a
// decimal point so counters read naturally. Label values go through %q,
// whose escaping (backslash, quote, newline) matches the exposition format.
func writeSample(b *strings.Builder, name, label, labelValue string, v float64) {
	b.WriteString(name)
	if label != "" {
		fmt.Fprintf(b, "{%s=%q}", label, labelValue)
	}
	b.WriteByte(' ')
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		b.WriteString(strconv.FormatInt(int64(v), 10))
	} else {
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	b.WriteByte('\n')
}
