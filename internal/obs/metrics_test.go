package obs

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// histLes are the rendered upper bounds of the finite histogram buckets,
// spelled out so the golden test pins the exposition format independently of
// histBound.
var histLes = []string{
	"1e-06", "2e-06", "4e-06", "8e-06", "1.6e-05", "3.2e-05", "6.4e-05",
	"0.000128", "0.000256", "0.000512", "0.001024", "0.002048", "0.004096",
	"0.008192", "0.016384", "0.032768", "0.065536", "0.131072", "0.262144",
	"0.524288", "1.048576", "2.097152", "4.194304",
}

// TestWritePrometheusGolden pins the full text exposition: HELP/TYPE lines,
// family ordering by name, sample ordering by label value, integral-value
// rendering, cumulative histogram buckets with _sum in seconds and _count.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("demo_events_total", "Events processed.")
	v := r.NewCounterVec("demo_firings_total", "Firings by actor.", "actor")
	h := r.NewHistogram("demo_latency_seconds", "Firing latency.")
	r.RegisterCollector("demo_collected", "Scrape-time samples.", typeGauge, "actor",
		func(emit func(string, float64)) {
			// Emitted out of order: WritePrometheus must sort by label value.
			emit("zeta", 1.5)
			emit("alpha", 2)
		})

	c.Add(41)
	c.Inc()
	v.With("sink").Add(2)
	v.With("avg").Inc()
	h.Observe(1 * time.Microsecond)  // bucket le="1e-06"
	h.Observe(3 * time.Microsecond)  // bucket le="4e-06"
	h.Observe(3 * time.Microsecond)  // bucket le="4e-06"
	h.Observe(10 * time.Second)      // +Inf overflow
	h.Observe(-5 * time.Millisecond) // clamped to 0 -> first bucket

	var want strings.Builder
	want.WriteString(`# HELP demo_collected Scrape-time samples.
# TYPE demo_collected gauge
demo_collected{actor="alpha"} 2
demo_collected{actor="zeta"} 1.5
# HELP demo_events_total Events processed.
# TYPE demo_events_total counter
demo_events_total 42
# HELP demo_firings_total Firings by actor.
# TYPE demo_firings_total counter
demo_firings_total{actor="avg"} 1
demo_firings_total{actor="sink"} 2
# HELP demo_latency_seconds Firing latency.
# TYPE demo_latency_seconds histogram
`)
	cum := []int{2, 2, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4}
	for i, le := range histLes {
		fmt.Fprintf(&want, "demo_latency_seconds_bucket{le=%q} %d\n", le, cum[i])
	}
	want.WriteString(`demo_latency_seconds_bucket{le="+Inf"} 5
demo_latency_seconds_sum 10.000007
demo_latency_seconds_count 5
`)

	var got strings.Builder
	if err := r.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("exposition mismatch\n--- got ---\n%s\n--- want ---\n%s", got.String(), want.String())
	}
}

// TestWritePrometheusDeterministic checks repeated scrapes of an unchanged
// registry render byte-identical output.
func TestWritePrometheusDeterministic(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("x_total", "X.", "actor")
	for _, a := range []string{"d", "b", "a", "c"} {
		v.With(a).Inc()
	}
	var first strings.Builder
	if err := r.WritePrometheus(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		var again strings.Builder
		if err := r.WritePrometheus(&again); err != nil {
			t.Fatal(err)
		}
		if again.String() != first.String() {
			t.Fatalf("scrape %d differs:\n%s\nvs\n%s", i, again.String(), first.String())
		}
	}
}

// TestLabelEscaping checks label values with quotes, backslashes and
// newlines render in valid exposition escaping.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("esc_total", "Escapes.", "port")
	v.With(`a"b\c` + "\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{port="a\"b\\c\nd"} 1` + "\n"
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaped sample %q not found in:\n%s", want, b.String())
	}
}
