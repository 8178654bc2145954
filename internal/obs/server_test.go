package obs_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/stafilos"
	"repro/internal/stats"
	"repro/internal/value"
	"repro/internal/window"
)

// TestServerSmoke starts the introspection server on an ephemeral port, runs
// a live demo pipeline (with a pass-all shedder) under the 4-worker parallel
// director, scrapes /metrics while the run is in flight, and checks every
// endpoint afterwards: the Prometheus series the acceptance criteria name,
// the /workflows JSON snapshot, the /provenance index and one wave's
// lineage, plus /debug/pprof/.
func TestServerSmoke(t *testing.T) {
	eng := obs.NewEngine(obs.Options{SampleRate: 1})
	addr, err := eng.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	base := "http://" + addr

	const events = 200
	st := stats.NewRegistry()
	wf := model.NewWorkflow("obswf")
	src := actors.NewGenerator("src", time.Now().Add(-time.Hour), time.Millisecond, events,
		func(i int) value.Value { return value.Int(int64(i)) })
	// Lag bound far above the backdate, so the shedder passes everything.
	shedder := actors.NewShedder("shedder", 24*time.Hour)
	stage := actors.NewFunc("stage1", window.Passthrough(),
		func(_ *model.FireContext, w *window.Window, emit func(value.Value)) error {
			time.Sleep(200 * time.Microsecond)
			for _, tok := range w.Tokens() {
				emit(tok)
			}
			return nil
		})
	sink := actors.NewCollect("sink")
	wf.MustAdd(src, shedder, stage, sink)
	wf.MustConnect(src.Out(), shedder.In())
	wf.MustConnect(shedder.Out(), stage.In())
	wf.MustConnect(stage.Out(), sink.In())
	d := stafilos.NewParallelDirector(sched.NewFIFO(),
		stafilos.Options{SourceInterval: 5, Stats: st, Obs: eng}, 4)
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	eng.Watch(wf.Name(), wf, st, d)

	runErr := make(chan error, 1)
	go func() { runErr <- d.Run(context.Background()) }()

	// Scrape while the pipeline is live.
	liveBody := ""
	for i := 0; i < 200; i++ {
		body, code := get(t, base+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("live /metrics status %d", code)
		}
		liveBody = body
		select {
		case err := <-runErr:
			if err != nil {
				t.Fatal(err)
			}
			runErr <- nil
			i = 200
		default:
			time.Sleep(2 * time.Millisecond)
		}
	}
	if !strings.Contains(liveBody, "confluence_") {
		t.Error("live scrape carried no confluence series")
	}
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	if len(sink.Tokens) != events {
		t.Fatalf("sink got %d events, want %d", len(sink.Tokens), events)
	}

	body, code := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		`confluence_actor_firings_total{actor="src"}`,
		`confluence_actor_firings_total{actor="sink"}`,
		`confluence_firing_seconds_bucket{actor="stage1",le="+Inf"}`,
		"confluence_queue_wait_seconds_count",
		"confluence_sched_claim_seconds_count",
		`confluence_sched_claims_total{result="picked"}`,
		`confluence_sched_picked_total{actor="stage1"}`,
		`confluence_queue_depth{port="sink.in"}`,
		`confluence_actor_ready_windows{actor="src"}`,
		fmt.Sprintf(`confluence_shed_passed_total{actor="shedder"} %d`, events),
		`confluence_shed_dropped_total{actor="shedder"} 0`,
		"confluence_workers 4",
		"confluence_executing_firings",
		"confluence_peak_concurrency",
		"confluence_trace_spans_total",
		"confluence_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /healthz: the run is complete, so the director reports quiesced; the
	// /metrics scrapes above stamped a scrape age.
	body, code = get(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	var health struct {
		State         string  `json:"state"`
		Workflows     int     `json:"workflows"`
		Workers       int     `json:"workers"`
		LastScrapeAge float64 `json:"last_scrape_age_seconds"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/healthz JSON: %v\n%s", err, body)
	}
	if health.State != "quiesced" {
		t.Errorf("/healthz state %q after completion, want quiesced", health.State)
	}
	if health.Workers != 4 || health.Workflows != 1 {
		t.Errorf("/healthz workers=%d workflows=%d, want 4/1", health.Workers, health.Workflows)
	}
	if health.LastScrapeAge < 0 {
		t.Errorf("/healthz last_scrape_age_seconds = %v, want >= 0 after scraping", health.LastScrapeAge)
	}

	// /workflows: the watched workflow with per-actor statistics and the
	// shedder's counters.
	body, code = get(t, base+"/workflows")
	if code != http.StatusOK {
		t.Fatalf("/workflows status %d", code)
	}
	var wfs struct {
		Workflows []struct {
			Name     string `json:"name"`
			Director string `json:"director"`
			Actors   []struct {
				Name        string `json:"name"`
				Invocations int64  `json:"invocations"`
			} `json:"actors"`
			Shed []struct {
				Actor         string  `json:"actor"`
				Dropped       int64   `json:"dropped"`
				Passed        int64   `json:"passed"`
				MaxLagSeconds float64 `json:"max_lag_seconds"`
			} `json:"shed"`
		} `json:"workflows"`
	}
	if err := json.Unmarshal([]byte(body), &wfs); err != nil {
		t.Fatalf("/workflows JSON: %v\n%s", err, body)
	}
	if len(wfs.Workflows) != 1 || wfs.Workflows[0].Name != "obswf" {
		t.Fatalf("/workflows = %+v", wfs.Workflows)
	}
	srcSeen := false
	for _, a := range wfs.Workflows[0].Actors {
		if a.Name == "src" && a.Invocations > 0 {
			srcSeen = true
		}
	}
	if !srcSeen {
		t.Errorf("/workflows missing src invocations: %s", body)
	}
	if len(wfs.Workflows[0].Shed) != 1 {
		t.Fatalf("/workflows shed = %+v, want the shedder", wfs.Workflows[0].Shed)
	}
	if sh := wfs.Workflows[0].Shed[0]; sh.Actor != "shedder" || sh.Passed != events || sh.Dropped != 0 || sh.MaxLagSeconds != (24*time.Hour).Seconds() {
		t.Errorf("/workflows shed = %+v", sh)
	}

	// /provenance index, then one wave's lineage.
	body, code = get(t, base+"/provenance")
	if code != http.StatusOK {
		t.Fatalf("/provenance status %d", code)
	}
	var idx struct {
		Waves []struct {
			ID   string `json:"id"`
			Hops int    `json:"hops"`
		} `json:"waves"`
	}
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatalf("/provenance JSON: %v\n%s", err, body)
	}
	if len(idx.Waves) == 0 {
		t.Fatalf("/provenance index lists no waves: %s", body)
	}
	body, code = get(t, base+"/provenance?wave="+idx.Waves[0].ID)
	if code != http.StatusOK {
		t.Fatalf("/provenance?wave=%s status %d: %s", idx.Waves[0].ID, code, body)
	}
	var pv struct {
		Wave struct {
			ID   string `json:"id"`
			Hops []struct {
				Actor       string  `json:"actor"`
				CostSeconds float64 `json:"cost_seconds"`
			} `json:"hops"`
		} `json:"wave"`
	}
	if err := json.Unmarshal([]byte(body), &pv); err != nil {
		t.Fatalf("/provenance?wave= JSON: %v\n%s", err, body)
	}
	if len(pv.Wave.Hops) == 0 {
		t.Fatalf("/provenance?wave=%s = %s", idx.Waves[0].ID, body)
	}
	if first := pv.Wave.Hops[0].Actor; first != "src" {
		t.Errorf("lineage starts at %q, want src", first)
	}

	if _, code = get(t, base+"/provenance?wave=t999999999-42"); code != http.StatusNotFound {
		t.Errorf("unknown wave status %d, want 404", code)
	}
	if _, code = get(t, base+"/provenance?wave=bogus"); code != http.StatusBadRequest {
		t.Errorf("malformed wave id status %d, want 400", code)
	}
	if _, code = get(t, base+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}
	if body, code = get(t, base+"/"); code != http.StatusOK || !strings.Contains(body, "introspection") {
		t.Errorf("index status %d body %q", code, body)
	}
	if _, code = get(t, base+"/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path status %d, want 404", code)
	}
}

// get fetches url, retrying transient dial errors (accept-queue churn on a
// busy CI host) so the smoke test cannot flake on them.
func get(t *testing.T, url string) (string, int) {
	t.Helper()
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		resp, err := http.Get(url)
		if err != nil {
			lastErr = err
			time.Sleep(time.Duration(attempt+1) * 20 * time.Millisecond)
			continue
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s read: %v", url, err)
		}
		return string(b), resp.StatusCode
	}
	t.Fatalf("GET %s: %v", url, lastErr)
	return "", 0
}
