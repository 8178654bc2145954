package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/metrics"
)

// server is the introspection HTTP server behind -obs / confluence.Observe.
type server struct {
	ln  net.Listener
	srv *http.Server
}

// Handler returns the introspection handler: /metrics (Prometheus text
// exposition), /debug/pprof/*, /workflows (JSON snapshot of watched
// workflows), /provenance (wave-tag lineage queries), /latency, /cluster,
// /healthz (readiness) and any routes added via Mount. Dispatch goes
// through an atomically-swapped mux so Mount works while the server runs.
func (e *Engine) Handler() http.Handler {
	e.liveMux.Store(e.buildMux())
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		e.liveMux.Load().ServeHTTP(w, r)
	})
}

// Mount adds an extra route to the introspection handler (e.g. the QoS
// layer's /slo and /debug/flightrecorder). Safe before or after Serve; a
// later Mount on the same pattern replaces the handler.
func (e *Engine) Mount(pattern string, h http.Handler) {
	if e == nil {
		return
	}
	e.mu.Lock()
	if e.extra == nil {
		e.extra = map[string]http.Handler{}
	}
	e.extra[pattern] = h
	e.mu.Unlock()
	e.liveMux.Store(e.buildMux())
}

// buildMux assembles the route table: built-in views plus mounted extras.
func (e *Engine) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", e.handleMetrics)
	mux.HandleFunc("/workflows", e.handleWorkflows)
	mux.HandleFunc("/provenance", e.handleProvenance)
	mux.HandleFunc("/latency", e.handleLatency)
	mux.HandleFunc("/latency/wave/", e.handleLatencyWave)
	mux.HandleFunc("/cluster", e.handleCluster)
	mux.HandleFunc("/cluster/metrics", e.handleClusterMetrics)
	mux.HandleFunc("/healthz", e.handleHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "confluence introspection: /metrics /workflows /provenance /latency /cluster /healthz /debug/pprof/\n")
	})
	e.mu.Lock()
	for pattern, h := range e.extra {
		mux.Handle(pattern, h)
	}
	e.mu.Unlock()
	return mux
}

// Serve binds addr (host:port; port 0 picks a free port) and serves the
// introspection handler until Close. It returns the bound address.
func (e *Engine) Serve(addr string) (string, error) {
	if e == nil {
		return "", fmt.Errorf("obs: Serve on nil Engine")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &server{ln: ln, srv: &http.Server{Handler: e.Handler()}}
	e.mu.Lock()
	e.srv = s
	e.mu.Unlock()
	go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Close
	return ln.Addr().String(), nil
}

// Addr returns the bound address of the serving listener, or "".
func (e *Engine) Addr() string {
	if e == nil {
		return ""
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.srv == nil {
		return ""
	}
	return e.srv.ln.Addr().String()
}

// Close shuts the introspection server down, if one is serving.
func (e *Engine) Close() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	s := e.srv
	e.srv = nil
	e.mu.Unlock()
	if s == nil {
		return nil
	}
	return s.srv.Close()
}

func (e *Engine) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	e.lastScrape.Store(time.Now().UnixNano())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e.reg.WritePrometheus(w) //nolint:errcheck // client gone mid-write
}

// handleHealthz reports runtime state for readiness probes: "running" while
// any watched director still has pending work, "quiesced" once all watched
// directors drained, "idle" when nothing liveness-probing is watched; plus
// configured worker count and the age of the last /metrics scrape (-1 =
// never scraped).
func (e *Engine) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	watches := e.snapshotWatches()
	state := "idle"
	workers := 0
	sawDirector := false
	for _, wa := range watches {
		if wr, ok := wa.dir.(workerReporter); ok {
			workers += wr.Workers()
		}
		if pr, ok := wa.dir.(pendingReporter); ok {
			sawDirector = true
			if pr.HasPendingWork() {
				state = "running"
			}
		}
	}
	if sawDirector && state == "idle" {
		state = "quiesced"
	}
	scrapeAge := -1.0
	if ns := e.lastScrape.Load(); ns != 0 {
		scrapeAge = time.Since(time.Unix(0, ns)).Seconds()
	}
	writeJSON(w, map[string]any{
		"state":                   state,
		"node":                    e.nodeName,
		"workflows":               len(watches),
		"workers":                 workers,
		"last_scrape_age_seconds": scrapeAge,
	})
}

// workflowView is the /workflows JSON shape.
type workflowView struct {
	Name     string                `json:"name"`
	Director string                `json:"director,omitempty"`
	Actors   []actorView           `json:"actors"`
	Shed     []metrics.ShedStats   `json:"shed,omitempty"`
	Bridges  []metrics.BridgeStats `json:"bridges,omitempty"`
}

type actorView struct {
	Name        string  `json:"name"`
	Invocations int64   `json:"invocations"`
	EventsIn    int64   `json:"events_in"`
	EventsOut   int64   `json:"events_out"`
	Arrivals    int64   `json:"arrivals"`
	CostSeconds float64 `json:"cost_seconds"`
	Selectivity float64 `json:"selectivity"`
	InputRate   float64 `json:"input_rate"`
	OutputRate  float64 `json:"output_rate"`
}

type responseView struct {
	Name    string `json:"name"`
	Summary any    `json:"summary"`
}

func (e *Engine) handleWorkflows(w http.ResponseWriter, _ *http.Request) {
	watches := e.snapshotWatches()
	e.mu.Lock()
	responses := []any{}
	for _, c := range e.responses {
		responses = append(responses, responseView{Name: c.Name(), Summary: c.Summary()})
	}
	e.mu.Unlock()

	// The latency attribution headline: the top actors by critical-path
	// share, so /workflows answers "where does the time go" at a glance.
	var attribution any
	if e.latencyEnabled() {
		attribution = e.LatencySummary(3)
	}

	views := make([]workflowView, 0, len(watches))
	for _, wa := range watches {
		v := workflowView{Name: wa.name, Actors: []actorView{}}
		if wa.dir != nil {
			v.Director = wa.dir.Name()
		}
		if wa.wf != nil {
			v.Shed = metrics.ShedStatsOf(wa.wf)
			v.Bridges = metrics.BridgeStatsOf(wa.wf)
		}
		if wa.stats != nil {
			for _, na := range wa.stats.SnapshotSorted() {
				a := na.Actor
				v.Actors = append(v.Actors, actorView{
					Name:        na.Name,
					Invocations: a.Invocations,
					EventsIn:    a.InputEvents,
					EventsOut:   a.OutputEvents,
					Arrivals:    a.Arrivals,
					CostSeconds: a.Cost(),
					Selectivity: a.Selectivity(),
					InputRate:   a.InputRate,
					OutputRate:  a.OutputRate,
				})
			}
		}
		views = append(views, v)
	}
	out := map[string]any{"workflows": views, "responses": responses}
	if attribution != nil {
		out["latency"] = attribution
	}
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone mid-write
}
