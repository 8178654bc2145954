package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mutant is one seeded protocol bug: a single textual edit of engine source
// and the check that catches it. Rows with an analyzer are applied to a
// temporary copy of the module and must make that analyzer report; the
// other rows name the tier-1 or -race test that fails on the edit in at
// least 9 of 10 runs (DESIGN.md, "Mutation matrix", has the measured
// rates). An analyzer earns its place in Analyzers() by being the only
// check that catches some row; a new analyzer adds its rows here the same
// way.
type mutant struct {
	name          string
	file          string // module-relative
	before, after string
	analyzer      string // the confvet analyzer that flags the edit
	caughtBy      string // "pkg/path:TestName" (go test) or "-race pkg/path:TestName"
}

var mutants = []mutant{
	// use-after-release: the sequential director recycles the consumed window
	// before the firing reads it.
	{
		name: "uar_seq", file: "internal/stafilos/director.go",
		before:   "\te.ctx.Stage(item.Port, item.Win)\n\t_, after, err := d.fire(e, d.clk.Now(), trigger, consumed, item.Enqueued)\n\tif err == nil {\n\t\trecycle(&item)\n\t}\n",
		after:    "\te.ctx.Stage(item.Port, item.Win)\n\trecycle(&item)\n\t_, after, err := d.fire(e, d.clk.Now(), trigger, consumed, item.Enqueued)\n",
		caughtBy: "internal/stafilos:TestLQFSchedulerRunsPipeline",
	},
	// use-after-release: the parallel director recycles the batch before the
	// trace reads its trigger.
	{
		name: "uar_trace", file: "internal/stafilos/parallel.go",
		before:   "\tif d.obs != nil {\n\t\t// fire caps an observed batch at one item",
		after:    "\tfor i := range fs.items {\n\t\trecycle(&fs.items[i])\n\t}\n\tif d.obs != nil {\n\t\t// fire caps an observed batch at one item",
		caughtBy: "internal/obs:TestTraceRingUnderParallelExecutor",
	},
	// double release: fan-out skips the pin, so every destination recycles the
	// same event.
	{
		name: "double_release", file: "internal/model/port.go",
		before:   "\tif len(p.dests) > 1 {\n\t\tfor _, ev := range evs {\n\t\t\tev.Pin()\n\t\t}\n\t}\n",
		after:    "",
		caughtBy: "internal/stafilos:TestEventConservationAcrossDiamond",
	},
	// unpinned escape: re-emission keeps the event without pinning it.
	{
		name: "unpinned_escape", file: "internal/model/context.go",
		before:   "\tev.Pin()\n\tc.emissions = append(c.emissions, Emission{Port: p, Ev: ev})\n",
		after:    "\tc.emissions = append(c.emissions, Emission{Port: p, Ev: ev})\n",
		caughtBy: "internal/model:TestPutEventPinsPooledEvent",
	},
	// a discarded TryPush: a full ring drops the event instead of spilling it
	// to the overflow list.
	{
		name: "discarded_trypush", file: "internal/window/inbox.go",
		before:   "\tfor _, ev := range evs {\n\t\tif in.ofActive.Load() || !in.q.TryPush(ev) {\n\t\t\tin.putSlow(ev)\n\t\t}\n\t}\n",
		after:    "\tfor _, ev := range evs {\n\t\tif in.ofActive.Load() {\n\t\t\tin.putSlow(ev)\n\t\t} else {\n\t\t\tin.q.TryPush(ev)\n\t\t}\n\t}\n",
		caughtBy: "internal/window:TestInboxConcurrentProducers",
	},
	// two producers on an SPSC ring: the parallel director marks a fan-in port
	// single-writer.
	{
		name: "spsc_two_producers", file: "internal/stafilos/scwf.go",
		before:   "\t\tif oneThread || len(p.Sources()) <= 1 {\n",
		after:    "\t\tif true {\n",
		caughtBy: "-race internal/stafilos:TestParallelFanInToWindowedPort",
	},
	// Waiter.Wait without the re-check between the Gen snapshot and the park
	// (lost wakeup).
	{
		name: "wait_no_recheck", file: "internal/director/ringrecv.go",
		before:   "\t\tif r.in.HasRaw() || r.closed.Load() {\n\t\t\tcontinue\n\t\t}\n\t\tr.busy.Store(false)\n",
		after:    "\t\tr.busy.Store(false)\n",
		caughtBy: "internal/director:TestRingReceiverWakesParkedConsumer",
	},
	// a back-pressured producer parks without re-reading the backlog after it
	// registered (lost wakeup: it sleeps until its stall timer).
	{
		name: "producer_no_recheck", file: "internal/director/ringrecv.go",
		before:   "\t\tif raw, taken = r.in.Backlog(); raw < backlogMark {\n\t\t\tbreak\n\t\t}\n\t\tif !armed {\n",
		after:    "\t\tif !armed {\n",
		caughtBy: "internal/director:TestProducerWaitWokenByConsumerPop",
	},
	// a producer waits on a full edge for as long as it stays full: no stall
	// escape, so a cycle, a pulling join or a cancelled consumer deadlocks.
	{
		name: "stall_no_escape", file: "internal/director/ringrecv.go",
		before:   "\t\t\tif taken == since {\n",
		after:    "\t\t\tif taken == since && false {\n",
		caughtBy: "internal/director:TestBackPressureCancelWhileParked",
	},
	// no back-pressure: PNCWF producers never wait, and a fast source runs
	// past the event pool.
	{
		name: "no_backpressure", file: "internal/director/pncwf.go",
		before:   "\t\tif e.est >= backlogMark {\n",
		after:    "\t\tif false && e.est >= backlogMark {\n",
		caughtBy: "internal/director:TestPNCWFPipeDrainAllocs",
	},
	// the late-pusher reorder: the overflow swap does not count the ring
	// slots claimed before it, so Pop serves the overflow list before them.
	{
		name: "late_pusher_reorder", file: "internal/window/inbox.go",
		before:   "\tin.ringFirst = in.q.Len()\n",
		after:    "\tin.ringFirst = 0\n",
		caughtBy: "internal/window:TestInboxLatePusherPrecedesOverflow",
	},
	// one allocation in 64 on each zero-alloc path, which a gate that
	// averages (and truncates) per operation reads as 0.
	{
		name: "firing_loop_alloc", file: "internal/model/context.go",
		before:   "func BroadcastEmissions(emissions []Emission, scratch []*event.Event) []*event.Event {\n",
		after:    "var calls64 int\n\nfunc BroadcastEmissions(emissions []Emission, scratch []*event.Event) []*event.Event {\n\tif calls64++; calls64%64 == 0 {\n\t\tscratch = nil\n\t}\n",
		caughtBy: "internal/director:TestFiringLoopZeroAlloc",
	},
	{
		name: "scwf_delivery_alloc", file: "internal/window/inbox.go",
		before:   "func Wrap(shell *Window, ev *event.Event) *Window {\n",
		after:    "var calls64 int\n\nfunc Wrap(shell *Window, ev *event.Event) *Window {\n\tif calls64++; calls64%64 == 0 {\n\t\tshell = nil\n\t}\n",
		caughtBy: "internal/stafilos:TestSCWFPassthroughDeliveryZeroAlloc",
	},
	{
		name: "encode_event_alloc", file: "internal/dist/frame.go",
		before:   "func appendEvent(buf []byte, ev *event.Event, traced bool, origin uint64, sendNs int64) []byte {\n",
		after:    "var calls64 int\n\nfunc appendEvent(buf []byte, ev *event.Event, traced bool, origin uint64, sendNs int64) []byte {\n\tif calls64++; calls64%64 == 0 {\n\t\tbuf = append(make([]byte, 0, cap(buf)), buf...)\n\t}\n",
		caughtBy: "internal/dist:TestAppendEventZeroAlloc",
	},
	{
		name: "binary_codec_alloc", file: "internal/value/binary.go",
		before:   "func AppendBinary(buf []byte, v Value) []byte {\n",
		after:    "var calls64 int\n\nfunc AppendBinary(buf []byte, v Value) []byte {\n\tif calls64++; calls64%64 == 0 {\n\t\tbuf = append(make([]byte, 0, cap(buf)), buf...)\n\t}\n",
		caughtBy: "internal/value:TestAppendBinaryZeroAlloc",
	},
	// per-firing copies on Linear Road's data path: the composite injects a
	// copy of the consumed window, the inner ready queue re-slices its head
	// away (so every inject eventually reallocates), and an indexed Lookup
	// makes a fresh result instead of appending to the caller's buffer.
	{
		name: "composite_window_copy", file: "internal/director/composite.go",
		before:   "\t\t\t\tr.ready.push(w)\n",
		after:    "\t\t\t\tcp := *w\n\t\t\t\tr.ready.push(&cp)\n",
		caughtBy: "internal/director:TestCompositeFireAllocs",
	},
	{
		name: "ready_queue_reslice", file: "internal/director/composite.go",
		before:   "\tw := f.q[f.head]\n\tf.q[f.head] = nil\n\tf.head++\n",
		after:    "\tw := f.q[f.head]\n\tf.q = f.q[1:]\n\treturn w\n",
		caughtBy: "internal/director:TestCompositeFireAllocs",
	},
	{
		name: "lookup_fresh_result", file: "internal/relstore/relstore.go",
		before:   "\t\tfor _, pos := range ix.positions(key) {\n",
		after:    "\t\tdst = append(make([]Row, 0, len(dst)+1), dst...)\n\t\tfor _, pos := range ix.positions(key) {\n",
		caughtBy: "internal/relstore:TestIndexedLookupAllocs",
	},
	// the sequential director rebuilds the source list on every idle
	// advance.
	{
		name: "idle_sources_rebuilt", file: "internal/stafilos/director.go",
		before:   "\tfor _, a := range d.sources {\n",
		after:    "\tfor _, a := range d.wf.Sources() {\n",
		caughtBy: "internal/stafilos:TestAdvanceIdleAllocs",
	},
	// time.Now in a //confvet:hotpath function instead of the receiver's
	// clock.
	{
		name: "hot_time_now", file: "internal/director/ringrecv.go",
		before:   "\tnow := r.clk.Now()\n\tr.ready.q, _ = r.in.Ingest(",
		after:    "\tnow := time.Now()\n\tr.ready.q, _ = r.in.Ingest(",
		analyzer: "hotpath",
	},
	// time.Sleep outside internal/clock: the source nap rounds up to the 1 ms
	// timer.
	{
		name: "sleep_outside_clock", file: "internal/director/pncwf.go",
		before:   "\tclock.Park(ctx, time.Now().Add(time.Millisecond))\n}\n",
		after:    "\ttime.Sleep(time.Millisecond)\n}\n",
		analyzer: "hotpath",
	},
	// an allocation in prov.Store.Record: a fresh segment array at every
	// rotation.
	{
		name: "record_alloc_segment", file: "internal/obs/prov/store.go",
		before:   "\t\tseg = s.rotate(st)\n\t}\n\tseg.hops[seg.n] = h\n",
		after:    "\t\tseg = s.rotate(st)\n\t\tseg.hops = make([]Hop, s.segmentHops)\n\t}\n\tseg.hops[seg.n] = h\n",
		caughtBy: "internal/obs/prov:TestSegmentRecyclingReusesSpare",
	},
	// an allocation in prov.Store.Record: a defensive copy of the output wave
	// path.
	{
		name: "record_alloc_pathcopy", file: "internal/obs/prov/store.go",
		before:   "\th.Seq = s.seq.Add(1)\n",
		after:    "\th.Seq = s.seq.Add(1)\n\th.Out.Path = append([]int(nil), h.Out.Path...)\n",
		caughtBy: "internal/obs/prov:TestSegmentRecyclingReusesSpare",
	},
	// a lock inversion: Instance.mu → Global.mu against the real Global.mu →
	// Instance.mu edge.
	{
		name: "lock_inversion", file: "internal/multiwf/multiwf.go",
		before:   "\t\tinst.pass += 1 / inst.Share\n",
		after:    "\t\tinst.pass += float64(len(g.Instances())) / inst.Share\n",
		analyzer: "lockorder",
	},
	// a plain read of event.Event.pinned (the typed atomic makes it a compile
	// error).
	{
		name: "pinned_plain_read", file: "internal/event/event.go",
		before:   "e.pinned.Load() == 0 }",
		after:    "e.pinned == 0 }",
		caughtBy: "internal/event:TestPoolRecycleRoundTrip",
	},
	// Fire calling Wrapup: the bridge sender closes its stream after the first
	// window.
	{
		name: "fire_calls_wrapup", file: "internal/dist/bridge.go",
		before:   "\t\tevs = evs[got:]\n\t}\n\treturn nil\n}\n",
		after:    "\t\tevs = evs[got:]\n\t}\n\treturn s.Wrapup()\n}\n",
		caughtBy: "internal/dist:TestTwoNodePipelineOverTCP",
	},
}

// TestMutantsCaught keeps the table honest: every edit still applies to the
// live source, every named test still exists, and every analyzer row is
// flagged by its analyzer once applied to a copy of the module.
func TestMutantsCaught(t *testing.T) {
	root := repoRoot(t)
	byName := map[string]*Analyzer{}
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	covered := map[string]bool{}
	for _, m := range mutants {
		src, err := os.ReadFile(filepath.Join(root, m.file))
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(src), m.before); n != 1 {
			t.Errorf("%s: edit matches %s %d times, want once", m.name, m.file, n)
		}
		switch {
		case m.analyzer != "":
			if byName[m.analyzer] == nil {
				t.Errorf("%s: analyzer %q is not in Analyzers()", m.name, m.analyzer)
			}
			covered[m.analyzer] = true
		case m.caughtBy != "":
			if !testExists(root, m.caughtBy) {
				t.Errorf("%s: catching test %q not found", m.name, m.caughtBy)
			}
		default:
			t.Errorf("%s: names neither an analyzer nor a catching test", m.name)
		}
	}
	for name := range byName {
		if !covered[name] {
			t.Errorf("analyzer %s catches no mutant in the table", name)
		}
	}
	if t.Failed() {
		return
	}

	// Each analyzer row loads only the mutated package (and what it imports)
	// from a private copy of the module's non-test sources.
	for _, m := range mutants {
		if m.analyzer == "" {
			continue
		}
		t.Run(m.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := copyModule(root, dir); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, m.file)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(strings.Replace(string(src), m.before, m.after, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			pkgs, err := Load(LoadConfig{Dir: dir}, "./"+filepath.ToSlash(filepath.Dir(m.file)))
			if err != nil {
				t.Fatal(err)
			}
			diags, err := Run([]*Analyzer{byName[m.analyzer]}, pkgs)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range diags {
				if d.File == path {
					return
				}
			}
			t.Errorf("%s does not flag %s", m.analyzer, m.file)
		})
	}
}

// copyModule copies go.mod and every non-test Go file under internal/
// (fixtures excluded) from root to dir.
func copyModule(root, dir string) error {
	if err := copyFile(filepath.Join(root, "go.mod"), filepath.Join(dir, "go.mod")); err != nil {
		return err
	}
	return filepath.WalkDir(filepath.Join(root, "internal"), func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		return copyFile(p, filepath.Join(dir, rel))
	})
}

func copyFile(from, to string) error {
	b, err := os.ReadFile(from)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(to), 0o755); err != nil {
		return err
	}
	return os.WriteFile(to, b, 0o644)
}

// testExists reports whether "[-race ]pkg/path:TestName" names a test
// function declared in that package directory.
func testExists(root, ref string) bool {
	ref = strings.TrimPrefix(ref, "-race ")
	dir, name, ok := strings.Cut(ref, ":")
	if !ok {
		return false
	}
	files, _ := filepath.Glob(filepath.Join(root, dir, "*_test.go"))
	decl := regexp.MustCompile(`(?m)^func ` + regexp.QuoteMeta(name) + `\(t \*testing\.T\)`)
	for _, f := range files {
		if b, err := os.ReadFile(f); err == nil && decl.Match(b) {
			return true
		}
	}
	return false
}
