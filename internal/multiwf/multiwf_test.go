package multiwf_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/clock"
	"repro/internal/model"
	"repro/internal/multiwf"
	"repro/internal/sched"
	"repro/internal/stafilos"
	"repro/internal/value"
)

func ts(sec float64) time.Time {
	return time.Unix(0, int64(sec*float64(time.Second))).UTC()
}

// mkInstance builds a source->work->sink workflow plus an SCWF director.
func mkInstance(name string, n int) (*model.Workflow, model.Director, *actors.Collect) {
	wf := model.NewWorkflow(name)
	src := actors.NewGenerator("src", ts(0), time.Millisecond, n, func(i int) value.Value {
		return value.Int(int64(i))
	})
	work := actors.NewMap("work", func(v value.Value) value.Value { return v })
	sink := actors.NewCollect("sink")
	wf.MustAdd(src, work, sink)
	wf.MustConnect(src.Out(), work.In())
	wf.MustConnect(work.Out(), sink.In())
	dir := stafilos.NewDirector(sched.NewFIFO(), stafilos.Options{
		Clock: clock.NewVirtual(),
		Cost:  stafilos.UniformCostModel{Cost: 100 * time.Microsecond},
	})
	return wf, dir, sink
}

func TestGlobalRunsAllInstancesToCompletion(t *testing.T) {
	g := multiwf.NewGlobal()
	var sinks []*actors.Collect
	for i := 0; i < 3; i++ {
		wf, dir, sink := mkInstance(fmt.Sprintf("wf%d", i), 50)
		if _, err := g.Add(fmt.Sprintf("wf%d", i), wf, dir, 1); err != nil {
			t.Fatal(err)
		}
		sinks = append(sinks, sink)
	}
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, sink := range sinks {
		if len(sink.Tokens) != 50 {
			t.Errorf("instance %d delivered %d tokens, want 50", i, len(sink.Tokens))
		}
	}
	for _, inst := range g.Instances() {
		if inst.State() != model.Stopped {
			t.Errorf("instance %s state = %v", inst.Name, inst.State())
		}
	}
}

func TestGlobalSharesProportional(t *testing.T) {
	g := multiwf.NewGlobal()
	// Two identical long workflows with 3:1 shares: while both are
	// runnable, the heavy instance must receive about three times the
	// iterations. (Totals converge at the end, so sample mid-run.)
	wfA, dirA, _ := mkInstance("heavy", 2000)
	wfB, dirB, _ := mkInstance("light", 2000)
	if _, err := g.Add("heavy", wfA, dirA, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add("light", wfB, dirB, 1); err != nil {
		t.Fatal(err)
	}
	// Drive a bounded number of steps through a cancellable run.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for {
			counts := g.StepCounts()
			if counts["heavy"]+counts["light"] >= 400 {
				cancel()
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	_ = g.Run(ctx)
	counts := g.StepCounts()
	h, l := float64(counts["heavy"]), float64(counts["light"])
	if l == 0 {
		t.Fatal("light instance starved entirely")
	}
	ratio := h / l
	if ratio < 2.0 || ratio > 4.5 {
		t.Errorf("step ratio heavy/light = %.2f (h=%v l=%v), want ~3", ratio, h, l)
	}
}

func TestGlobalPauseResume(t *testing.T) {
	g := multiwf.NewGlobal()
	wfA, dirA, sinkA := mkInstance("a", 300)
	wfB, dirB, sinkB := mkInstance("b", 300)
	instA, err := g.Add("a", wfA, dirA, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add("b", wfB, dirB, 1); err != nil {
		t.Fatal(err)
	}
	instA.Pause()
	if instA.State() != model.Paused {
		t.Fatalf("state = %v", instA.State())
	}
	// Resume A shortly after run starts from another goroutine.
	go func() {
		time.Sleep(10 * time.Millisecond)
		instA.Resume()
	}()
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(sinkA.Tokens) != 300 || len(sinkB.Tokens) != 300 {
		t.Errorf("tokens = %d/%d, want 300/300", len(sinkA.Tokens), len(sinkB.Tokens))
	}
}

// failingDirector is an SCWF director whose Step fails at step failAt.
type failingDirector struct {
	*stafilos.Director
	steps, failAt int
}

var errStep = errors.New("step failed")

func (d *failingDirector) Step() (bool, error) {
	if d.steps++; d.steps == d.failAt {
		return false, errStep
	}
	return d.Director.Step()
}

// TestGlobalSurfacesInstanceError: a Step error stops only its own
// instance; the others run to completion and Run reports the failure,
// naming the instance.
func TestGlobalSurfacesInstanceError(t *testing.T) {
	g := multiwf.NewGlobal()
	wfOK, dirOK, sinkOK := mkInstance("ok", 50)
	wfBad, dirBad, _ := mkInstance("bad", 50)
	if _, err := g.Add("ok", wfOK, dirOK, 1); err != nil {
		t.Fatal(err)
	}
	bad, err := g.Add("bad", wfBad, &failingDirector{Director: dirBad.(*stafilos.Director), failAt: 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	err = g.Run(context.Background())
	if !errors.Is(err, errStep) || !strings.Contains(err.Error(), "instance bad") {
		t.Errorf("Run = %v, want an error wrapping %v that names instance bad", err, errStep)
	}
	if !errors.Is(bad.Err(), errStep) {
		t.Errorf("bad.Err() = %v, want %v", bad.Err(), errStep)
	}
	if len(sinkOK.Tokens) != 50 {
		t.Errorf("ok delivered %d tokens, want 50", len(sinkOK.Tokens))
	}
}

func TestGlobalRejects(t *testing.T) {
	g := multiwf.NewGlobal()
	wf, dir, _ := mkInstance("x", 1)
	if _, err := g.Add("x", wf, dir, 0); err == nil {
		t.Error("zero share accepted")
	}
	if _, err := g.Add("x", wf, dir, 1); err != nil {
		t.Fatal(err)
	}
	wf2, dir2, _ := mkInstance("x", 1)
	if _, err := g.Add("x", wf2, dir2, 1); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := g.Remove("nope"); err == nil {
		t.Error("removing unknown instance succeeded")
	}
	if err := g.Remove("x"); err != nil {
		t.Error(err)
	}
	if g.Instance("x") != nil {
		t.Error("instance not removed")
	}
}

func TestControllerProtocol(t *testing.T) {
	g := multiwf.NewGlobal()
	wf, dir, _ := mkInstance("job", 100)
	if _, err := g.Add("job", wf, dir, 2); err != nil {
		t.Fatal(err)
	}
	ctrl, err := multiwf.NewController(g, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	ctrl.RegisterFactory("pipeline", func() (*model.Workflow, model.Director, error) {
		wf, dir, _ := mkInstance("added", 10)
		return wf, dir, nil
	})

	conn, err := net.Dial("tcp", ctrl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd := bufio.NewScanner(conn)
	send := func(cmd string) string {
		fmt.Fprintln(conn, cmd)
		if !rd.Scan() {
			t.Fatalf("no response to %q", cmd)
		}
		return rd.Text()
	}

	if resp := send("LIST"); !strings.Contains(resp, "job(running,share=2)") {
		t.Errorf("LIST = %q", resp)
	}
	if resp := send("STATUS job"); !strings.HasPrefix(resp, "ok job state=running") {
		t.Errorf("STATUS = %q", resp)
	}
	if resp := send("PAUSE job"); resp != "ok pause job" {
		t.Errorf("PAUSE = %q", resp)
	}
	if g.Instance("job").State() != model.Paused {
		t.Error("PAUSE did not take effect")
	}
	if resp := send("RESUME job"); resp != "ok resume job" {
		t.Errorf("RESUME = %q", resp)
	}
	if resp := send("ADD pipeline extra 1.5"); resp != "ok added extra" {
		t.Errorf("ADD = %q", resp)
	}
	if g.Instance("extra") == nil {
		t.Error("ADD did not register instance")
	}
	if resp := send("ADD nosuch y"); !strings.HasPrefix(resp, "err no factory") {
		t.Errorf("ADD bad factory = %q", resp)
	}
	if resp := send("ADD pipeline bad -1"); !strings.HasPrefix(resp, "err bad share") {
		t.Errorf("ADD bad share = %q", resp)
	}
	if resp := send("STOP job"); resp != "ok stop job" {
		t.Errorf("STOP = %q", resp)
	}
	if resp := send("REMOVE extra"); resp != "ok removed extra" {
		t.Errorf("REMOVE = %q", resp)
	}
	if resp := send("STATUS ghost"); !strings.HasPrefix(resp, "err") {
		t.Errorf("STATUS ghost = %q", resp)
	}
	if resp := send("FROBNICATE"); !strings.HasPrefix(resp, "err unknown") {
		t.Errorf("unknown = %q", resp)
	}
	if resp := send("QUIT"); resp != "ok bye" {
		t.Errorf("QUIT = %q", resp)
	}
}
