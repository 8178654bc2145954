package dist_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/dist"
	"repro/internal/event"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/stafilos"
	"repro/internal/value"
	"repro/internal/window"
)

func realDirector() model.Director {
	return stafilos.NewDirector(sched.NewQBS(0), stafilos.Options{SourceInterval: 5})
}

func TestTwoNodePipelineOverTCP(t *testing.T) {
	const n = 200

	// Node B: receiver -> sink.
	recv, err := dist.Listen("bridgeIn", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wfB := model.NewWorkflow("nodeB")
	sink := actors.NewCollect("sink")
	wfB.MustAdd(recv, sink)
	wfB.MustConnect(recv.Out(), sink.In())

	// Node A: generator -> double -> sender.
	wfA := model.NewWorkflow("nodeA")
	start := time.Now().Add(-time.Minute)
	src := actors.NewGenerator("src", start, time.Millisecond, n,
		func(i int) value.Value { return value.Int(int64(i)) })
	double := actors.NewMap("double", func(v value.Value) value.Value {
		return value.Int(int64(v.(value.Int)) * 2)
	})
	send := dist.NewSender("bridgeOut", recv.Addr())
	wfA.MustAdd(src, double, send)
	wfA.MustConnect(src.Out(), double.In())
	wfA.MustConnect(double.Out(), send.In())

	cluster := dist.NewCluster()
	if err := cluster.AddNode("A", wfA, realDirector()); err != nil {
		t.Fatal(err)
	}
	if err := cluster.AddNode("B", wfB, realDirector()); err != nil {
		t.Fatal(err)
	}
	if got := len(cluster.Nodes()); got != 2 {
		t.Fatalf("nodes = %d", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cluster.Run(ctx); err != nil {
		t.Fatal(err)
	}

	if send.Sent() != n {
		t.Errorf("sender crossed %d events, want %d", send.Sent(), n)
	}
	if recv.DecodeErrors() != 0 {
		t.Errorf("decode errors: %d", recv.DecodeErrors())
	}
	if len(sink.Tokens) != n {
		t.Fatalf("node B received %d tokens, want %d", len(sink.Tokens), n)
	}
	seen := map[int64]bool{}
	for _, tok := range sink.Tokens {
		v := int64(tok.(value.Int))
		if v%2 != 0 || seen[v] {
			t.Fatalf("bad or duplicate token %d", v)
		}
		seen[v] = true
	}
}

func TestBridgePreservesTimestampsAndWaves(t *testing.T) {
	recv, err := dist.Listen("in", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wfB := model.NewWorkflow("nodeB")
	var times []time.Time
	var waves []event.WaveTag
	sink := actors.NewSink("sink", window.Passthrough(),
		func(_ *model.FireContext, w *window.Window) error {
			for _, ev := range w.Events {
				times = append(times, ev.Time)
				waves = append(waves, ev.Wave)
			}
			return nil
		})
	wfB.MustAdd(recv, sink)
	wfB.MustConnect(recv.Out(), sink.In())

	wfA := model.NewWorkflow("nodeA")
	epoch := time.Now().Add(-time.Hour).Truncate(time.Second)
	src := actors.NewGenerator("src", epoch, time.Second, 3,
		func(i int) value.Value {
			return value.NewRecord("i", value.Int(int64(i)), "tag", value.Str("x"))
		})
	// A splitter gives the events non-trivial wave paths before the hop.
	split := actors.NewFunc("split", window.Passthrough(),
		func(_ *model.FireContext, w *window.Window, emit func(value.Value)) error {
			emit(w.Tokens()[0])
			emit(w.Tokens()[0])
			return nil
		})
	send := dist.NewSender("out", recv.Addr())
	wfA.MustAdd(src, split, send)
	wfA.MustConnect(src.Out(), split.In())
	wfA.MustConnect(split.Out(), send.In())

	cluster := dist.NewCluster()
	cluster.AddNode("A", wfA, realDirector())
	cluster.AddNode("B", wfB, realDirector())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cluster.Run(ctx); err != nil {
		t.Fatal(err)
	}

	if len(times) != 6 {
		t.Fatalf("received %d events, want 6", len(times))
	}
	for i, ts := range times {
		// Timestamps must be exactly the original event times (second
		// granularity offsets from epoch).
		if ts.Before(epoch) || ts.After(epoch.Add(3*time.Second)) {
			t.Errorf("event %d time %v outside source range", i, ts)
		}
		if ts.Nanosecond() != epoch.Nanosecond() {
			t.Errorf("event %d time %v lost sub-second precision", i, ts)
		}
	}
	// Wave structure survives: 3 waves × 2 children with paths [1],[2] and
	// the last-of-wave marker on the second.
	byWave := map[int64][]event.WaveTag{}
	for _, w := range waves {
		if w.Depth() != 1 {
			t.Errorf("wave depth = %d, want 1 (split children)", w.Depth())
		}
		byWave[w.Root] = append(byWave[w.Root], w)
	}
	if len(byWave) != 3 {
		t.Fatalf("distinct waves = %d, want 3", len(byWave))
	}
	for root, members := range byWave {
		if len(members) != 2 {
			t.Errorf("wave %d has %d members, want 2", root, len(members))
			continue
		}
		lasts := 0
		for _, m := range members {
			if m.Last {
				lasts++
			}
		}
		if lasts != 1 {
			t.Errorf("wave %d has %d last-markers, want 1", root, lasts)
		}
	}
}

func TestThreeNodeChain(t *testing.T) {
	const n = 50
	// C: receiver -> sink.
	recvC, err := dist.Listen("inC", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wfC := model.NewWorkflow("C")
	sink := actors.NewCollect("sink")
	wfC.MustAdd(recvC, sink)
	wfC.MustConnect(recvC.Out(), sink.In())

	// B: receiver -> +1000 -> sender.
	recvB, err := dist.Listen("inB", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wfB := model.NewWorkflow("B")
	add := actors.NewMap("add", func(v value.Value) value.Value {
		return value.Int(int64(v.(value.Int)) + 1000)
	})
	sendB := dist.NewSender("outB", recvC.Addr())
	wfB.MustAdd(recvB, add, sendB)
	wfB.MustConnect(recvB.Out(), add.In())
	wfB.MustConnect(add.Out(), sendB.In())

	// A: generator -> sender.
	wfA := model.NewWorkflow("A")
	src := actors.NewGenerator("src", time.Now().Add(-time.Minute), time.Millisecond, n,
		func(i int) value.Value { return value.Int(int64(i)) })
	sendA := dist.NewSender("outA", recvB.Addr())
	wfA.MustAdd(src, sendA)
	wfA.MustConnect(src.Out(), sendA.In())

	cluster := dist.NewCluster()
	cluster.AddNode("A", wfA, realDirector())
	cluster.AddNode("B", wfB, realDirector())
	cluster.AddNode("C", wfC, realDirector())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cluster.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if len(sink.Tokens) != n {
		t.Fatalf("C received %d, want %d", len(sink.Tokens), n)
	}
	for _, tok := range sink.Tokens {
		if int64(tok.(value.Int)) < 1000 {
			t.Fatalf("node B transform missing: %v", tok)
		}
	}
}

// TestMultipleSendersOnePort pins the multi-accept fix: two upstream nodes
// dial the same bridge receiver, which must accept both connections (the
// old accept loop served exactly one and dropped the rest), merge their
// streams and report exhaustion only after both senders finish.
func TestMultipleSendersOnePort(t *testing.T) {
	const nA, nB = 120, 80
	recv, err := dist.Listen("merge", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	recv.ExpectSenders(2)
	wfC := model.NewWorkflow("nodeC")
	sink := actors.NewCollect("sink")
	wfC.MustAdd(recv, sink)
	wfC.MustConnect(recv.Out(), sink.In())

	mkSender := func(node string, n, base int) *model.Workflow {
		wf := model.NewWorkflow(node)
		src := actors.NewGenerator("src-"+node, time.Now().Add(-time.Minute), time.Millisecond, n,
			func(i int) value.Value { return value.Int(int64(base + i)) })
		send := dist.NewSender("out-"+node, recv.Addr())
		wf.MustAdd(src, send)
		wf.MustConnect(src.Out(), send.In())
		return wf
	}

	cluster := dist.NewCluster()
	cluster.AddNode("A", mkSender("A", nA, 0), realDirector())
	cluster.AddNode("B", mkSender("B", nB, 10000), realDirector())
	cluster.AddNode("C", wfC, realDirector())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cluster.Run(ctx); err != nil {
		t.Fatal(err)
	}

	if len(sink.Tokens) != nA+nB {
		t.Fatalf("merged %d tokens, want %d", len(sink.Tokens), nA+nB)
	}
	seen := map[int64]bool{}
	fromA, fromB := 0, 0
	for _, tok := range sink.Tokens {
		v := int64(tok.(value.Int))
		if seen[v] {
			t.Fatalf("duplicate token %d", v)
		}
		seen[v] = true
		if v >= 10000 {
			fromB++
		} else {
			fromA++
		}
	}
	if fromA != nA || fromB != nB {
		t.Fatalf("received %d from A and %d from B, want %d and %d", fromA, fromB, nA, nB)
	}
	if recv.Received() != int64(nA+nB) {
		t.Errorf("Received() = %d, want %d", recv.Received(), nA+nB)
	}
	if recv.Dropped() != 0 {
		t.Errorf("Dropped() = %d, want 0", recv.Dropped())
	}
	if recv.SeqGaps() != 0 {
		t.Errorf("SeqGaps() = %d, want 0", recv.SeqGaps())
	}
	if wm := recv.Watermark(); wm < 1 || wm > int64(recv.RingCap()) {
		t.Errorf("Watermark() = %d, want within [1, %d]", wm, recv.RingCap())
	}
}

func TestSenderDialFailure(t *testing.T) {
	wf := model.NewWorkflow("lonely")
	src := actors.NewGenerator("src", time.Now(), time.Millisecond, 1,
		func(i int) value.Value { return value.Int(int64(i)) })
	send := dist.NewSender("out", "127.0.0.1:1") // nothing listens here
	wf.MustAdd(src, send)
	wf.MustConnect(src.Out(), send.In())
	cluster := dist.NewCluster()
	cluster.AddNode("A", wf, realDirector())
	err := cluster.Run(context.Background())
	if err == nil {
		t.Fatal("dial failure not reported")
	}
}

func TestClusterRejects(t *testing.T) {
	c := dist.NewCluster()
	if err := c.Run(context.Background()); err == nil {
		t.Error("empty cluster ran")
	}
	wf := model.NewWorkflow("x")
	src := actors.NewGenerator("src", time.Now(), time.Millisecond, 1,
		func(i int) value.Value { return value.Int(int64(i)) })
	sink := actors.NewCollect("sink")
	wf.MustAdd(src, sink)
	wf.MustConnect(src.Out(), sink.In())
	if err := c.AddNode("n", wf, realDirector()); err != nil {
		t.Fatal(err)
	}
	if err := c.AddNode("n", wf, realDirector()); err == nil {
		t.Error("duplicate node accepted")
	}
}
