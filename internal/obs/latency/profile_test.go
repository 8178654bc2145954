package latency

import (
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/obs/prov"
)

func TestProfileFoldAndSnapshot(t *testing.T) {
	resolved := 0
	p := NewProfile(func(root int64, rootSeq uint64) ([]prov.Hop, []prov.Transit) {
		resolved++
		return chainHops(), nil
	})
	p.NoteEndpoint(11, 1)
	p.NoteEndpoint(11, 1) // same wave twice (sink + dropping filter): folds once
	v := p.Snapshot(0)
	if resolved != 1 {
		t.Errorf("resolver called %d times, want 1 (dedupe)", resolved)
	}
	if v.Waves != 1 || v.Noted != 2 || v.Dropped != 0 {
		t.Errorf("waves=%d noted=%d dropped=%d, want 1/2/0", v.Waves, v.Noted, v.Dropped)
	}
	if len(v.Actors) != 3 {
		t.Fatalf("actors = %d, want 3", len(v.Actors))
	}
	// Shares cover the whole end-to-end exactly: the waterfall tiles it.
	var total float64
	for _, a := range v.Actors {
		if a.Share < 0 || a.Share > 1 {
			t.Errorf("%s share %f outside [0,1]", a.Actor, a.Share)
		}
		total += a.Share
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("actor shares sum %f, want 1 (segments tile end-to-end)", total)
	}
	// chainHops: filter owns queue 2ms + gap 1ms + cost 1ms = 4/9, the top
	// non-source share; src owns only its 2ms cost.
	if v.Actors[0].Actor != "filter" {
		t.Errorf("top actor = %s, want filter", v.Actors[0].Actor)
	}
	if v.EndToEndMaxSeconds < 0.008 || v.EndToEndMaxSeconds > 0.010 {
		t.Errorf("end-to-end max %f, want ~9ms", v.EndToEndMaxSeconds)
	}
	if len(v.Edges) == 0 {
		t.Error("no edge attribution")
	}
}

func TestProfileTopNAndReset(t *testing.T) {
	p := NewProfile(func(root int64, rootSeq uint64) ([]prov.Hop, []prov.Transit) {
		hops := chainHops()
		for i := range hops {
			hops[i].Root = root
			hops[i].RootSeq = rootSeq
			hops[i].In.Root, hops[i].Out.Root = root, root
			hops[i].In.RootSeq, hops[i].Out.RootSeq = rootSeq, rootSeq
		}
		return hops, nil
	})
	for i := int64(0); i < 10; i++ {
		p.NoteEndpoint(100+i, 1)
	}
	v := p.Snapshot(1)
	if v.Waves != 10 {
		t.Errorf("waves = %d, want 10", v.Waves)
	}
	if len(v.Actors) != 1 {
		t.Errorf("topN=1 returned %d actors", len(v.Actors))
	}

	p.Reset()
	v = p.Snapshot(0)
	if v.Waves != 0 || len(v.Actors) != 0 {
		t.Errorf("after Reset: waves=%d actors=%d, want 0/0", v.Waves, len(v.Actors))
	}
	// The dedupe set cleared too: the same wave ids fold again.
	p.NoteEndpoint(100, 1)
	if v = p.Snapshot(0); v.Waves != 1 {
		t.Errorf("wave did not re-fold after Reset (waves=%d)", v.Waves)
	}
}

func TestProfileNilSafe(t *testing.T) {
	var p *Profile
	p.NoteEndpoint(1, 1)
	p.Fold()
	p.Reset()
	if v := p.Snapshot(3); v.Waves != 0 {
		t.Error("nil profile snapshot not empty")
	}
}

func TestProfileUnresolvableWave(t *testing.T) {
	p := NewProfile(func(root int64, rootSeq uint64) ([]prov.Hop, []prov.Transit) {
		return nil, nil // evicted from the provenance store
	})
	p.NoteEndpoint(1, 1)
	if v := p.Snapshot(0); v.Waves != 0 || v.Noted != 1 {
		t.Errorf("waves=%d noted=%d, want 0/1", v.Waves, v.Noted)
	}
}

// TestProfileBridgeTransitAttribution: a stitched two-node lineage with a
// measured transit attributes wire time to the cross-node edge.
func TestProfileBridgeTransitAttribution(t *testing.T) {
	root := int64(77)
	p := NewProfile(func(_ int64, _ uint64) ([]prov.Hop, []prov.Transit) {
		return bridgeHops(root), []prov.Transit{{
			Origin: 9, SentAt: at(3), RecvAt: at(7), Duration: 4 * time.Millisecond,
		}}
	})
	p.NoteEndpoint(root, 2)
	v := p.Snapshot(0)
	var edge *EdgeShare
	for i := range v.Edges {
		if v.Edges[i].TransitShare > 0 {
			edge = &v.Edges[i]
		}
	}
	if edge == nil {
		t.Fatal("no edge with transit attribution")
	}
	if edge.Edge != "bridge->bridge" {
		t.Errorf("transit edge = %s, want bridge->bridge", edge.Edge)
	}
	if edge.TransitP95Seconds <= 0 {
		t.Error("transit quantile sketch not fed")
	}
}

// bridgeHops mirrors TestAnalyzeBridgeTransit's four-hop cross-node chain.
func bridgeHops(root int64) []prov.Hop {
	wave := event.WaveTag{Root: root, RootSeq: 2}
	return []prov.Hop{
		{Node: "A", Actor: "src", Root: root, RootSeq: 2, Out: wave,
			Start: at(0), Cost: time.Millisecond, Produced: 1},
		{Node: "A", Actor: "bridge", Root: root, RootSeq: 2, In: wave,
			Start: at(2), Cost: time.Millisecond, Consumed: 1, Produced: 0},
		{Node: "B", Actor: "bridge", Root: root, RootSeq: 2, Out: wave,
			Start: at(8), Cost: time.Millisecond, Produced: 1},
		{Node: "B", Actor: "sink", Root: root, RootSeq: 2, In: wave,
			Start: at(10), QueueWait: time.Millisecond, Cost: time.Millisecond,
			Consumed: 1, Produced: 0},
	}
}
