// Distributed continuous workflow (the paper's Section 5 scalability
// direction): the pipeline is split across two nodes — ingestion and
// enrichment on node A, windowed analytics on node B — linked by a TCP
// bridge that preserves event timestamps and wave identity. Each node runs
// its own SCWF director with a local STAFiLOS scheduler.
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	confluence "repro"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/stafilos"
)

func main() {
	// ---- Node B: bridge receiver -> per-city windowed average -> sink ----
	recv, err := dist.Listen("bridge", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	wfB := confluence.NewWorkflow("analytics-node")
	avg := confluence.NewAggregate("cityAvg", confluence.WindowSpec{
		Unit: confluence.Tuples, Size: 5, Step: 5, GroupBy: []string{"city"},
	}, func(w *confluence.Window) confluence.Value {
		sum := 0.0
		for i := range w.Len() {
			sum += w.Record(i).Float("tempF")
		}
		return confluence.NewRecord(
			"city", w.Record(0).Field("city"),
			"avgF", confluence.Float(sum/float64(w.Len())),
		)
	})
	sink := confluence.NewCollect("sink")
	wfB.MustAdd(recv, avg, sink)
	wfB.MustConnect(recv.Out(), avg.In())
	wfB.MustConnect(avg.Out(), sink.In())

	// ---- Node A: sensor feed -> C-to-F enrichment -> bridge sender ----
	wfA := confluence.NewWorkflow("ingest-node")
	cities := []string{"Pittsburgh", "Nicosia", "Palo Alto"}
	src := confluence.NewGenerator("sensors", time.Now().Add(-time.Minute), 10*time.Millisecond, 150,
		func(i int) confluence.Value {
			return confluence.NewRecord(
				"city", confluence.Str(cities[i%len(cities)]),
				"tempC", confluence.Float(10+float64(i%20)),
			)
		})
	enrich := confluence.NewMap("toFahrenheit", func(v confluence.Value) confluence.Value {
		r := v.(confluence.Record)
		return r.With("tempF", confluence.Float(r.Float("tempC")*9/5+32))
	})
	send := dist.NewSender("bridge", recv.Addr())
	wfA.MustAdd(src, enrich, send)
	wfA.MustConnect(src.Out(), enrich.In())
	wfA.MustConnect(enrich.Out(), send.In())

	mkDirector := func() model.Director {
		return stafilos.NewDirector(sched.NewQBS(0), stafilos.Options{SourceInterval: 5})
	}
	cluster := dist.NewCluster()
	if err := cluster.AddNode("ingest", wfA, mkDirector()); err != nil {
		log.Fatal(err)
	}
	if err := cluster.AddNode("analytics", wfB, mkDirector()); err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cluster.Run(ctx); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("bridge carried %d events; node B produced %d windowed averages:\n",
		send.Sent(), len(sink.Tokens))
	for i, tok := range sink.Tokens {
		if i >= 6 {
			fmt.Printf("  … and %d more\n", len(sink.Tokens)-6)
			break
		}
		r := tok.(confluence.Record)
		fmt.Printf("  %-10s avg %.1f°F\n", r.Text("city"), r.Float("avgF"))
	}
}
