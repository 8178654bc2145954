// Quickstart: a three-actor continuous workflow — a sensor source, a
// per-sensor sliding-window average, and a sink — executed by the Scheduled
// CWF director with the QBS policy.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	confluence "repro"
)

func main() {
	wf := confluence.NewWorkflow("quickstart")

	// A source emitting 40 temperature readings from two sensors, one per
	// 100ms of event time (timestamps in the past, so the run drains
	// immediately).
	start := time.Now().Add(-5 * time.Second)
	src := confluence.NewGenerator("sensors", start, 100*time.Millisecond, 40,
		func(i int) confluence.Value {
			return confluence.NewRecord(
				"sensor", confluence.Str(fmt.Sprintf("s%d", i%2)),
				"temp", confluence.Float(20+float64(i)/4),
			)
		})

	// A sliding window of the last 4 readings per sensor (size 4, step 2),
	// reduced to its average — the paper's window semantics at work.
	avg := confluence.NewAggregate("avg", confluence.WindowSpec{
		Unit:    confluence.Tuples,
		Size:    4,
		Step:    2,
		GroupBy: []string{"sensor"},
	}, func(w *confluence.Window) confluence.Value {
		sum := 0.0
		for i := range w.Len() {
			sum += w.Record(i).Float("temp")
		}
		first := w.Record(0)
		return confluence.NewRecord(
			"sensor", first.Field("sensor"),
			"avgTemp", confluence.Float(sum/float64(w.Len())),
		)
	})

	sink := confluence.NewCollect("sink")

	wf.MustAdd(src, avg, sink)
	wf.MustConnect(src.Out(), avg.In())
	wf.MustConnect(avg.Out(), sink.In())

	if err := confluence.Run(context.Background(), wf, confluence.RunOptions{
		Scheduler: "QBS",
	}); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("produced %d windowed averages:\n", len(sink.Tokens))
	for _, tok := range sink.Tokens {
		r := tok.(confluence.Record)
		fmt.Printf("  sensor=%s avg=%.2f°C\n", r.Text("sensor"), r.Float("avgTemp"))
	}
}
