// Push communication: a workflow consuming a live TCP stream through the
// engine's push source, executed by the thread-based PNCWF director in real
// time — the data path of the paper's Section 2.2 ("actors able to connect
// to external data streams through TCP or HTTP connections").
//
// The example starts its own in-process feed server (newline-delimited
// JSON), so it is fully self-contained; point -addr at `lrgen -serve` for a
// Linear Road feed instead.
//
//	go run ./examples/tcpstream
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"
	"time"

	confluence "repro"
)

func main() {
	addr, stop := startFeedServer()
	defer stop()

	// Source: dial the stream and push records into the workflow.
	src := confluence.NewTCPSource("ticker", addr, nil)

	// Detect price jumps per symbol with a 2-tuple sliding window.
	jumps := confluence.NewFunc("jumps", confluence.WindowSpec{
		Unit: confluence.Tuples, Size: 2, Step: 1, GroupBy: []string{"sym"},
	}, func(_ *confluence.FireContext, w *confluence.Window, emit func(confluence.Value)) error {
		if w.Len() < 2 {
			return nil
		}
		prev, cur := w.Record(0).Float("px"), w.Record(1).Float("px")
		if prev > 0 && (cur-prev)/prev > 0.02 {
			emit(confluence.NewRecord(
				"sym", w.Record(1).Field("sym"),
				"from", confluence.Float(prev),
				"to", confluence.Float(cur),
			))
		}
		return nil
	})

	var alerts []confluence.Record
	done := make(chan struct{})
	sink := confluence.NewSink("alerts", confluence.Passthrough(),
		func(ctx *confluence.FireContext, w *confluence.Window) error {
			for i := range w.Len() {
				alerts = append(alerts, w.Record(i))
			}
			if len(alerts) >= 5 {
				ctx.StopWorkflow()
				select {
				case <-done:
				default:
					close(done)
				}
			}
			return nil
		})

	wf := confluence.NewWorkflow("tcpstream")
	wf.MustAdd(src, jumps, sink)
	wf.MustConnect(src.Out(), jumps.In())
	wf.MustConnect(jumps.Out(), sink.In())

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := confluence.Run(ctx, wf, confluence.RunOptions{Scheduler: "PNCWF"}); err != nil && ctx.Err() == nil {
		log.Fatal(err)
	}

	fmt.Printf("captured %d price-jump alerts from the live stream:\n", len(alerts))
	for _, r := range alerts {
		fmt.Printf("  %s jumped %.2f -> %.2f\n", r.Text("sym"), r.Float("from"), r.Float("to"))
	}
}

// startFeedServer streams random-walk prices for three symbols as
// newline-delimited JSON, fast enough for the example to finish promptly.
func startFeedServer() (addr string, stop func()) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		rng := rand.New(rand.NewSource(9))
		px := map[string]float64{"ABC": 100, "XYZ": 50, "QRS": 210}
		syms := []string{"ABC", "XYZ", "QRS"}
		for i := 0; i < 2000; i++ {
			s := syms[rng.Intn(len(syms))]
			step := rng.NormFloat64() * 0.5
			if rng.Intn(40) == 0 {
				step += px[s] * 0.03 // occasional jump
			}
			px[s] += step
			fmt.Fprintf(conn, `{"sym":"%s","px":%.2f,"ts":%d}`+"\n", s, px[s], time.Now().Unix())
			time.Sleep(time.Millisecond)
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}
