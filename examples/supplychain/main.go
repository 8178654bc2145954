// Supply chain monitoring: the paper's business-domain application class —
// a continuous workflow integrating an order stream and a shipment stream,
// maintaining inventory, alerting on low stock and flagging delayed
// shipments. Demonstrates group-by windows, fan-out, multi-stream
// workflows and QBS priorities protecting the alerting path.
//
//	go run ./examples/supplychain
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sort"
	"sync"
	"time"

	confluence "repro"
)

const nProducts = 6

// inventory is the shared business state the workflow maintains (the
// "relational source" of the CONFLuEnCE ecosystem diagram).
type inventory struct {
	mu    sync.Mutex
	stock map[int]int
}

func (inv *inventory) add(product, n int) int {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	inv.stock[product] += n
	return inv.stock[product]
}

func main() {
	rng := rand.New(rand.NewSource(7))
	start := time.Now().Add(-10 * time.Minute)

	// Order stream: 400 orders drawing down stock.
	orders := confluence.NewGenerator("orders", start, 1500*time.Millisecond, 400,
		func(i int) confluence.Value {
			return confluence.NewRecord(
				"orderID", confluence.Int(i),
				"product", confluence.Int(rng.Intn(nProducts)),
				"qty", confluence.Int(1+rng.Intn(5)),
			)
		})

	// Shipment stream: restocks plus an occasional delayed shipment
	// (ordered ts far before arrival ts).
	shipments := confluence.NewGenerator("shipments", start, 4*time.Second, 150,
		func(i int) confluence.Value {
			delay := 1 + rng.Intn(48)
			if i%11 == 0 {
				delay = 100 + rng.Intn(60) // late shipment
			}
			return confluence.NewRecord(
				"shipID", confluence.Int(i),
				"product", confluence.Int(rng.Intn(nProducts)),
				"qty", confluence.Int(10+rng.Intn(10)),
				"transitHours", confluence.Int(delay),
			)
		})

	inv := &inventory{stock: map[int]int{}}
	for p := 0; p < nProducts; p++ {
		inv.stock[p] = 40
	}

	// Draw down inventory per order; emit the level for monitoring.
	drawdown := confluence.NewFunc("drawdown", confluence.Passthrough(),
		func(_ *confluence.FireContext, w *confluence.Window, emit func(confluence.Value)) error {
			for i := range w.Len() {
				r := w.Record(i)
				level := inv.add(int(r.Int("product")), -int(r.Int("qty")))
				emit(r.With("level", confluence.Int(level)))
			}
			return nil
		})

	// Restock from shipments.
	restock := confluence.NewFunc("restock", confluence.Passthrough(),
		func(_ *confluence.FireContext, w *confluence.Window, emit func(confluence.Value)) error {
			for i := range w.Len() {
				r := w.Record(i)
				level := inv.add(int(r.Int("product")), int(r.Int("qty")))
				emit(r.With("level", confluence.Int(level)))
			}
			return nil
		})

	// Reorder alert: a product whose last three observed levels are all
	// below threshold triggers exactly one alert per window.
	var alerts []string
	reorder := confluence.NewSink("reorder", confluence.WindowSpec{
		Unit: confluence.Tuples, Size: 3, Step: 3, GroupBy: []string{"product"},
	}, func(_ *confluence.FireContext, w *confluence.Window) error {
		low := true
		for i := range w.Len() {
			if w.Record(i).Int("level") >= 15 {
				low = false
			}
		}
		if low {
			p := w.Record(0).Int("product")
			lvl := w.Record(w.Len() - 1).Int("level")
			alerts = append(alerts, fmt.Sprintf("product %d low (level %d): reorder", p, lvl))
		}
		return nil
	})

	// Delayed-shipment flagging straight off the shipment stream.
	var delayed []int64
	lateWatch := confluence.NewSink("lateWatch", confluence.Passthrough(),
		func(_ *confluence.FireContext, w *confluence.Window) error {
			for i := range w.Len() {
				r := w.Record(i)
				if r.Int("transitHours") > 96 {
					delayed = append(delayed, r.Int("shipID"))
				}
			}
			return nil
		})

	wf := confluence.NewWorkflow("supplychain")
	wf.MustAdd(orders, shipments, drawdown, restock, reorder, lateWatch)
	wf.MustConnect(orders.Out(), drawdown.In())
	wf.MustConnect(shipments.Out(), restock.In())
	wf.MustConnect(drawdown.Out(), reorder.In())
	wf.MustConnect(restock.Out(), reorder.In()) // fan-in: both streams feed monitoring
	wf.MustConnect(shipments.Out(), lateWatch.In())

	err := confluence.Run(context.Background(), wf, confluence.RunOptions{
		Scheduler: "QBS",
		Priorities: map[string]int{
			// Alerting is the immediate output: highest priority, as in
			// the paper's Linear Road configuration.
			"reorder":   5,
			"lateWatch": 5,
			"drawdown":  10,
			"restock":   10,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("reorder alerts (%d):\n", len(alerts))
	for _, a := range alerts {
		fmt.Println("  " + a)
	}
	fmt.Printf("delayed shipments (%d): %v\n", len(delayed), delayed)

	inv.mu.Lock()
	products := make([]int, 0, len(inv.stock))
	for p := range inv.stock {
		products = append(products, p)
	}
	sort.Ints(products)
	fmt.Println("final stock levels:")
	for _, p := range products {
		fmt.Printf("  product %d: %d units\n", p, inv.stock[p])
	}
	inv.mu.Unlock()
}
