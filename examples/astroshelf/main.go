// AstroShelf-style sky monitoring: the paper's scientific-domain
// application class — continuous streams of telescope observations,
// per-object sliding windows detecting brightness transients, and a
// response-time probe verifying the alerts meet a latency target.
// Demonstrates time-based windows with formation timeouts and the metrics
// probe from the public API.
//
//	go run ./examples/astroshelf
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	confluence "repro"
)

func main() {
	rng := rand.New(rand.NewSource(3))
	epoch := time.Unix(0, 0).UTC()

	const objects = 8
	const samples = 1200

	// Observation stream: magnitude samples for several sky objects, one
	// sample every 500ms of event time; two objects flare mid-run.
	obs := confluence.NewGenerator("telescope", epoch, 500*time.Millisecond, samples,
		func(i int) confluence.Value {
			obj := i % objects
			t := float64(i/objects) * 0.5 // seconds of object time
			mag := 14 + float64(obj)*0.3 + rng.NormFloat64()*0.05
			// Objects 2 and 5 brighten sharply for ~20 samples mid-run.
			if (obj == 2 && t > 30 && t < 40) || (obj == 5 && t > 50 && t < 60) {
				mag -= 2.5
			}
			return confluence.NewRecord(
				"object", confluence.Int(obj),
				"mag", confluence.Float(mag),
			)
		})

	// Transient detection: a one-minute sliding window (30s step, 5s
	// formation timeout) per object; a window whose newest sample is much
	// brighter than the window median is a transient candidate.
	detect := confluence.NewFunc("transients", confluence.WindowSpec{
		Unit:    confluence.Time,
		SizeDur: time.Minute,
		StepDur: 30 * time.Second,
		GroupBy: []string{"object"},
		Timeout: 5 * time.Second,
	}, func(_ *confluence.FireContext, w *confluence.Window, emit func(confluence.Value)) error {
		n := w.Len()
		if n < 8 {
			return nil
		}
		med := median(w)
		newest := w.Record(n - 1)
		if med-newest.Float("mag") > 1.0 { // smaller magnitude = brighter
			emit(confluence.NewRecord(
				"object", newest.Field("object"),
				"mag", newest.Field("mag"),
				"baseline", confluence.Float(med),
			))
		}
		return nil
	})

	// Probe: measures how quickly alerts follow the triggering sample.
	collector := confluence.NewResponseCollector("alerts", epoch, 10*time.Second)
	probe := confluence.NewProbe("alertProbe", collector)
	sink := confluence.NewCollect("annotations")

	wf := confluence.NewWorkflow("astroshelf")
	wf.MustAdd(obs, detect, probe, sink)
	wf.MustConnect(obs.Out(), detect.In())
	wf.MustConnect(detect.Out(), probe.In())
	wf.MustConnect(probe.Out(), sink.In())

	// Virtual-time run: deterministic, instant, with modelled costs.
	err := confluence.Run(context.Background(), wf, confluence.RunOptions{
		Scheduler: "EDF",
		Virtual:   true,
		Cost:      confluence.UniformCost(200*time.Microsecond, 20*time.Microsecond),
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("transient alerts: %d\n", len(sink.Tokens))
	seen := map[int64]bool{}
	for _, tok := range sink.Tokens {
		r := tok.(confluence.Record)
		obj := r.Int("object")
		if !seen[obj] {
			seen[obj] = true
			fmt.Printf("  object %d flared: mag %.2f against baseline %.2f\n",
				obj, r.Float("mag"), r.Float("baseline"))
		}
	}
	s := collector.Summary()
	fmt.Printf("alert latency: mean %v, p95 %v, %.0f%% within 10s\n",
		s.Mean.Round(time.Millisecond), s.P95.Round(time.Millisecond), 100*s.WithinDeadline)
	if !seen[2] || !seen[5] {
		log.Fatal("expected flares on objects 2 and 5 were not detected")
	}
}

// median returns the median magnitude of a window's records.
func median(w *confluence.Window) float64 {
	mags := make([]float64, w.Len())
	for i := range mags {
		mags[i] = w.Record(i).Float("mag")
	}
	// insertion sort: windows are small
	for i := 1; i < len(mags); i++ {
		for j := i; j > 0 && mags[j] < mags[j-1]; j-- {
			mags[j], mags[j-1] = mags[j-1], mags[j]
		}
	}
	n := len(mags)
	if n%2 == 1 {
		return mags[n/2]
	}
	return (mags[n/2-1] + mags[n/2]) / 2
}
