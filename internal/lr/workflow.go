package lr

import (
	"time"

	"repro/internal/actors"
	"repro/internal/director"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs/qos"
	"repro/internal/value"
	"repro/internal/window"
)

// Probes bundles the QoS measurement points of the workflow: response time
// is measured at TollNotification (the figures' y-axis) and at
// AccidentNotificationOut.
type Probes struct {
	Toll     *metrics.ResponseCollector
	Accident *metrics.ResponseCollector
	// TollProbe and AccidentProbe are the probe actors themselves;
	// validators tap them to capture the emitted notifications.
	TollProbe     *metrics.Probe
	AccidentProbe *metrics.Probe
	// Shedder is the load-shedding stage, non-nil when the workflow was
	// built WithShedder.
	Shedder *actors.Shedder
}

// BuildOption customizes Build.
type BuildOption func(*buildConfig)

type buildConfig struct {
	shedMaxLag time.Duration
}

// WithShedder inserts a load-shedding stage between the position-report
// source and its consumers: reports whose event time lags the engine clock
// by more than maxLag are dropped, bounding downstream response time under
// overload at the cost of completeness.
func WithShedder(maxLag time.Duration) BuildOption {
	return func(c *buildConfig) { c.shedMaxLag = maxLag }
}

// TollSLO is the paper's toll-notification deadline as a declarative SLO:
// 99% of toll notifications within NotificationDeadline end to end.
func TollSLO() qos.SLO {
	return qos.SLO{
		Name:      "toll-deadline",
		Sink:      "TollNotification",
		Target:    0.99,
		Threshold: NotificationDeadline,
	}
}

// minuteFlushTimeout forces per-minute windows out shortly after the minute
// boundary even when a group goes quiet.
const minuteFlushTimeout = 5 * time.Second

// Build assembles the two-level continuous workflow of Appendix A
// (Figure 10): the accident area (Figures 11–13), the segment-statistics
// area (Figures 14–15) and the toll area, around the given database and
// position-report feed. The top level is governed by whichever CWf director
// the caller chooses (a STAFiLOS-based one or the thread-based PNCWF);
// the second level uses SDF sub-workflows where rates are constant and DDF
// where they are fluid.
func Build(db *DB, feed actors.Feed, epoch time.Time, opts ...BuildOption) (*model.Workflow, *Probes, error) {
	var cfg buildConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	wf := model.NewWorkflow("LinearRoad")
	probes := &Probes{
		Toll:     metrics.NewResponseCollector("TollNotification", epoch, NotificationDeadline),
		Accident: metrics.NewResponseCollector("AccidentNotificationOut", epoch, NotificationDeadline),
	}

	src := actors.NewSource("PositionReports", feed, 0)

	// --- Accident detection (Figures 11–12) ---

	// Stopped-car detection: a car reporting the same location in 4
	// consecutive position reports is stopped; the sub-workflow outputs the
	// first of those reports.
	stoppedInner := model.NewWorkflow("StoppedCarsInner")
	compare := actors.NewFunc("ComparePositions", window.Passthrough(),
		func(_ *model.FireContext, w *window.Window, emit func(value.Value)) error {
			if w.Len() < 4 {
				return nil
			}
			first := w.Record(0)
			pos := first.Int("pos")
			for i := 1; i < w.Len(); i++ {
				if w.Record(i).Int("pos") != pos {
					return nil
				}
			}
			// The paper outputs the first of the four reports; the newest
			// report's time rides along so the accident table records when
			// the stop was (re-)confirmed, not when it began.
			emit(first.With("detectedAt", w.Record(3).Field("time")))
			return nil
		})
	stoppedInner.MustAdd(compare)
	stopped := director.NewComposite("StoppedCars", stoppedInner, director.DDF)
	stoppedIn := stopped.AddInput("in", window.Spec{
		Unit: window.Tuples, Size: 4, Step: 1, GroupBy: []string{"carID"},
	}, compare.In())
	stoppedOut := stopped.AddOutput("out", compare.Out())

	// Accident detection: windows of two stopped-car reports at the same
	// position; different car IDs outside an exit lane mean a collision.
	accInner := model.NewWorkflow("AccidentDetectionInner")
	collide := actors.NewFunc("CompareCarIDs", window.Passthrough(),
		func(_ *model.FireContext, w *window.Window, emit func(value.Value)) error {
			if w.Len() < 2 {
				return nil
			}
			a, b := w.Record(0), w.Record(1)
			if a.Int("carID") == b.Int("carID") {
				return nil
			}
			if a.Int("lane") == ExitLane || b.Int("lane") == ExitLane {
				return nil
			}
			emit(b)
			return nil
		})
	accInner.MustAdd(collide)
	accident := director.NewComposite("AccidentDetection", accInner, director.DDF)
	accidentIn := accident.AddInput("in", window.Spec{
		Unit: window.Tuples, Size: 2, Step: 1, GroupBy: []string{"xway", "dir", "pos"},
	}, collide.In())
	accidentOut := accident.AddOutput("out", collide.Out())

	// Record the incident in the relational store (deduplicated).
	insertAccident := actors.NewSink("InsertAccident", window.Passthrough(),
		func(ctx *model.FireContext, w *window.Window) error {
			for i := range w.Len() {
				r := w.Record(i)
				xway, dir := int(r.Int("xway")), int(r.Int("dir"))
				pos := int(r.Int("pos"))
				ts := r.Int("detectedAt")
				if ts == 0 {
					ts = r.Int("time")
				}
				db.UpsertAccident(xway, dir, int(r.Int("seg")), pos, ts)
			}
			return nil
		})

	// Accident notification (Figure 13): each position report checks for a
	// fresh accident within four segments downstream.
	accNotify := actors.NewFunc("AccidentNotification", window.Passthrough(),
		func(_ *model.FireContext, w *window.Window, emit func(value.Value)) error {
			for i := range w.Len() {
				r := w.Record(i)
				xway, dir, seg := int(r.Int("xway")), int(r.Int("dir")), int(r.Int("seg"))
				if accSeg, ok := db.AccidentAhead(xway, dir, seg, r.Int("time")); ok {
					emit(value.NewRecord(
						"type", value.Str("accidentAlert"),
						"carID", r.Field("carID"),
						"seg", value.Int(int64(seg)),
						"accidentSeg", value.Int(int64(accSeg)),
						"time", r.Field("time"),
					))
				}
			}
			return nil
		})
	accNotifyOut := metrics.NewProbe("AccidentNotificationOut", probes.Accident)
	probes.AccidentProbe = accNotifyOut

	// --- Segment statistics (Figures 14–15) ---

	// Avgsv: average speed per car, per segment, per minute.
	avgsvInner := model.NewWorkflow("AvgsvInner")
	avgSpeed := actors.NewFunc("AverageSpeed", window.Passthrough(),
		func(_ *model.FireContext, w *window.Window, emit func(value.Value)) error {
			n := w.Len()
			if n == 0 {
				return nil
			}
			sum := 0.0
			for i := range n {
				sum += w.Record(i).Float("speed")
			}
			last := w.Record(n - 1)
			emit(value.NewRecord(
				"xway", last.Field("xway"),
				"dir", last.Field("dir"),
				"seg", last.Field("seg"),
				"minute", value.Int(w.Start.Unix()/60),
				"avgsv", value.Float(sum/float64(n)),
				"time", last.Field("time"),
			))
			return nil
		})
	avgsvInner.MustAdd(avgSpeed)
	avgsv := director.NewComposite("Avgsv", avgsvInner, director.SDF)
	avgsvIn := avgsv.AddInput("in", window.Spec{
		Unit: window.Time, SizeDur: time.Minute, StepDur: time.Minute,
		GroupBy: []string{"carID", "xway", "dir", "seg"},
		Timeout: minuteFlushTimeout,
	}, avgSpeed.In())
	avgsvOut := avgsv.AddOutput("out", avgSpeed.Out())

	// Avgs: average of the car averages per segment-minute, persisted so
	// LAV (the five-minute average) can be derived at toll time.
	avgsInner := model.NewWorkflow("AvgsInner")
	segAvg := actors.NewFunc("SegmentAverage", window.Passthrough(),
		func(_ *model.FireContext, w *window.Window, emit func(value.Value)) error {
			n := w.Len()
			if n == 0 {
				return nil
			}
			sum := 0.0
			for i := range n {
				sum += w.Record(i).Float("avgsv")
			}
			last := w.Record(n - 1)
			emit(value.NewRecord(
				"xway", last.Field("xway"),
				"dir", last.Field("dir"),
				"seg", last.Field("seg"),
				"minute", last.Field("minute"),
				"avgs", value.Float(sum/float64(n)),
			))
			return nil
		})
	avgsInner.MustAdd(segAvg)
	avgs := director.NewComposite("Avgs", avgsInner, director.SDF)
	avgsIn := avgs.AddInput("in", window.Spec{
		Unit: window.Time, SizeDur: time.Minute, StepDur: time.Minute,
		GroupBy: []string{"xway", "dir", "seg"},
		Timeout: minuteFlushTimeout,
	}, segAvg.In())
	avgsOut := avgs.AddOutput("out", segAvg.Out())

	updateLAV := actors.NewSink("UpdateSegmentSpeed", window.Passthrough(),
		func(_ *model.FireContext, w *window.Window) error {
			for i := range w.Len() {
				r := w.Record(i)
				db.RecordMinuteAvg(int(r.Int("xway")), int(r.Int("dir")), int(r.Int("seg")),
					r.Int("minute"), r.Float("avgs"))
			}
			return nil
		})

	// cars: distinct cars per segment, per minute. The actor never fires
	// concurrently with itself, so one set serves every firing.
	carsInner := model.NewWorkflow("CarsInner")
	distinct := map[int64]struct{}{}
	countCars := actors.NewFunc("CountDistinctCars", window.Passthrough(),
		func(_ *model.FireContext, w *window.Window, emit func(value.Value)) error {
			n := w.Len()
			if n == 0 {
				return nil
			}
			clear(distinct)
			for i := range n {
				distinct[w.Record(i).Int("carID")] = struct{}{}
			}
			last := w.Record(n - 1)
			emit(value.NewRecord(
				"xway", last.Field("xway"),
				"dir", last.Field("dir"),
				"seg", last.Field("seg"),
				"minute", value.Int(w.Start.Unix()/60),
				"cars", value.Int(int64(len(distinct))),
			))
			return nil
		})
	carsInner.MustAdd(countCars)
	cars := director.NewComposite("cars", carsInner, director.SDF)
	carsIn := cars.AddInput("in", window.Spec{
		Unit: window.Time, SizeDur: time.Minute, StepDur: time.Minute,
		GroupBy: []string{"xway", "dir", "seg"},
		Timeout: minuteFlushTimeout,
	}, countCars.In())
	carsOut := cars.AddOutput("out", countCars.Out())

	lastExpired := int64(-1)
	updateCount := actors.NewSink("UpdateCarCount", window.Passthrough(),
		func(_ *model.FireContext, w *window.Window) error {
			for i := range w.Len() {
				r := w.Record(i)
				minute := r.Int("minute")
				db.RecordCarCount(int(r.Int("xway")), int(r.Int("dir")), int(r.Int("seg")),
					minute, int(r.Int("cars")))
				if minute > lastExpired {
					lastExpired = minute
					db.Expire(minute*60, 300, 10)
				}
			}
			return nil
		})

	// --- Toll calculation and notification ---

	tollCalc := actors.NewFunc("TollCalculation", window.Spec{
		Unit: window.Tuples, Size: 2, Step: 1, GroupBy: []string{"carID"},
	}, func(_ *model.FireContext, w *window.Window, emit func(value.Value)) error {
		if w.Len() < 2 {
			return nil
		}
		prev, cur := w.Record(0), w.Record(1)
		if prev.Int("seg") == cur.Int("seg") {
			return nil // toll only on segment change
		}
		toll := db.Toll(int(cur.Int("xway")), int(cur.Int("dir")), int(cur.Int("seg")), cur.Int("time"))
		emit(value.NewRecord(
			"type", value.Str("toll"),
			"carID", cur.Field("carID"),
			"seg", cur.Field("seg"),
			"toll", value.Float(toll),
			"time", cur.Field("time"),
		))
		return nil
	})
	tollNotify := metrics.NewProbe("TollNotification", probes.Toll)
	probes.TollProbe = tollNotify

	// --- Wiring (Figure 10) ---

	wf.MustAdd(src, stopped, accident, insertAccident, accNotify, accNotifyOut,
		avgsv, avgs, updateLAV, cars, updateCount, tollCalc, tollNotify)

	// With shedding enabled the source feeds the shedder, and everything
	// downstream reads the shed stream instead.
	feedOut := src.Out()
	conns := []struct{ from, to *model.Port }{}
	if cfg.shedMaxLag > 0 {
		shed := actors.NewShedder("ShedReports", cfg.shedMaxLag)
		probes.Shedder = shed
		wf.MustAdd(shed)
		conns = append(conns, struct{ from, to *model.Port }{src.Out(), shed.In()})
		feedOut = shed.Out()
	}

	conns = append(conns, []struct{ from, to *model.Port }{
		{feedOut, stoppedIn},
		{stoppedOut, accidentIn},
		{accidentOut, insertAccident.In()},
		{feedOut, accNotify.In()},
		{accNotify.Out(), accNotifyOut.In()},
		{feedOut, avgsvIn},
		{avgsvOut, avgsIn},
		{avgsOut, updateLAV.In()},
		{feedOut, carsIn},
		{carsOut, updateCount.In()},
		{feedOut, tollCalc.In()},
		{tollCalc.Out(), tollNotify.In()},
	}...)

	for _, c := range conns {
		if err := wf.Connect(c.from, c.to); err != nil {
			return nil, nil, err
		}
	}
	if err := wf.Validate(); err != nil {
		return nil, nil, err
	}
	return wf, probes, nil
}

// Priorities returns the designer-assigned actor priorities of Table 3: the
// highest priority (5) goes to the actors handling the immediate output of
// the workflow — TollCalculation/TollNotification for tolls and
// AccidentNotification/AccidentNotificationOut for accident alerts — and 10
// to the actors maintaining statistics and detecting accidents.
func Priorities() map[string]int {
	return map[string]int{
		"TollCalculation":         5,
		"TollNotification":        5,
		"AccidentNotification":    5,
		"AccidentNotificationOut": 5,
		"StoppedCars":             10,
		"AccidentDetection":       10,
		"InsertAccident":          10,
		"Avgsv":                   10,
		"Avgs":                    10,
		"UpdateSegmentSpeed":      10,
		"cars":                    10,
		"UpdateCarCount":          10,
	}
}
