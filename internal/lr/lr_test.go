package lr

import (
	"context"
	"math"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Seed: 7, Duration: 60 * time.Second}
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a.Reports) != len(b.Reports) {
		t.Fatalf("runs differ: %d vs %d reports", len(a.Reports), len(b.Reports))
	}
	for i := range a.Reports {
		if a.Reports[i] != b.Reports[i] {
			t.Fatalf("report %d differs: %+v vs %+v", i, a.Reports[i], b.Reports[i])
		}
	}
	if len(a.Accidents) == 0 {
		t.Error("no staged incidents in 60s workload")
	}
}

func TestGenerateReportsOrderedAndValid(t *testing.T) {
	w := Generate(GenConfig{Seed: 1, Duration: 120 * time.Second})
	if !sort.SliceIsSorted(w.Reports, func(i, j int) bool {
		return w.Reports[i].Time < w.Reports[j].Time
	}) {
		t.Fatal("reports not time-ordered")
	}
	for _, r := range w.Reports {
		if r.Seg < 0 || r.Seg >= SegmentsPerXway {
			t.Fatalf("segment out of range: %+v", r)
		}
		if r.Pos/FeetPerSegment != r.Seg {
			t.Fatalf("pos/seg inconsistent: %+v", r)
		}
		if r.Speed < 0 || r.Speed > 80 {
			t.Fatalf("speed out of range: %+v", r)
		}
		if r.Time < 0 || r.Time > 120*time.Second {
			t.Fatalf("time out of range: %+v", r)
		}
	}
}

func TestGenerateRampMatchesFigure5(t *testing.T) {
	w := Generate(GenConfig{Seed: 3, Duration: 600 * time.Second})
	series := w.RateSeries(20 * time.Second)
	rateNear := func(sec float64) float64 {
		for _, p := range series {
			if p.T <= sec && sec < p.T+20 {
				return p.Rate
			}
		}
		return -1
	}
	cfg := w.Config
	for _, sec := range []float64{100, 200, 320, 440, 560} {
		got := rateNear(sec)
		want := cfg.TargetRate(sec)
		if math.Abs(got-want) > want*0.25+8 {
			t.Errorf("rate at %vs = %.1f/s, want ~%.1f/s", sec, got, want)
		}
	}
	// The two calibration crossings of Figure 8.
	if r := cfg.TargetRate(320); math.Abs(r-120) > 1 {
		t.Errorf("target rate at 320s = %v, want 120", r)
	}
	if r := cfg.TargetRate(440); math.Abs(r-165) > 1 {
		t.Errorf("target rate at 440s = %v, want 165", r)
	}
	if r := cfg.TargetRate(599); r != 200 {
		t.Errorf("capped rate = %v, want 200", r)
	}
}

func TestGenerateCongestedSegmentsAreSlowAndDense(t *testing.T) {
	w := Generate(GenConfig{Seed: 5, Duration: 400 * time.Second})
	cfg := w.Config
	speedSum := map[bool]float64{}
	speedN := map[bool]int{}
	for _, r := range w.Reports {
		if r.Speed == 0 {
			continue // staged incidents
		}
		congested := r.Seg >= cfg.CongestedLo && r.Seg <= cfg.CongestedHi
		speedSum[congested] += r.Speed
		speedN[congested]++
	}
	if speedN[true] == 0 {
		t.Fatal("no reports in congested range")
	}
	avgCongested := speedSum[true] / float64(speedN[true])
	avgFree := speedSum[false] / float64(speedN[false])
	if avgCongested >= 40 {
		t.Errorf("congested avg speed %.1f, want < 40 (LAV toll condition)", avgCongested)
	}
	if avgFree <= 40 {
		t.Errorf("free-flow avg speed %.1f, want > 40", avgFree)
	}
}

func TestReportRecordRoundTrip(t *testing.T) {
	r := Report{Time: 90 * time.Second, Car: 42, Speed: 55, XWay: 0, Lane: 2, Dir: 0, Seg: 17, Pos: 17*FeetPerSegment + 100}
	got := ReportFromRecord(r.Record())
	if got != r {
		t.Errorf("round trip: %+v != %+v", got, r)
	}
}

func TestDBSegmentStatisticsAndLAV(t *testing.T) {
	db := NewDB()
	// Five minutes of history for segment 30.
	for m := int64(0); m < 5; m++ {
		db.RecordMinuteAvg(0, 0, 30, m, 30+float64(m)) // 30..34
		db.RecordCarCount(0, 0, 30, m, 60)
	}
	lav, ok := db.LAV(0, 0, 30, 5)
	if !ok || lav != 32 {
		t.Errorf("LAV = %v, %v; want 32", lav, ok)
	}
	cars, ok := db.CarCount(0, 0, 30, 5)
	if !ok || cars != 60 {
		t.Errorf("CarCount = %v, %v; want 60", cars, ok)
	}
	// Upsert semantics: re-recording a minute replaces, not duplicates.
	db.RecordMinuteAvg(0, 0, 30, 4, 20)
	lav, _ = db.LAV(0, 0, 30, 5)
	if lav != (30+31+32+33+20)/5.0 {
		t.Errorf("LAV after upsert = %v", lav)
	}
}

func TestDBToll(t *testing.T) {
	db := NewDB()
	now := int64(360) // minute 6
	for m := int64(1); m < 6; m++ {
		db.RecordMinuteAvg(0, 0, 30, m, 30) // LAV 30 < 40
	}
	db.RecordCarCount(0, 0, 30, 5, 80) // 80 > 50 in the previous minute

	if got, want := db.Toll(0, 0, 30, now), 2*30.0*30.0; got != want {
		t.Errorf("Toll = %v, want %v (2*(80-50)^2)", got, want)
	}
	// Fast traffic: no toll.
	for m := int64(1); m < 6; m++ {
		db.RecordMinuteAvg(0, 0, 40, m, 55)
	}
	db.RecordCarCount(0, 0, 40, 5, 80)
	if got := db.Toll(0, 0, 40, now); got != 0 {
		t.Errorf("fast segment toll = %v, want 0", got)
	}
	// Light traffic: no toll.
	for m := int64(1); m < 6; m++ {
		db.RecordMinuteAvg(0, 0, 50, m, 30)
	}
	db.RecordCarCount(0, 0, 50, 5, 20)
	if got := db.Toll(0, 0, 50, now); got != 0 {
		t.Errorf("light segment toll = %v, want 0", got)
	}
	// No history: no toll.
	if got := db.Toll(0, 0, 99, now); got != 0 {
		t.Errorf("no-history toll = %v, want 0", got)
	}
	// Accident in range kills the toll: for dir=0 the alert range is
	// [accidentSeg-4, accidentSeg], so an accident at segment 31 covers a
	// car entering segment 30.
	db.InsertAccident(0, 0, 31, 31*FeetPerSegment, now-10)
	if got := db.Toll(0, 0, 30, now); got != 0 {
		t.Errorf("toll with accident ahead = %v, want 0", got)
	}
}

func TestDBAccidentAhead(t *testing.T) {
	db := NewDB()
	db.InsertAccident(0, 0, 30, 30*FeetPerSegment+5, 100)

	// dir=0: alert for seg in [26, 30].
	cases := []struct {
		seg  int
		want bool
	}{{30, true}, {28, true}, {26, true}, {25, false}, {31, false}}
	for _, c := range cases {
		_, got := db.AccidentAhead(0, 0, c.seg, 120)
		if got != c.want {
			t.Errorf("dir0 seg %d: AccidentAhead = %v, want %v", c.seg, got, c.want)
		}
	}
	// Staleness: accidents older than 60s do not alert.
	if _, got := db.AccidentAhead(0, 0, 30, 100+AccidentFreshnessSeconds+1); got {
		t.Error("stale accident still alerting")
	}
	// dir=1: alert for seg in [accSeg, accSeg+4].
	db.InsertAccident(0, 1, 50, 50*FeetPerSegment, 100)
	for _, c := range []struct {
		seg  int
		want bool
	}{{50, true}, {54, true}, {55, false}, {49, false}} {
		_, got := db.AccidentAhead(0, 1, c.seg, 120)
		if got != c.want {
			t.Errorf("dir1 seg %d: AccidentAhead = %v, want %v", c.seg, got, c.want)
		}
	}
}

func TestDBDedupAndExpire(t *testing.T) {
	db := NewDB()
	db.InsertAccident(0, 0, 30, 1000, 100)
	if !db.HasFreshAccidentAt(0, 0, 1000, 110) {
		t.Error("fresh accident not found")
	}
	if db.HasFreshAccidentAt(0, 0, 2000, 110) {
		t.Error("phantom accident")
	}
	if db.HasFreshAccidentAt(0, 0, 1000, 100+AccidentFreshnessSeconds+1) {
		t.Error("stale accident considered fresh")
	}
	db.RecordMinuteAvg(0, 0, 1, 1, 50)
	db.Expire(100+400, 300, 10)
	if db.AccidentCount() != 0 {
		t.Errorf("expired accidents remain: %d", db.AccidentCount())
	}
}

// TestWorkflowTopology pins the Figure 10 structure: three areas fanning
// out of the position-report source.
// TestDBConcurrentStatisticsOneRowPerKey races the two statistics writers
// over the same segment-minutes, as the minute-average and car-count actors
// do on the thread-based and parallel directors, and checks that every
// segment-minute ends with exactly one row carrying both columns.
func TestDBConcurrentStatisticsOneRowPerKey(t *testing.T) {
	const segs, minutes = 100, 100 // × 2 directions: 20 000 segment-minutes
	db := NewDB()
	var wg sync.WaitGroup
	for _, write := range []func(dir, seg int, minute int64){
		func(dir, seg int, minute int64) { db.RecordMinuteAvg(0, dir, seg, minute, 35) },
		func(dir, seg int, minute int64) { db.RecordCarCount(0, dir, seg, minute, 60) },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for minute := int64(0); minute < minutes; minute++ {
				for dir := 0; dir < 2; dir++ {
					for seg := 0; seg < segs; seg++ {
						write(dir, seg, minute)
					}
				}
			}
		}()
	}
	wg.Wait()
	rows := map[string]int{}
	for _, r := range db.Store().Table("segmentStatistics").Select(nil) {
		k := r.Key("xway", "dir", "seg", "minute")
		rows[k]++
		if r.Float("avgSpeed") != 35 || r.Int("cars") != 60 {
			t.Errorf("row %s = %v, want avgSpeed 35 and cars 60", k, r)
		}
	}
	if len(rows) != 2*segs*minutes {
		t.Errorf("%d segment-minutes have rows, want %d", len(rows), 2*segs*minutes)
	}
	for k, n := range rows {
		if n != 1 {
			t.Errorf("segment-minute %s has %d rows, want 1", k, n)
		}
	}
}

func TestWorkflowTopology(t *testing.T) {
	db := NewDB()
	w := Generate(GenConfig{Seed: 1, Duration: 30 * time.Second})
	epoch := time.Unix(0, 0).UTC()
	wf, _, err := Build(db, w.Feed(epoch), epoch)
	if err != nil {
		t.Fatal(err)
	}
	if err := wf.Validate(); err != nil {
		t.Fatal(err)
	}
	wantActors := []string{
		"PositionReports", "StoppedCars", "AccidentDetection", "InsertAccident",
		"AccidentNotification", "AccidentNotificationOut",
		"Avgsv", "Avgs", "UpdateSegmentSpeed", "cars", "UpdateCarCount",
		"TollCalculation", "TollNotification",
	}
	for _, name := range wantActors {
		if wf.Actor(name) == nil {
			t.Errorf("actor %s missing", name)
		}
	}
	if len(wf.Actors()) != len(wantActors) {
		t.Errorf("workflow has %d actors, want %d", len(wf.Actors()), len(wantActors))
	}
	srcs := wf.Sources()
	if len(srcs) != 1 || srcs[0].Name() != "PositionReports" {
		t.Fatalf("sources = %v", srcs)
	}
	// The source fans out to the four areas.
	downstream := wf.Downstream(srcs[0])
	wantDown := map[string]bool{"StoppedCars": true, "AccidentNotification": true, "Avgsv": true, "cars": true, "TollCalculation": true}
	if len(downstream) != len(wantDown) {
		t.Errorf("source downstream = %d actors", len(downstream))
	}
	for _, a := range downstream {
		if !wantDown[a.Name()] {
			t.Errorf("unexpected source destination %s", a.Name())
		}
	}
	// Window semantics of Appendix A.
	sc := wf.Actor("StoppedCars")
	if got := sc.Inputs()[0].Spec().String(); got != "{Size: 4 tuples, Step: 1 tuples, Group-by: carID}" {
		t.Errorf("StoppedCars spec = %s", got)
	}
	tc := wf.Actor("TollCalculation")
	if spec := tc.Inputs()[0].Spec(); spec.Size != 2 || spec.Step != 1 || spec.GroupBy[0] != "carID" {
		t.Errorf("TollCalculation spec = %s", spec)
	}
}

func TestPrioritiesMatchTable3(t *testing.T) {
	p := Priorities()
	for _, name := range []string{"TollCalculation", "TollNotification", "AccidentNotification", "AccidentNotificationOut"} {
		if p[name] != 5 {
			t.Errorf("priority[%s] = %d, want 5 (immediate output actors)", name, p[name])
		}
	}
	for _, name := range []string{"StoppedCars", "Avgsv", "cars", "AccidentDetection"} {
		if p[name] != 10 {
			t.Errorf("priority[%s] = %d, want 10", name, p[name])
		}
	}
}

func TestSetupTable3(t *testing.T) {
	s := DefaultSetup()
	if s.WorkloadRate != 200 || s.LRating != 0.5 || s.Duration != 600*time.Second {
		t.Errorf("setup = %+v", s)
	}
	if s.QBSSourceInterval != 5 {
		t.Errorf("source interval = %d", s.QBSSourceInterval)
	}
	if len(s.QBSBasicQuanta) != 5 || s.QBSBasicQuanta[0] != 500*time.Microsecond {
		t.Errorf("QBS quanta = %v", s.QBSBasicQuanta)
	}
	if len(s.RRBasicQuanta) != 4 || s.RRBasicQuanta[3] != 40*time.Millisecond {
		t.Errorf("RR quanta = %v", s.RRBasicQuanta)
	}
	out := s.String()
	for _, want := range []string{"500, 1000, 5000, 10000, 20000", "5000, 10000, 20000, 40000", "5, 10", "0.5 highways"} {
		if !contains(out, want) {
			t.Errorf("Table 3 rendering missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestShortExperimentEndToEnd runs a scaled-down Linear Road under each
// scheduler and checks that tolls and accident alerts are produced with
// sane response times while the system is underloaded.
func TestShortExperimentEndToEnd(t *testing.T) {
	setup := DefaultSetup()
	setup.Duration = 200 * time.Second
	specs := []SchedulerSpec{
		QBSSpec(500 * time.Microsecond),
		RRSpec(40 * time.Millisecond),
		RBSpec(),
		PNCWFSpec(),
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Label, func(t *testing.T) {
			res, err := setup.Run(context.Background(), spec, 11)
			if err != nil {
				t.Fatal(err)
			}
			if res.Reports == 0 {
				t.Fatal("no reports generated")
			}
			if res.TollCount == 0 {
				t.Error("no toll notifications produced")
			}
			if res.AlertCount == 0 {
				t.Error("no accident alerts produced")
			}
			// At 200s the input rate is ~75/s: far below every
			// scheduler's capacity, so nothing should thrash.
			if res.ThrashAt >= 0 && res.ThrashAt < 190 {
				t.Errorf("%s thrashed at %.0fs under light load (mean RT %v)",
					spec.Label, res.ThrashAt, res.Toll.Mean)
			}
		})
	}
}
