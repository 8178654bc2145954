package lr

import (
	"context"
	"testing"
	"time"
)

// TestLinearRoadAllocsPerReport is Linear Road's allocation gate: one short
// virtual-time run (120 s of experiment time under QBS, well under a second
// of wall time), generation, build and set-up included, counted exactly
// inside one AllocsPerRun(1, …) and divided by the reports it fed. The
// bound is the measured figure plus a tenth. It holds the sum; the window,
// table and composite paths each have an exact gate of their own
// (TestCompositeFireAllocs, relstore's TestIndexedLookupAllocs).
func TestLinearRoadAllocsPerReport(t *testing.T) {
	setup := DefaultSetup()
	setup.Duration = 120 * time.Second
	var res *Result
	allocs := testing.AllocsPerRun(1, func() {
		var err error
		if res, err = setup.Run(context.Background(), QBSSpec(500*time.Microsecond), 1); err != nil {
			t.Fatal(err)
		}
	})
	if res.Reports == 0 || res.TollCount == 0 {
		t.Fatalf("run fed %d reports and produced %d tolls; want both > 0", res.Reports, res.TollCount)
	}
	per := allocs / float64(res.Reports)
	// measured is what this run read when the gate was set (go1.24,
	// linux/amd64; 70 328 allocations over 3 333 reports, ±6 across runs).
	const measured = 21.10
	limit := measured * 1.1
	t.Logf("%d reports, %.0f allocations: %.3f per report (limit %.3f)", res.Reports, allocs, per, limit)
	if per > limit {
		t.Errorf("Linear Road allocates %.3f objects per report, want at most %.3f", per, limit)
	}
}
