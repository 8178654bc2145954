package clock

import (
	"context"
	"slices"
	"testing"
	"time"
)

// TestParkResolution pins Park's point: a sub-millisecond park does not
// round up to the Go runtime's 1 ms netpoll granularity. The median is
// asserted so one descheduled call on a loaded host cannot flake it; no
// call may return early.
func TestParkResolution(t *testing.T) {
	ctx := context.Background()
	over := make([]time.Duration, 50)
	for i := range over {
		until := time.Now().Add(300 * time.Microsecond)
		Park(ctx, until)
		over[i] = time.Since(until)
		if over[i] < 0 {
			t.Fatalf("park %d returned %v early", i, -over[i])
		}
	}
	slices.Sort(over)
	if med := over[len(over)/2]; med >= 500*time.Microsecond {
		t.Errorf("median overshoot of a 300µs park = %v, want < 500µs", med)
	}
}

// TestParkFloor pins minPark: a target closer than the floor waits the floor.
func TestParkFloor(t *testing.T) {
	start := time.Now()
	Park(context.Background(), start.Add(20*time.Microsecond))
	if got := time.Since(start); got < minPark {
		t.Errorf("park to a target 20µs away took %v, want ≥ %v", got, minPark)
	}
}

// TestParkPastTarget pins the due case: a target in the past returns at
// once. The median of several calls is asserted, as in TestParkResolution.
func TestParkPastTarget(t *testing.T) {
	took := make([]time.Duration, 11)
	for i := range took {
		start := time.Now()
		Park(context.Background(), start.Add(-time.Second))
		took[i] = time.Since(start)
	}
	slices.Sort(took)
	if med := took[len(took)/2]; med >= minPark {
		t.Errorf("median park to a past target took %v, want < %v", med, minPark)
	}
}

// TestParkCancel pins cancellation: a long park ends within a slice of its
// context ending.
func TestParkCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan time.Time, 1)
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancelled <- time.Now()
		cancel()
	}()
	Park(ctx, time.Now().Add(5*time.Second))
	if late := time.Since(<-cancelled); late > 50*time.Millisecond {
		t.Errorf("park returned %v after its context was cancelled, want ≤ 50ms", late)
	}
}
