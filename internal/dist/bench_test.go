package dist

import (
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/value"
)

// benchEvent is a representative bridge payload: the Linear Road position
// report record the paper's evaluation streams across nodes.
func benchEvent() *event.Event {
	base := time.Date(2026, 1, 2, 3, 4, 5, 678900000, time.UTC)
	return &event.Event{
		Token: value.NewRecord(
			"carID", value.Int(1042),
			"speed", value.Float(53.5),
			"xway", value.Int(2),
			"lane", value.Int(1),
			"dir", value.Int(0),
			"mile", value.Int(37),
		),
		Time: base,
		Wave: event.WaveTag{Root: base.UnixNano(), RootSeq: 7, Path: []int{2, 1}, Last: true},
	}
}

// BenchmarkWireEncodeBinary measures the binary frame path's per-event
// encode into a warm reused buffer — the sender's steady state.
// TestAppendEventZeroAlloc asserts its allocs/op column reads 0.
func BenchmarkWireEncodeBinary(b *testing.B) {
	ev := benchEvent()
	buf := appendEvent(nil, ev, false, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendEvent(buf[:0], ev, false, 0, 0)
	}
}

// TestAppendEventZeroAlloc pins the sender's per-event encode at zero
// allocations (run by `make bench-gate`): once the buffer is warm,
// appendEvent writes an untraced event, and a traced one carrying its
// origin and send-time stamp, without touching the allocator: 0 objects
// over 1000 encodes, counted exactly rather than averaged per encode.
func TestAppendEventZeroAlloc(t *testing.T) {
	ev := benchEvent()
	for _, tc := range []struct {
		name   string
		traced bool
		origin uint64
		sendNs int64
	}{
		{"untraced", false, 0, 0},
		{"traced", true, 0xfeedface, ev.Time.UnixNano()},
	} {
		buf := appendEvent(nil, ev, tc.traced, tc.origin, tc.sendNs) // warm the buffer
		const encodes = 1000
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < encodes; i++ {
				buf = appendEvent(buf[:0], ev, tc.traced, tc.origin, tc.sendNs)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %d appendEvent calls allocated %.0f objects, want 0", tc.name, encodes, allocs)
		}
	}
}

// BenchmarkWireDecodeBinary measures the receiver-side per-event decode.
func BenchmarkWireDecodeBinary(b *testing.B) {
	wire := appendEvent(nil, benchEvent(), false, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := decodeWireEvent(wire); err != nil {
			b.Fatal(err)
		}
	}
}
