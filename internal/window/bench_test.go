package window

import (
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/value"
)

// benchPut times Put over 32 keys. The records are built once per key, as
// the benchmark's window layer does, so the numbers measure the operator and
// not value.NewRecord.
func benchPut(b *testing.B, spec Spec) {
	op := New(spec)
	tk := event.NewTimekeeper()
	recs := make([]value.Value, 32)
	for k := range recs {
		recs[k] = value.NewRecord("k", value.Int(int64(k)), "v", value.Int(int64(k)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := time.Unix(int64(i), 0).UTC()
		op.Put(tk.External(recs[i%len(recs)], now), now)
		if i%64 == 0 {
			op.DrainExpired()
		}
	}
}

func BenchmarkTupleSlidingPut(b *testing.B) {
	benchPut(b, Spec{Unit: Tuples, Size: 4, Step: 1})
}

func BenchmarkTupleGroupByPut(b *testing.B) {
	benchPut(b, Spec{Unit: Tuples, Size: 4, Step: 1, GroupBy: []string{"k"}})
}

func BenchmarkTimeTumblingPut(b *testing.B) {
	benchPut(b, Spec{Unit: Time, SizeDur: time.Minute, StepDur: time.Minute, GroupBy: []string{"k"}})
}

func BenchmarkTimeTumblingWithTimeoutPut(b *testing.B) {
	benchPut(b, Spec{Unit: Time, SizeDur: time.Minute, StepDur: time.Minute,
		GroupBy: []string{"k"}, Timeout: 5 * time.Second})
}

func BenchmarkPassthroughPut(b *testing.B) {
	benchPut(b, Passthrough())
}
