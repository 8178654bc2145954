package main

import (
	"slices"
	"syscall"
	"time"
)

// sample is one paced result: when its newest contributing event was due
// (ns after the phase epoch) and how long after that the sink saw it.
type sample struct {
	due  int64
	resp int64
}

// median returns the middle of xs (mean of the two middles when even); xs
// is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quantile returns the q-quantile of sorted xs by nearest rank.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// bucketWidth is the due-time bucket over which paced percentiles are taken
// before their median is reported. On a shared two-core VM a whole-run tail
// percentile is set by the one or two 30-100 ms stalls the run happened to
// catch; the median over buckets is set by the engine.
const bucketWidth = 500 * time.Millisecond

// bucketQuantiles groups samples by due time, drops the first bucket (cold
// caches, the engine's first wake-up; kept when it is the only one) and any
// trailing bucket under half the size of the fullest, and returns the
// median over buckets of each requested per-bucket quantile, in ns, plus the
// number of buckets used.
func bucketQuantiles(samples []sample, qs ...float64) ([]float64, int) {
	buckets := map[int64][]int64{}
	for _, s := range samples {
		b := s.due / int64(bucketWidth)
		buckets[b] = append(buckets[b], s.resp)
	}
	if len(buckets) > 1 {
		delete(buckets, 0)
	}
	full := 0
	for _, b := range buckets {
		if len(b) > full {
			full = len(b)
		}
	}
	perQ := make([][]float64, len(qs))
	used := 0
	for _, b := range buckets {
		if len(b)*2 < full {
			continue
		}
		used++
		slices.Sort(b)
		for i, q := range qs {
			perQ[i] = append(perQ[i], float64(quantile(b, q)))
		}
	}
	out := make([]float64, len(qs))
	for i := range qs {
		out[i] = median(perQ[i])
	}
	return out, used
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
