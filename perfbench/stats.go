package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs (linear interpolation between
// order statistics); NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// sampleOp times op in batches until budget has elapsed (at least
// minBatches batches) and returns the median seconds per op. The batch
// size grows until one batch takes ≥ 2 ms, so timer resolution never
// dominates a sub-microsecond op.
func sampleOp(budget time.Duration, minBatches int, op func() error) (float64, int, error) {
	per := 1
	for {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			if err := op(); err != nil {
				return 0, 0, err
			}
		}
		if time.Since(t0) >= 2*time.Millisecond || per >= 1<<20 {
			break
		}
		per *= 2
	}
	var xs []float64
	deadline := time.Now().Add(budget)
	for len(xs) < minBatches || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			if err := op(); err != nil {
				return 0, 0, err
			}
		}
		xs = append(xs, time.Since(t0).Seconds()/float64(per))
	}
	return median(xs), len(xs), nil
}
