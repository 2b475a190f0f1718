package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile for
// it to mean anything: with fewer, one outlier decides the value.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs, which
// it sorts in place. An empty input yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), q)-1]
}

// rank is the 1-based nearest rank of the q-quantile among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailQuantiles are the percentiles the benchmark may report, lowest first.
var tailQuantiles = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// highestTail returns the highest of tailQuantiles that still has at
// least minTail samples beyond it among n, or 0 when none has.
func highestTail(n int) float64 {
	best := 0.0
	for _, q := range tailQuantiles {
		if n-rank(n, q) >= minTail {
			best = q
		}
	}
	return best
}

// median of xs (sorted in place); 0 for an empty input.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// poisson returns the arrival offsets of a Poisson process of the given
// rate (events per second) over [0, span), drawn from rng. The same rng
// state yields the same schedule.
func poisson(rng *rand.Rand, rate float64, span time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	limit := span.Seconds()
	for {
		t += rng.ExpFloat64() / rate
		if t >= limit {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload never
// reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
