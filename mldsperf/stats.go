package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples, a p90 at least 100.
const minTail = 10

// tailLevels are the percentiles a "high percentile" metric may fall back
// to, highest first, when a run holds too few samples for the one asked.
var tailLevels = []float64{0.99, 0.95, 0.90, 0.50}

// quantile returns the q-quantile of sorted by the nearest-rank rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// supports reports whether n samples put at least minTail samples beyond
// the q-quantile.
func supports(n int, q float64) bool {
	return float64(n)*(1-q) >= minTail-1e-9
}

// summary is one latency distribution reduced to what the benchmark
// reports: its median, its highest supported tail percentile, and the
// sample count behind both.
type summary struct {
	N      int
	P50    float64
	Tail   float64 // the value at TailQ
	TailQ  float64 // the percentile actually reported for the tail requested
	Mean   float64
	Sorted []float64
}

// summarize reduces samples; want is the tail percentile requested
// (normally 0.99). The tail falls back to the highest level in tailLevels
// at or below want that has minTail samples beyond it.
func summarize(samples []float64, want float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := summary{N: len(s), Sorted: s}
	if len(s) == 0 {
		return out
	}
	out.P50 = quantile(s, 0.5)
	var sum float64
	for _, v := range s {
		sum += v
	}
	out.Mean = sum / float64(len(s))
	for _, q := range tailLevels {
		if q <= want && supports(len(s), q) {
			out.Tail, out.TailQ = quantile(s, q), q
			return out
		}
	}
	out.Tail, out.TailQ = out.P50, 0.5
	return out
}

// quietLow is the lower quartile of repeated measurements of a time, and
// quietHigh the upper quartile of repeated measurements of a rate. On a
// shared host, outside load only ever makes the program slower, and it
// comes and goes within a run; the quartile on the fast side reports what
// the program does in the run's quieter parts, while one or two outliers
// on the fast side still cannot set it.
func quietLow(v []float64) float64 { return quartile(v, 0.25) }

func quietHigh(v []float64) float64 { return quartile(v, 0.75) }

// quartile interpolates the q-quantile of a small set of measurements
// linearly between ranks, as Python's statistics.quantiles does with its
// "inclusive" method.
func quartile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// median of a small set of repeated measurements.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
