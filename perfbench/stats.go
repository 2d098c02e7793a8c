package main

import (
	"math"
	"sort"
)

// Percentile is one nearest-rank percentile of a sample, carried with the
// sample size and the number of samples above it, so a reader can tell a p90
// over 200 jobs from a p90 over five passes.
type Percentile struct {
	P      float64 `json:"p"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs.
// An empty sample yields a zero Percentile with N == 0.
func percentile(xs []float64, p float64) Percentile {
	if len(xs) == 0 {
		return Percentile{P: p}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return Percentile{P: p, Value: s[rank-1], N: len(s), Beyond: len(s) - rank}
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tally counts attempted and failed operations. An operation fails on a job
// failure, a report byte mismatch, a band failure, a timeout, or a process
// that exits badly or leaks; a failed operation keeps its place in the
// latency sample as a miss (see missLatency) and is never dropped.
type tally struct {
	attempted int
	failed    int
	reasons   map[string]int
}

// add records one operation; a non-nil err marks it failed.
func (t *tally) add(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if t.reasons == nil {
		t.reasons = map[string]int{}
	}
	t.reasons[err.Error()]++
}

// ratio is failed over attempted; 0 before any operation.
func (t *tally) ratio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
