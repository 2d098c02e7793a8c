package main

import (
	"bufio"
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
)

// scrape is one read of a Prometheus text exposition: every sample keyed by
// its full series name including labels, e.g.
// `zenspec_service_fsync_ms_bucket{le="5"}`.
type scrape map[string]float64

func parseScrape(data []byte) scrape {
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// since returns the per-series increase from an earlier scrape of the same
// process (counters and histogram series only grow).
func (s scrape) since(before scrape) scrape {
	out := scrape{}
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}

// sum adds every series of the metric name over all label sets.
func (s scrape) sum(name string) float64 {
	var t float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// quantile estimates the q-th quantile (0..1) of a histogram from its
// cumulative buckets, summed over label sets and interpolated linearly
// within the bucket the rank falls in, as PromQL's histogram_quantile does.
// It returns NaN for an empty histogram.
func (s scrape) quantile(name string, q float64) float64 {
	byLE := map[float64]float64{}
	for k, v := range s {
		if !strings.HasPrefix(k, name+"_bucket{") {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		rest := k[i+4:]
		le, err := strconv.ParseFloat(rest[:strings.IndexByte(rest, '"')], 64)
		if err != nil {
			continue
		}
		byLE[le] += v
	}
	les := make([]float64, 0, len(byLE))
	for le := range byLE {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 || byLE[les[len(les)-1]] == 0 {
		return math.NaN()
	}
	rank := q * byLE[les[len(les)-1]]
	lower, below := 0.0, 0.0
	for _, le := range les {
		n := byLE[le]
		if n >= rank {
			if math.IsInf(le, 1) {
				return lower
			}
			if n == below {
				return le
			}
			return lower + (le-lower)*(rank-below)/(n-below)
		}
		lower, below = le, n
	}
	return lower
}
