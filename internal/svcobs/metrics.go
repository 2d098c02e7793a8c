package svcobs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Prefix is the Prometheus namespace every Registry series is exported
// under: a metric registered as "shards_completed_total" scrapes as
// zenspec_service_shards_completed_total.
const Prefix = "zenspec_service_"

// histBounds are the histogram bucket upper bounds. Values are host
// milliseconds for the *_ms latency series; the dimensionless series (watch
// fan-out) reuse them as plain counts. The range spans a sub-millisecond
// journal fsync to a multi-minute shard.
var histBounds = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000, 300000}

// hist is one cumulative histogram series.
type hist struct {
	count   uint64
	sum     float64
	max     float64
	buckets []uint64 // len(histBounds)+1, +Inf last
}

func newHist() *hist { return &hist{buckets: make([]uint64, len(histBounds)+1)} }

func (h *hist) observe(v float64) {
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	i := sort.SearchFloat64s(histBounds, v)
	h.buckets[i]++
}

// Registry is the service metrics registry: monotonic counters and
// cumulative histograms, optionally labeled, with Prometheus text exposition.
// All methods are safe for concurrent use and no-ops on a nil receiver.
//
// Series carrying host wall-clock values are inherently nondeterministic;
// MarkVolatile excludes a series (its values always, its very presence and
// count too) from StableSnapshot, the deterministic view the cross-worker
// identity tests compare.
type Registry struct {
	mu       sync.Mutex
	counters map[string]map[string]uint64
	hists    map[string]map[string]*hist
	help     map[string]string
	volatile map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]map[string]uint64{},
		hists:    map[string]map[string]*hist{},
		help:     map[string]string{},
		volatile: map[string]bool{},
	}
}

// Label renders one label pair for the labels argument of IncL/ObserveL,
// escaping the value per the Prometheus text format.
func Label(key, value string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return key + `="` + r.Replace(value) + `"`
}

// Describe attaches HELP text to a metric name (shown on /metrics).
func (r *Registry) Describe(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

// MarkVolatile excludes the named metric from StableSnapshot: its counts are
// functions of host timing (heartbeat races, journal segment boundaries),
// not of the job's deterministic execution.
func (r *Registry) MarkVolatile(names ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	for _, n := range names {
		r.volatile[n] = true
	}
	r.mu.Unlock()
}

// Inc adds n to the unlabeled counter series of name.
func (r *Registry) Inc(name string, n uint64) { r.IncL(name, "", n) }

// IncL adds n to the counter series of name with the given label set
// (rendered by Label, comma-joined for multiple pairs; "" means unlabeled).
func (r *Registry) IncL(name, labels string, n uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	s := r.counters[name]
	if s == nil {
		s = map[string]uint64{}
		r.counters[name] = s
	}
	s[labels] += n
	r.mu.Unlock()
}

// Observe records v in the unlabeled histogram series of name.
func (r *Registry) Observe(name string, v float64) { r.ObserveL(name, "", v) }

// ObserveL records v in the histogram series of name with the given labels.
func (r *Registry) ObserveL(name, labels string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	s := r.hists[name]
	if s == nil {
		s = map[string]*hist{}
		r.hists[name] = s
	}
	h := s[labels]
	if h == nil {
		h = newHist()
		s[labels] = h
	}
	h.observe(v)
	r.mu.Unlock()
}

// Counter returns the counter series' current value (0 when absent, or on a
// nil registry).
func (r *Registry) Counter(name, labels string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name][labels]
}

// HistCount returns the histogram series' observation count.
func (r *Registry) HistCount(name, labels string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.hists[name][labels]; h != nil {
		return h.count
	}
	return 0
}

func series(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func bucketSeries(name, labels, le string) string {
	l := `le="` + le + `"`
	if labels != "" {
		l = labels + "," + l
	}
	return name + "_bucket{" + l + "}"
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus writes the registry as Prometheus text exposition, every
// name under the zenspec_service_ prefix, sorted for a stable scrape layout.
// The daemon's /metrics serves it after the live queue gauges.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		full := Prefix + n
		if h := r.help[n]; h != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", full, h)
		}
		fmt.Fprintf(w, "# TYPE %s counter\n", full)
		lsets := make([]string, 0, len(r.counters[n]))
		for l := range r.counters[n] {
			lsets = append(lsets, l)
		}
		sort.Strings(lsets)
		for _, l := range lsets {
			fmt.Fprintf(w, "%s %d\n", series(full, l), r.counters[n][l])
		}
	}
	names = names[:0]
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		full := Prefix + n
		if h := r.help[n]; h != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", full, h)
		}
		fmt.Fprintf(w, "# TYPE %s histogram\n", full)
		lsets := make([]string, 0, len(r.hists[n]))
		for l := range r.hists[n] {
			lsets = append(lsets, l)
		}
		sort.Strings(lsets)
		for _, l := range lsets {
			h := r.hists[n][l]
			var cum uint64
			for i, b := range histBounds {
				cum += h.buckets[i]
				fmt.Fprintf(w, "%s %d\n", bucketSeries(full, l, fmtFloat(b)), cum)
			}
			cum += h.buckets[len(histBounds)]
			fmt.Fprintf(w, "%s %d\n", bucketSeries(full, l, "+Inf"), cum)
			fmt.Fprintf(w, "%s %s\n", series(full+"_sum", l), fmtFloat(h.sum))
			fmt.Fprintf(w, "%s %d\n", series(full+"_count", l), h.count)
		}
	}
}

// StableSnapshot renders the deterministic projection of the registry as
// sorted "series value" lines: every non-volatile counter, and every
// non-volatile histogram's observation *count* — never its sum, max or
// bucket tallies, which hold host wall-clock values. Two runs of the same
// deterministic job produce byte-identical stable snapshots at any worker
// count; the cross-worker tests compare exactly this.
func (r *Registry) StableSnapshot() []byte {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var lines []string
	for n, s := range r.counters {
		if r.volatile[n] {
			continue
		}
		for l, v := range s {
			lines = append(lines, fmt.Sprintf("%s %d", series(n, l), v))
		}
	}
	for n, s := range r.hists {
		if r.volatile[n] {
			continue
		}
		for l, h := range s {
			lines = append(lines, fmt.Sprintf("%s %d", series(n+"_count", l), h.count))
		}
	}
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n") + "\n")
}
