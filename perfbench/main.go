// Command perfbench is zenspec's benchmark. It starts the system under
// test itself (a queue-only zenspecd with one zenspec-worker per core),
// drives one workload for a fixed time from a single process, checks every
// report byte for byte against a reference computed in setup, and prints one
// JSON result line. See README.md for the
// workloads and what each metric measures; run it through run.sh, which
// builds the binaries first:
//
//	bash perfbench/run.sh --workload jobs-small --seed 42 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() { os.Exit(run()) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	binDir   string
	workDir  string
}

func run() int {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: jobs-small or jobs-split")
	flag.Int64Var(&o.seed, "seed", 42, "workload seed (draws the job order and simulation seeds)")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured phase length in seconds (at least one operation runs)")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	flag.StringVar(&o.binDir, "bin", "", "directory holding the zenspecd and zenspec-worker binaries")
	flag.StringVar(&o.workDir, "work", "", "directory for state directories and result records")
	flag.Parse()
	o.trace = traceFlag == 1
	if o.binDir == "" || o.workDir == "" || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -bin and -work are required and -trace is 0 or 1 (use run.sh)")
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	b := newBench(o)
	err := w(b)
	if err != nil {
		b.t.add(fmt.Errorf("run aborted: %w", err))
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	res := b.result()
	rec := map[string]any{"provenance": b.provenance(), "result": res, "detail": b.detail}
	if data, err := json.MarshalIndent(rec, "", "  "); err == nil {
		name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, traceFlag)
		if err := os.WriteFile(filepath.Join(o.workDir, name), data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
	for reason, n := range b.t.reasons {
		fmt.Fprintf(os.Stderr, "perfbench: failed x%d: %s\n", n, reason)
	}
	prov, _ := json.Marshal(map[string]any{"provenance": b.provenance()})
	fmt.Println(string(prov))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if err != nil || !res.Correct {
		return 1
	}
	return 0
}

// bench is one run's state: the options, the operation tally, and the
// metrics and details gathered so far.
type bench struct {
	opts    options
	nproc   int
	t       tally
	metrics map[string]float64
	detail  map[string]any
	flags   map[string][]string // command lines of the started system, for provenance
}

func newBench(o options) *bench {
	return &bench{
		opts:    o,
		nproc:   runtime.NumCPU(),
		metrics: map[string]float64{},
		detail:  map[string]any{},
		flags:   map[string][]string{},
	}
}

// deadline is when the measured phase of the given length ends.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result reports every metric of the run's kind (end-to-end, or per-layer
// when traced) declared in the metric tables. A metric the run could not
// measure is reported as 0 and listed in the detail record.
func (b *bench) result() result {
	table := endToEnd
	if b.opts.trace {
		table = perLayer
	}
	res := result{Metrics: map[string]metricValue{}}
	var missing []string
	for _, m := range table {
		v, ok := b.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, m.name)
			v = 0
		}
		res.Metrics[m.name] = metricValue{v, m.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		b.detail["unmeasured"] = missing
		if !b.opts.trace {
			b.t.add(fmt.Errorf("end-to-end metrics not measured: %v", missing))
		}
	}
	res.Attempted, res.Failed = b.t.attempted, b.t.failed
	if res.Attempted == 0 {
		res.Attempted, res.Failed = 1, 1
	}
	b.detail["fail_ratio"] = b.t.ratio()
	res.Correct = res.Failed == 0
	return res
}

// provenance records where and how the numbers were made.
func (b *bench) provenance() map[string]any {
	p := map[string]any{
		"workload":   b.opts.workload,
		"seed":       b.opts.seed,
		"suite_seed": suiteSeed,
		"seconds":    b.opts.seconds,
		"trace":      b.opts.trace,
		"nproc":      b.nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"revision":   "unknown",
		"dirty":      "unknown",
		"processes":  b.flags,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["revision"] = s.Value
			case "vcs.modified":
				p["dirty"] = s.Value
			}
		}
	}
	return p
}
