package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

func TestPercentileCarriesSampleCount(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct {
		p         float64
		want      float64
		n, beyond int
	}{{50, 5, 10, 5}, {90, 9, 10, 1}, {100, 10, 10, 0}, {1, 1, 10, 9}} {
		got := percentile(xs, c.p)
		if got.Value != c.want || got.N != c.n || got.Beyond != c.beyond {
			t.Errorf("p%v = %+v, want value %v n %d beyond %d", c.p, got, c.want, c.n, c.beyond)
		}
	}
	if got := percentile(nil, 90); got.N != 0 || got.Value != 0 {
		t.Errorf("empty sample: %+v", got)
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestTallyFailRatio(t *testing.T) {
	var ta tally
	if ta.ratio() != 0 {
		t.Fatal("empty tally has a fail ratio")
	}
	ta.add(nil)
	ta.add(errMismatch)
	ta.add(nil)
	ta.add(errMismatch)
	if ta.attempted != 4 || ta.failed != 2 || ta.ratio() != 0.5 || ta.reasons[errMismatch.Error()] != 2 {
		t.Fatalf("tally = %+v ratio %v", ta, ta.ratio())
	}
}

func TestResultAccounting(t *testing.T) {
	// No operation at all is a failed run, not an empty success.
	b := newBench(options{workload: "jobs-small"})
	if r := b.result(); r.Correct || r.Attempted != 1 || r.Failed != 1 {
		t.Errorf("no operations: %+v", r)
	}
	// An end-to-end metric the run did not measure is a failure too.
	b = newBench(options{workload: "jobs-small"})
	b.t.add(nil)
	for _, m := range endToEnd[1:] {
		b.metrics[m.name] = 1
	}
	if r := b.result(); r.Correct || r.Failed != 1 || r.Attempted != 2 {
		t.Errorf("missing setup_s: %+v", r)
	}
	// Misses stay in the latency sample at the timeout.
	b = newBench(options{workload: "jobs-small"})
	p := phase{wall: 1e9}
	for i := 0; i < 3; i++ {
		p.ops = append(p.ops, opResult{lat: 1e6})
	}
	p.ops = append(p.ops, opResult{err: errMismatch, lat: opTimeout})
	b.endToEndMetrics(p)
	if b.t.attempted != 4 || b.t.failed != 1 || b.metrics["jobs_per_s"] != 3 || b.metrics["job_p90_ms"] != ms(opTimeout) {
		t.Errorf("tally %+v metrics %v", b.t, b.metrics)
	}
}

// pb is a minimal protobuf writer for hand-made test profiles.
type pb []byte

func (p pb) varint(num int, v uint64) pb {
	p = binary.AppendUvarint(p, uint64(num)<<3)
	return binary.AppendUvarint(p, v)
}

func (p pb) bytes(num int, b []byte) pb {
	p = binary.AppendUvarint(p, uint64(num)<<3|2)
	p = binary.AppendUvarint(p, uint64(len(b)))
	return append(p, b...)
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func TestModuleSharesByInternalPackage(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"zenspec/internal/pipeline.(*Core).step",
		"zenspec/internal/harness/suite.build.func3",
		"runtime.mallocgc",
		"sort.Slice",
		"zenspec/internal/predict.(*PSFP).Lookup",
		"zenspec.RunExperiments"}
	var prof pb
	prof = prof.bytes(1, pb(nil).varint(1, 1).varint(2, 2))
	prof = prof.bytes(1, pb(nil).varint(1, 3).varint(2, 4))
	// Functions 1..6 name strings 5..10.
	for id := uint64(1); id <= 6; id++ {
		prof = prof.bytes(5, pb(nil).varint(1, id).varint(2, id+4))
	}
	// Location 1: predict inlined into pipeline (innermost line first).
	prof = prof.bytes(4, pb(nil).varint(1, 1).
		bytes(4, pb(nil).varint(1, 5)).bytes(4, pb(nil).varint(1, 1)))
	for loc, fn := range map[uint64]uint64{2: 1, 3: 2, 4: 3, 5: 4, 6: 6} {
		prof = prof.bytes(4, pb(nil).varint(1, loc).bytes(4, pb(nil).varint(1, fn)))
	}
	sample := func(cpu uint64, locs ...uint64) {
		prof = prof.bytes(2, pb(nil).bytes(1, packed(locs...)).bytes(2, packed(1, cpu)))
	}
	sample(100, 2)    // pipeline, leaf
	sample(300, 1, 2) // predict, inlined into pipeline: self goes to predict
	sample(200, 3, 6) // harness/suite -> harness
	sample(250, 4, 3) // runtime
	sample(100, 5)    // stdlib -> other
	sample(50, 6)     // facade
	for _, s := range strs {
		prof = prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof)
	zw.Close()

	for name, data := range map[string][]byte{"raw": prof, "gzip": gz.Bytes()} {
		got, err := moduleShares(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := map[string]float64{"pipeline": 0.1, "predict": 0.3, "harness": 0.2,
			"runtime": 0.25, "other": 0.1, "zenspec": 0.05}
		if len(got) != len(want) {
			t.Errorf("%s: shares %v, want %v", name, got, want)
		}
		for m, w := range want {
			if math.Abs(got[m]-w) > 1e-12 {
				t.Errorf("%s: %s share = %v, want %v", name, m, got[m], w)
			}
		}
	}
	if _, err := moduleShares([]byte{0x0a, 0xff}); !errors.Is(err, errBadProto) {
		t.Errorf("truncated profile: err = %v, want errBadProto", err)
	}
}

func TestSpanSelfTime(t *testing.T) {
	parent := span{Name: "p", Start: 0, End: 10}
	kids := []span{{Start: 1, End: 3}, {Start: 2, End: 5}, {Start: 8, End: 12}, {Start: -4, End: -1}}
	if got := selfTime(parent, kids); got != 4 {
		t.Errorf("self time = %v, want 4 (10 minus 1..5 and 8..10)", got)
	}
	if got := selfTime(parent, nil); got != 10 {
		t.Errorf("self time without children = %v, want 10", got)
	}

	// A one-shard job as /v1/jobs/{id}/trace renders it (microseconds).
	trace := `{"traceEvents":[
	 {"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"fig2"}},
	 {"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"job"}},
	 {"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"journal"}},
	 {"name":"thread_name","ph":"M","pid":2,"tid":0,"args":{"name":"fig2"}},
	 {"name":"fsync submit","ph":"X","pid":1,"tid":2,"ts":0,"dur":500},
	 {"name":"queue-wait","ph":"X","pid":1,"tid":0,"ts":500,"dur":100},
	 {"name":"job job-1","ph":"B","pid":1,"tid":1,"ts":500},
	 {"name":"lease","ph":"B","pid":1,"tid":0,"ts":1000},
	 {"name":"run fig2","ph":"X","pid":2,"tid":0,"ts":2000,"dur":4000},
	 {"name":"lease","ph":"E","pid":1,"tid":0,"ts":7000},
	 {"name":"fsync shard_done","ph":"X","pid":1,"tid":2,"ts":7000,"dur":1000},
	 {"name":"job job-1","ph":"E","pid":1,"tid":1,"ts":9000}]}`
	spans, err := parseTrace([]byte(trace))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 6 {
		t.Fatalf("parsed %d spans, want 6: %+v", len(spans), spans)
	}
	// Lease 1..7 ms minus its run span 2..6 ms.
	if got := leaseSelfTimes(spans); len(got) != 1 || got[0] != 2 {
		t.Errorf("lease self times = %v, want [2]", got)
	}
	// Job 0.5..9 ms minus queue wait 0.5..0.6, lease 1..7 and fsync 7..8
	// (the submit fsync ends where the job starts).
	if got := jobSelfTimes(spans); len(got) != 1 || math.Abs(got[0]-1.4) > 1e-9 {
		t.Errorf("job self times = %v, want [1.4]", got)
	}
}

func TestScrapeQuantileAndDelta(t *testing.T) {
	before := parseScrape([]byte(`# TYPE zenspec_service_fsync_ms histogram
zenspec_service_fsync_ms_bucket{le="1"} 5
zenspec_service_fsync_ms_bucket{le="2"} 5
zenspec_service_fsync_ms_bucket{le="+Inf"} 5
zenspec_service_fsync_ms_count 5
zenspec_service_shards_retried_total{exp="fig11"} 1
`))
	after := parseScrape([]byte(`zenspec_service_fsync_ms_bucket{le="1"} 10
zenspec_service_fsync_ms_bucket{le="2"} 15
zenspec_service_fsync_ms_bucket{le="+Inf"} 15
zenspec_service_fsync_ms_count 15
zenspec_service_shards_retried_total{exp="fig11"} 3
zenspec_service_shards_retried_total{exp="fig7"} 2
`))
	d := after.since(before)
	// 10 new observations: 5 at or below 1 ms, 5 in (1, 2].
	if got := d.quantile("zenspec_service_fsync_ms", 0.5); got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
	if got := d.quantile("zenspec_service_fsync_ms", 0.9); math.Abs(got-1.8) > 1e-9 {
		t.Errorf("p90 = %v, want 1.8", got)
	}
	if got := d.sum("zenspec_service_shards_retried_total"); got != 4 {
		t.Errorf("retried = %v, want 4", got)
	}
	if got := d.quantile("zenspec_service_checkpoint_ms", 0.5); !math.IsNaN(got) {
		t.Errorf("empty histogram quantile = %v, want NaN", got)
	}
}

// TestContractMatchesBenchmarkJSON keeps the metric tables and workloads in
// step with the BENCHMARK.json the benchmark is run by.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for w := range workloads {
		have = append(have, w)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !equal(names, have) {
		t.Errorf("workloads: BENCHMARK.json %v, perfbench %v", names, have)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, table []metricDef) {
		if len(declared) != len(table) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, perfbench %d", kind, len(declared), len(table))
			return
		}
		for i, m := range table {
			if declared[i].Name != m.name || declared[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, perfbench %s/%s", kind, i,
					declared[i].Name, declared[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSmoke runs every workload briefly (and jobs-split traced) against
// freshly built binaries.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the service binaries and runs the quick suite")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+"/", "zenspec/cmd/zenspecd", "zenspec/cmd/zenspec-worker")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	cases := []struct {
		workload string
		trace    bool
	}{{"jobs-small", false}, {"jobs-split", false}, {"jobs-split", true}}
	for _, c := range cases {
		b := newBench(options{workload: c.workload, seed: 7, seconds: 0.5, trace: c.trace,
			binDir: bin, workDir: t.TempDir()})
		if err := workloads[c.workload](b); err != nil {
			t.Fatalf("%s trace=%v: %v", c.workload, c.trace, err)
		}
		r := b.result()
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s trace=%v: %+v (reasons %v)", c.workload, c.trace, r, b.t.reasons)
		}
		table := endToEnd
		if c.trace {
			table = perLayer
		}
		for _, m := range table {
			v := r.Metrics[m.name].Value
			if !c.trace && v <= 0 {
				t.Errorf("%s: %s = %v, want > 0", c.workload, m.name, v)
			}
		}
		if c.trace && r.Metrics["pipeline.retired_insts"].Value == 0 {
			t.Errorf("%s traced: no simulated instructions counted", c.workload)
		}
	}
}
