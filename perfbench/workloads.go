package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"zenspec"
	"zenspec/internal/harness"
	"zenspec/internal/harness/suite"
	"zenspec/internal/kernel"
	"zenspec/internal/pipeline"
	"zenspec/internal/service"
)

// suiteSeed is the simulation seed of the quick-suite pass that traced runs
// profile for the simulator layers. The quick suite's paper bands hold at
// the repository's default seed 42 but not at every seed (at reduced trial
// counts some attack and fault experiments miss their band on some seeds),
// and the pass must do the same work in every run, so it does not draw its
// seed from -seed.
const suiteSeed = 42

const (
	splitShards  = 4                // trial-range shards per jobs-split job (and fig11 ranges in the merge probe)
	setupRepeats = 3                // service bring-ups per run; setup_s takes their median
	splitJobs    = 12               // distinct jobs-split jobs per seed
	opTimeout    = 60 * time.Second // an operation not done by then is a miss
)

// smallExps are the experiments whose quick run takes well under 25 ms; the
// jobs-small mix is drawn from them.
var smallExps = []string{"fig2", "table1", "table2", "fig4", "table3", "addrleak",
	"transient-exec", "transient-update", "table4", "isolation", "smt", "infer"}

// splitExp is the one cheap experiment with a trial-range decomposition: its
// jobs exercise range shards and their merge, not the simulator.
const splitExp = "fault-harness"

var workloads = map[string]func(*bench) error{
	"jobs-small": func(b *bench) error { return b.serviceWorkload(smallPool(b.opts.seed)) },
	"jobs-split": func(b *bench) error { return b.serviceWorkload(splitPool(b.opts.seed)) },
}

// refJob is one job spec with its reference: the StableJSON the direct
// harness path produces for the same seed and selection. The reference
// passes every paper band, so a report equal to it byte for byte does too.
type refJob struct {
	spec service.JobSpec
	ref  []byte
}

// smallPool draws the jobs-small jobs from the workload seed: every small
// experiment once, each with its own simulation seed. Every experiment is
// in the pool, so the work per job does not swing with the seed's draw.
func smallPool(seed int64) []service.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	out := make([]service.JobSpec, len(smallExps))
	for i, id := range smallExps {
		out[i] = service.JobSpec{Seed: 1 + rng.Int63n(1<<31), Quick: true, Only: []string{id}}
	}
	return out
}

// splitPool draws the jobs-split jobs from the workload seed: splitJobs
// fault-harness jobs, each with its own simulation seed, cut into
// splitShards trial ranges.
func splitPool(seed int64) []service.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	out := make([]service.JobSpec, splitJobs)
	for i := range out {
		out[i] = service.JobSpec{Seed: 1 + rng.Int63n(1<<31), Quick: true, Only: []string{splitExp}, Split: splitShards}
	}
	return out
}

// direct runs a job spec in-process through the public harness entry point.
func (b *bench) direct(spec service.JobSpec, withMetrics bool) (harness.SuiteReport, error) {
	return zenspec.RunExperiments(zenspec.Config{Seed: spec.Seed, Parallelism: b.nproc, Metrics: withMetrics},
		spec.Quick, spec.Only)
}

// references computes the reference of every spec on the direct path.
func (b *bench) references(specs []service.JobSpec) ([]refJob, error) {
	refs := make([]refJob, len(specs))
	for i, spec := range specs {
		su, err := b.direct(spec, false)
		if err != nil {
			return nil, err
		}
		if !su.AllPass() {
			return nil, fmt.Errorf("reference outside paper band: %v", su.Failed())
		}
		if refs[i].ref, err = su.StableJSON(); err != nil {
			return nil, err
		}
		refs[i].spec = spec
	}
	return refs, nil
}

var errMismatch = errors.New("report differs from its direct-path reference")

func verify(got []byte, r refJob) error {
	if !bytes.Equal(got, r.ref) {
		return errMismatch
	}
	return nil
}

// opResult is one measured operation.
type opResult struct {
	err    error
	lat    time.Duration // submission to verified report; opTimeout for a failed operation
	submit time.Duration
	waited time.Duration // submission to Wait returning
	report time.Duration
	trace  []byte
}

// phase is one closed-loop measured phase.
type phase struct {
	ops  []opResult
	wall time.Duration // first submission to last completion
	cpu  time.Duration // host CPU of the system under test
}

func (p phase) latenciesMS() []float64 {
	out := make([]float64, len(p.ops))
	for i, o := range p.ops {
		out[i] = ms(o.lat)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEndMetrics reduces the measured phase to the end-to-end metrics.
// Failed operations count in the latency sample as misses at opTimeout.
func (b *bench) endToEndMetrics(p phase) {
	lat := p.latenciesMS()
	p50, p90 := percentile(lat, 50), percentile(lat, 90)
	ok := 0
	for _, o := range p.ops {
		b.t.add(o.err)
		if o.err == nil {
			ok++
		}
	}
	b.metrics["job_p50_ms"] = p50.Value
	b.metrics["job_p90_ms"] = p90.Value
	b.metrics["jobs_per_s"] = float64(ok) / p.wall.Seconds()
	b.detail["job_p50_ms"], b.detail["job_p90_ms"] = p50, p90
	b.detail["latencies_ms"] = lat
}

// serviceWorkload drives specs through a fresh deployment from nproc
// closed-loop clients.
func (b *bench) serviceWorkload(specs []service.JobSpec) error {
	b.flags["zenspecd"] = daemonArgs("<fresh>", false)
	b.flags["zenspec-worker"] = workerArgs("<daemon>", 0)
	b.flags["workers"] = []string{fmt.Sprint(b.nproc)}
	start := time.Now()
	refs, err := b.references(specs)
	if err != nil {
		return err
	}
	refTime := time.Since(start)
	if b.opts.trace {
		b.flags["zenspecd traced half"] = daemonArgs("<fresh>", true)
		if err := b.simLayers(); err != nil {
			return err
		}
		if err := b.rangeMerge(); err != nil {
			return err
		}
		return b.serviceLayers(refs)
	}

	var bring []float64
	var d *deployment
	for k := 0; k < setupRepeats; k++ {
		tk := time.Now()
		if d, err = startDeployment(b.opts.binDir, b.opts.workDir, b.nproc, false); err != nil {
			return err
		}
		bring = append(bring, time.Since(tk).Seconds())
		if k < setupRepeats-1 {
			d.stop(&b.t)
		}
	}
	b.metrics["setup_s"] = refTime.Seconds() + median(bring)
	b.detail["setup"] = map[string]any{"references_s": refTime.Seconds(), "bring_up_s": bring}

	p, err := b.drive(d, refs, b.opts.seconds, false)
	if err == nil {
		b.endToEndMetrics(p)
		b.metrics["peak_rss_mb"], err = d.peakRSSMB()
	}
	d.stop(&b.t)
	return err
}

// drive runs a closed loop of nproc clients against d for the given
// seconds: each client cycles through refs in its own order (drawn from the
// workload seed), submitting a job, waiting for it, fetching its StableJSON
// and checking it against the reference before issuing the next. Cycling keeps
// the job mix of every run the same. Client 0 always completes at least one
// operation. When traced, each job's stitched trace is fetched after its
// operation is timed.
func (b *bench) drive(d *deployment, refs []refJob, seconds float64, traced bool) (phase, error) {
	var (
		mu  sync.Mutex
		p   phase
		wg  sync.WaitGroup
		end = deadline(seconds)
	)
	c0, err := d.cpu()
	if err != nil {
		return p, err
	}
	t0 := time.Now()
	for c := 0; c < b.nproc; c++ {
		order := rand.New(rand.NewSource(b.opts.seed*7919 + int64(c))).Perm(len(refs))
		wg.Add(1)
		go func(first bool) {
			defer wg.Done()
			for i := 0; first || time.Now().Before(end); i++ {
				first = false
				o := serviceOp(d, refs[order[i%len(order)]], traced)
				mu.Lock()
				p.ops = append(p.ops, o)
				mu.Unlock()
			}
		}(c == 0)
	}
	wg.Wait()
	p.wall = time.Since(t0)
	c1, err := d.cpu()
	p.cpu = c1 - c0
	return p, err
}

// serviceOp is one submit → wait → fetch → verify operation.
func serviceOp(d *deployment, r refJob, traced bool) opResult {
	var o opResult
	t0 := time.Now()
	id, err := d.client.Submit(r.spec)
	o.submit = time.Since(t0)
	if err == nil {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		_, err = d.client.Wait(ctx, id, 0)
		cancel()
		o.waited = time.Since(t0)
	}
	var got []byte
	if err == nil {
		tr := time.Now()
		got, err = d.client.StableReport(id)
		o.report = time.Since(tr)
	}
	if err == nil {
		err = verify(got, r)
	}
	o.err, o.lat = err, time.Since(t0)
	if err != nil {
		o.lat = opTimeout
	}
	if traced && id != "" {
		o.trace, _ = d.client.Trace(id) // a missing trace only leaves the span metrics short
	}
	return o
}

// simLayers measures the simulator layers on one quick-suite pass run
// in-process on the direct path, first under the CPU profiler and then with
// the obs.Metrics observer for the exact simulated counters. Both passes
// must land inside every paper band.
func (b *bench) simLayers() error {
	spec := service.JobSpec{Seed: suiteSeed, Quick: true}
	var prof bytes.Buffer
	rt0 := readRuntime()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	t0, c0 := time.Now(), selfCPU()
	su, err := b.direct(spec, false)
	wall, cpu := time.Since(t0), selfCPU()-c0
	pprof.StopCPUProfile()
	rt := readRuntime().since(rt0)
	if err == nil && !su.AllPass() {
		err = fmt.Errorf("quick suite outside paper band: %v", su.Failed())
	}
	b.t.add(err)
	if err != nil {
		return err
	}
	shares, err := moduleShares(prof.Bytes())
	if err != nil {
		return err
	}
	for _, m := range selfShareModules {
		b.metrics[m+".self_share"] = shares[m]
	}
	b.detail["self_shares"] = shares
	b.metrics["runtime.alloc_mb"] = rt.allocBytes / (1 << 20)
	b.metrics["runtime.gc_cycles"] = rt.gcCycles
	b.metrics["runtime.gc_share"] = rt.gcCPU / rt.totalCPU
	b.metrics["harness.pass_ms"] = ms(wall)
	b.metrics["harness.cpu_util"] = cpu.Seconds() / (wall.Seconds() * float64(b.nproc))
	expMS := map[string]float64{}
	rest := 0.0
	for _, e := range su.Experiments {
		expMS[e.ID] = e.WallMS
		rest += e.WallMS
	}
	for _, id := range suiteExps {
		b.metrics["harness.exp_ms."+id] = expMS[id]
		rest -= expMS[id]
	}
	b.metrics["harness.exp_ms.rest"] = rest

	// The observed round: every report must still pass its bands (its
	// StableJSON gains the micro section, so it is not byte-compared).
	tm := time.Now()
	su, err = b.direct(spec, true)
	observed := time.Since(tm)
	if err == nil && !su.AllPass() {
		err = fmt.Errorf("observed quick suite outside paper band: %v", su.Failed())
	}
	b.t.add(err)
	if err != nil {
		return err
	}
	counters := map[string]uint64{}
	for _, e := range su.Experiments {
		if e.Micro != nil {
			for k, v := range e.Micro.Counters {
				counters[k] += v
			}
		}
	}
	b.metrics["obs.trace_overhead_share"] = observed.Seconds()/wall.Seconds() - 1
	c := func(k string) float64 { return float64(counters[k]) }
	b.metrics["pipeline.retired_insts"] = c("inst.retired")
	b.metrics["pipeline.transient_insts"] = c("inst.transient")
	b.metrics["pipeline.squashes"] = c("squash.total")
	b.metrics["pipeline.sq_stall_cycles"] = c("pmc.sq_stall_cycles")
	b.metrics["predict.queries"] = c("predict.queries")
	b.metrics["predict.psfp_hit_ratio"] = c("predict.psfp_hit") / c("predict.queries")
	b.metrics["cache.fills"] = c("cache.fill.L1") + c("cache.fill.L2") + c("cache.fill.L3")
	b.metrics["cache.flushes"] = c("cache.flush")
	b.metrics["kernel.context_switches"] = c("kernel.context_switch")
	b.metrics["sidechannel.probes"] = c("probe.hit") + c("probe.miss")
	b.metrics["pipeline.ns_per_inst"] = shares["pipeline"] * float64(cpu.Nanoseconds()) / c("inst.retired")
	b.detail["sim_counters"] = counters
	b.t.add(b.checkCounters(counters))
	return nil
}

// checkCounters holds the simulated counters to exact repetition: the first
// traced run in a checkout records them, and every later one must
// reproduce them.
func (b *bench) checkCounters(counters map[string]uint64) error {
	path := filepath.Join(b.opts.workDir, "sim-counters.json")
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		data, err = json.Marshal(counters)
		if err != nil {
			return err
		}
		return os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return err
	}
	var want map[string]uint64
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("counters record %s: %w", path, err)
	}
	if !maps.Equal(want, counters) {
		return fmt.Errorf("simulated counters differ from the first traced run's (%s)", path)
	}
	return nil
}

// runtimeTotals are cumulative runtime/metrics readings of this process.
type runtimeTotals struct{ allocBytes, gcCycles, gcCPU, totalCPU float64 }

func readRuntime() runtimeTotals {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeTotals{v(0), v(1), v(2), v(3)}
}

func (r runtimeTotals) since(b runtimeTotals) runtimeTotals {
	return runtimeTotals{r.allocBytes - b.allocBytes, r.gcCycles - b.gcCycles, r.gcCPU - b.gcCPU, r.totalCPU - b.totalCPU}
}

// rangeMerge cuts fig11 into four trial ranges, runs them, and times
// MergeTrialRanges; the merged report must equal the unsharded one.
func (b *bench) rangeMerge() error {
	reg := suite.Registry()
	ctx := harness.Ctx{Config: kernel.Config{Seed: suiteSeed, Parallelism: b.nproc,
		Pipeline: pipeline.Config{SQSize: 48}}, Quick: true}
	n, err := reg.Trials(ctx, "fig11")
	if err != nil {
		return err
	}
	var parts []harness.PartialReport
	for k := 0; k < splitShards; k++ {
		p, err := reg.RunTrialRange(ctx, "fig11", n*k/splitShards, n*(k+1)/splitShards)
		if err != nil {
			return err
		}
		parts = append(parts, p)
	}
	t0 := time.Now()
	merged, err := reg.MergeTrialRanges(ctx, "fig11", parts)
	b.metrics["harness.range_merge_ms"] = ms(time.Since(t0))
	if err != nil {
		return err
	}
	whole, err := reg.RunShard(ctx, "fig11")
	if err != nil {
		return err
	}
	merged.WallMS, whole.WallMS = 0, 0
	mj, err1 := json.Marshal(merged)
	wj, err2 := json.Marshal(whole)
	if err := errors.Join(err1, err2); err != nil {
		return err
	}
	if !bytes.Equal(mj, wj) {
		err = errors.New("fig11 range merge differs from the unsharded report")
	}
	b.t.add(err)
	return nil
}

// serviceLayers measures the service layers: the same closed loop runs for
// half the run against an untraced (-no-obs) deployment and for half against
// a traced one, whose /metrics histograms (scraped before and after) and
// per-job traces give the layer numbers.
func (b *bench) serviceLayers(refs []refJob) error {
	half := b.opts.seconds / 2
	d, err := startDeployment(b.opts.binDir, b.opts.workDir, b.nproc, false)
	if err != nil {
		return err
	}
	plain, err := b.drive(d, refs, half, false)
	d.stop(&b.t)
	if err != nil {
		return err
	}
	if d, err = startDeployment(b.opts.binDir, b.opts.workDir, b.nproc, true); err != nil {
		return err
	}
	defer d.stop(&b.t)
	raw0, err := d.get("/metrics")
	if err != nil {
		return err
	}
	traced, err := b.drive(d, refs, half, true)
	if err != nil {
		return err
	}
	raw1, err := d.get("/metrics")
	if err != nil {
		return err
	}
	for _, o := range append(plain.ops, traced.ops...) {
		b.t.add(o.err)
	}
	b.metrics["service.trace_overhead_share"] = median(traced.latenciesMS())/median(plain.latenciesMS()) - 1
	b.metrics["service.cpu_ms_per_job"] = ms(plain.cpu) / float64(len(plain.ops))

	const pre = "zenspec_service_"
	m := parseScrape(raw1).since(parseScrape(raw0))
	b.metrics["service.queue_wait_ms.p50"] = m.quantile(pre+"queue_wait_ms", 0.5)
	b.metrics["service.queue_wait_ms.p90"] = m.quantile(pre+"queue_wait_ms", 0.9)
	b.metrics["service.lease_rtt_ms.p50"] = m.quantile(pre+"lease_rtt_ms", 0.5)
	b.metrics["service.fsync_ms.p50"] = m.quantile(pre+"fsync_ms", 0.5)
	b.metrics["service.fsync_ms.p90"] = m.quantile(pre+"fsync_ms", 0.9)
	b.metrics["service.checkpoint_ms.p50"] = m.quantile(pre+"checkpoint_ms", 0.5)
	b.metrics["service.leases_granted"] = m.sum(pre + "leases_granted_total")
	b.metrics["service.lease_revocations"] = m.sum(pre + "lease_revocations_total")
	b.metrics["service.shards_retried"] = m.sum(pre + "shards_retried_total")
	b.metrics["service.checkpoints"] = m.sum(pre + "journal_checkpoints_total")
	b.metrics["service.fsyncs_per_job"] = m.sum(pre+"fsync_ms_count") / m.sum(pre+"jobs_submitted_total")

	var submit, report, lag, run, leaseSelf, jobSelf []float64
	for _, o := range traced.ops {
		submit = append(submit, ms(o.submit))
		report = append(report, ms(o.report))
		spans, err := parseTrace(o.trace)
		if err != nil || o.err != nil {
			continue
		}
		leaseSelf = append(leaseSelf, leaseSelfTimes(spans)...)
		jobSelf = append(jobSelf, jobSelfTimes(spans)...)
		for _, s := range spans {
			if strings.HasPrefix(s.Name, "run ") {
				run = append(run, s.dur())
			}
			// The trace's time origin is the daemon's first span of the
			// job, taken at submission, so the job span's end is compared
			// with Wait's return measured from the client's submit call
			// (over by at most the submit round trip).
			if strings.HasPrefix(s.Name, "job ") {
				lag = append(lag, ms(o.waited)-s.End)
			}
		}
	}
	b.metrics["service.submit_ms.p50"] = median(submit)
	b.metrics["service.report_ms.p50"] = median(report)
	b.metrics["service.wait_lag_ms.p50"] = median(lag)
	b.metrics["service.shard_run_ms"] = median(run)
	b.metrics["service.lease_self_ms.p50"] = median(leaseSelf)
	b.metrics["service.job_self_ms.p50"] = median(jobSelf)
	b.detail["traced_ops"], b.detail["untraced_ops"] = len(traced.ops), len(plain.ops)
	return nil
}
