package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zenspec/internal/asm"
	"zenspec/internal/fault"
	"zenspec/internal/harness"
	"zenspec/internal/isa"
	"zenspec/internal/kernel"
)

// bootRegistry registers one experiment that actually simulates a bounded
// program, so profile-enabled jobs carry real samples through the journal.
func bootRegistry(id string) *harness.Registry {
	reg := harness.NewRegistry()
	reg.Register(harness.Experiment{
		ID: id, Title: "boot " + id, Paper: "test fixture", Tags: []string{"fake"},
		Run: func(ctx harness.Ctx) harness.Report {
			k := kernel.New(ctx.Config)
			p := k.NewProcess("boot", kernel.DomainUser)
			b := asm.NewBuilder()
			b.Movi(isa.RAX, 1)
			b.Label("spin")
			b.Jnz(isa.RAX, "spin")
			p.MapCode(0x400000, b.MustAssemble(0x400000))
			res := k.Run(p, 0x400000, 2000) // stops at the instruction limit
			var r harness.Report
			r.Add("insts", float64(res.Insts), 1, 1e9)
			return r
		},
	})
	return reg
}

func TestServerEndToEnd(t *testing.T) {
	reg := bootRegistry("boot")
	d, err := Open(Config{Dir: t.TempDir(), Registry: reg, Workers: 1, Lease: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(d)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()
	c := &Client{Base: base}

	// Submit through the client, watch the NDJSON stream to completion.
	spec := JobSpec{Seed: 5, Profile: true}
	id, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	watch, err := http.Get(base + "/v1/jobs/" + id + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	var lastLine JobStatus
	lines := 0
	sc := bufio.NewScanner(watch.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &lastLine); err != nil {
			t.Fatalf("watch line %d: %v (%q)", lines, err, sc.Text())
		}
		lines++
	}
	watch.Body.Close()
	if lines == 0 || !lastLine.Terminal() {
		t.Fatalf("watch streamed %d lines, last %+v", lines, lastLine)
	}

	st, err := c.Wait(context.Background(), id, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone {
		t.Fatalf("job %+v", st)
	}

	// The fetched stable report matches a direct run of the same spec.
	got, err := c.StableReport(id)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := reg.Run(shardRunCtx(spec, d.tab.jobs[id].plan, d.cfg.Parallelism), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := direct.StableJSON()
	if !bytes.Equal(got, want) {
		t.Fatalf("fetched stable report differs from direct run:\n%s\nvs\n%s", got, want)
	}

	// Status, list, text report, merged profile.
	if cst, err := c.Status(id); err != nil || cst.ID != id {
		t.Fatalf("client status %+v err %v", cst, err)
	}
	if rep, err := c.Report(id); err != nil || len(rep.Experiments) != 1 {
		t.Fatalf("client report %+v err %v", rep, err)
	}
	if txt, err := c.TextReport(id); err != nil || !strings.Contains(txt, "boot") {
		t.Fatalf("text report %q err %v", txt, err)
	}
	resp, err := http.Get(base + "/v1/jobs/" + id + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || len(prof) == 0 {
		t.Fatalf("profile endpoint status %d, %d bytes", resp.StatusCode, len(prof))
	}

	// The queue gauges ride the telemetry plane on the same mux.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"zenspec_service_queue_depth",
		"zenspec_service_leases_active",
		"zenspec_service_jobs_active",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Unknown jobs and bad specs map to typed client errors, not 500s — the
	// structured {"error", "code"} body carries the sentinel across the wire.
	if _, err := c.Status("ghost"); !errors.Is(err, ErrJobNotFound) || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown job error = %v", err)
	}
	if _, err := c.Submit(JobSpec{Only: []string{"nope"}}); !errors.Is(err, harness.ErrUnknownExperiment) || !strings.Contains(err.Error(), "400") {
		t.Fatalf("bad submit error = %v", err)
	}

	// The meta endpoint names the protocol and the registered experiments.
	meta, err := c.Meta()
	if err != nil || meta.APIVersion != APIVersion || len(meta.Experiments) != 1 || meta.Experiments[0] != "boot" {
		t.Fatalf("meta = %+v, %v", meta, err)
	}

	// A client pinned to a version the daemon does not speak fails typed.
	strict := &Client{Base: base, APIVersion: "v2"}
	if _, err := strict.Status(id); !errors.Is(err, ErrAPIVersion) {
		t.Fatalf("version-mismatch error = %v", err)
	}

	// Job routes live under /v1 only; the probes live unversioned only.
	for path, want := range map[string]int{
		"/v1/jobs": 200, "/v1/jobs/" + id: 200, "/v1/jobs/" + id + "/report": 200,
		"/jobs": 404, "/jobs/" + id: 404, "/jobs/" + id + "/watch": 404,
		"/jobs/" + id + "/report": 404, "/jobs/" + id + "/profile": 404,
		"/healthz": 200, "/readyz": 200,
		"/v1/healthz": 404, "/v1/readyz": 404,
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s status %d, want %d", path, resp.StatusCode, want)
		}
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d.Ready() {
		t.Fatal("daemon ready after server shutdown")
	}
}

// flakyTransport fails the first n round-trips at the transport level —
// what a client sees while the daemon is down between crash and restart.
type flakyTransport struct{ fails atomic.Int32 }

func (f *flakyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if f.fails.Add(-1) >= 0 {
		return nil, errors.New("connection refused")
	}
	return http.DefaultTransport.RoundTrip(r)
}

func TestWaitPollsThroughOutage(t *testing.T) {
	reg := bootRegistry("boot")
	d, err := Open(Config{Dir: t.TempDir(), Registry: reg, Workers: 1, Lease: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(d)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	flaky := &flakyTransport{}
	flaky.fails.Store(3)
	c := &Client{Base: "http://" + addr.String(), HTTP: &http.Client{Transport: flaky}}
	id, err := d.Submit(JobSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The first three polls hit the dead-daemon window; Wait rides them out.
	st, err := c.Wait(context.Background(), id, time.Millisecond)
	if err != nil || st.State != JobDone {
		t.Fatalf("Wait through outage = %+v, %v", st, err)
	}
	// API-level errors still fail fast: an unknown job is typed, not a retry.
	if _, err := c.Wait(context.Background(), "ghost", time.Millisecond); !errors.Is(err, ErrJobNotFound) {
		t.Fatalf("unknown-job wait error = %v", err)
	}
}

// TestServerTimeouts: a client stalled halfway through its request line is
// disconnected once the header timeout passes, while a watch stream that
// outlives both timeouts still runs to its terminal line.
func TestServerTimeouts(t *testing.T) {
	defer func(h, i time.Duration) { readHeaderTimeout, idleTimeout = h, i }(readHeaderTimeout, idleTimeout)
	readHeaderTimeout, idleTimeout = 100*time.Millisecond, 100*time.Millisecond
	reg := harness.NewRegistry()
	reg.Register(harness.Experiment{
		ID: "slow", Title: "slow", Paper: "test fixture", Tags: []string{"fake"},
		Run: func(harness.Ctx) harness.Report {
			time.Sleep(400 * time.Millisecond) // four header timeouts
			var r harness.Report
			r.Add("ok", 1, 1, 1)
			return r
		},
	})
	d, err := Open(Config{Dir: t.TempDir(), Registry: reg, Workers: 1, Lease: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(d)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /heal"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("stalled connection still open after the header timeout")
	}

	id, err := d.Submit(JobSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	watch, err := http.Get("http://" + addr.String() + "/v1/jobs/" + id + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Body.Close()
	var last JobStatus
	for sc := bufio.NewScanner(watch.Body); sc.Scan(); {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("watch line: %v (%q)", err, sc.Text())
		}
	}
	if last.State != JobDone {
		t.Fatalf("watch stream ended at %+v, want the done line", last)
	}
}

// TestOversizeSubmitTooLarge: a submit body over the journal's record limit
// is refused as a typed 413 before it is decoded, over the wire and in
// process alike.
func TestOversizeSubmitTooLarge(t *testing.T) {
	defer func(n int) { maxRecordSize = n }(maxRecordSize)
	maxRecordSize = 2 << 10
	d, err := Open(Config{Dir: t.TempDir(), Registry: fakeRegistry("a"), Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(d)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	// A valid plan name padded past the limit: only its size is wrong.
	spec := JobSpec{Seed: 1, Faults: "none" + strings.Repeat(" ", maxRecordSize)}
	c := &Client{Base: "http://" + addr.String()}
	if _, err := c.Submit(spec); !errors.Is(err, ErrRecordTooLarge) || !strings.Contains(err.Error(), "413") {
		t.Fatalf("oversize submit over the wire: err = %v, want a 413 ErrRecordTooLarge", err)
	}
	if _, err := d.Submit(spec); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversize submit in process: err = %v, want ErrRecordTooLarge", err)
	}
	if jobs := d.Jobs(); len(jobs) != 0 {
		t.Fatalf("oversize submit left jobs behind: %+v", jobs)
	}
}

// TestOversizeRemoteCompletionFailsShard: a remote worker whose completion
// body is over the record limit gets a 413 and fails the shard with that
// error, instead of abandoning it to be re-leased forever.
func TestOversizeRemoteCompletionFailsShard(t *testing.T) {
	defer func(n int) { maxRecordSize = n }(maxRecordSize)
	maxRecordSize = 2 << 10
	reg := harness.NewRegistry()
	reg.Register(harness.Experiment{
		ID: "big", Title: "oversize report", Paper: "test fixture",
		Run: func(harness.Ctx) harness.Report {
			return harness.Report{Detail: strings.Repeat("x", maxRecordSize)}
		},
	})
	d, err := Open(Config{Dir: t.TempDir(), Registry: reg, Workers: 0, Lease: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(d)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	id, err := d.Submit(JobSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := NewWorker(&Client{Base: "http://" + addr.String()}, WorkerConfig{
		Name: "remote", Registry: reg, Poll: 20 * time.Millisecond,
	})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		w.Run(ctx)
	}()
	st := waitStatus(t, d, id, JobStatus.Terminal, "oversize completion")
	cancel()
	<-stopped
	if st.State != JobFailed || !strings.Contains(st.Shards[0].Error, ErrRecordTooLarge.Error()) ||
		!strings.Contains(st.Shards[0].Error, "413") || st.Shards[0].Attempt != 0 {
		t.Fatalf("job finished %+v, want its shard failed by the 413", st)
	}
}

// invalidPlanSpecs are submit bodies whose fault plan fault.Parse refuses:
// an unknown preset, a jitter that overflows the RDPRU noise draw, and an
// eviction count that wedges every run boundary of the leasing worker.
var invalidPlanSpecs = []string{
	`{"seed":1,"faults":"bogus"}`,
	`{"seed":1,"faults":"{\"timer_jitter\":4611686018427387904}"}`,
	`{"seed":1,"faults":"{\"cache_evict_rate\":1,\"cache_evict_lines\":100000000000}"}`,
}

// TestSubmitInvalidFaultPlan: a fault plan outside the bounds is the
// client's mistake: 400 bad_request over the wire, fault.ErrInvalidPlan in
// process, and no job is journaled.
func TestSubmitInvalidFaultPlan(t *testing.T) {
	d, err := Open(Config{Dir: t.TempDir(), Registry: fakeRegistry("a"), Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())
	h := NewServer(d).Handler()
	for _, body := range invalidPlanSpecs {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body)))
		var ae apiError
		json.Unmarshal(rec.Body.Bytes(), &ae)
		if rec.Code != http.StatusBadRequest || ae.Code != "bad_request" {
			t.Errorf("POST %s: %d %+v, want 400 bad_request", body, rec.Code, ae)
		}
		var spec JobSpec
		if err := json.Unmarshal([]byte(body), &spec); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Submit(spec); !errors.Is(err, fault.ErrInvalidPlan) {
			t.Errorf("Submit(%+v) err = %v, want fault.ErrInvalidPlan", spec, err)
		}
	}
	if jobs := d.Jobs(); len(jobs) != 0 {
		t.Fatalf("refused submits left jobs behind: %+v", jobs)
	}
}

// FuzzSubmitSpec: any /v1/jobs body sent to a queue-only daemon is accepted
// (200) or refused with a typed 4xx; nothing a client sends is a 5xx.
func FuzzSubmitSpec(f *testing.F) {
	for _, s := range append([]string{
		`{"seed":1}`,
		`{"seed":7,"quick":true,"only":["a"],"faults":"harsh","split":4,"priority":2,"deadline":1000,"retries":1}`,
		`{"only":["no-such"]}`,
		`{"faults":"{\"seed\":3,\"psfp_evict_rate\":1.5}"}`,
		`{"seed":"x"}`,
		`not json`,
		``,
	}, invalidPlanSpecs...) {
		f.Add([]byte(s))
	}
	d, err := Open(Config{Dir: f.TempDir(), Registry: fakeRegistry("a", "b"), Workers: 0})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { d.Shutdown(context.Background()) })
	h := NewServer(d).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body)))
		if rec.Code == http.StatusOK {
			return
		}
		var ae apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &ae); err != nil || ae.Code == "" ||
			rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("POST %q: %d %s, want 200 or a typed 4xx", body, rec.Code, rec.Body.Bytes())
		}
	})
}

// TestHostPprofMounted: zenspecd's mux serves the host process's Go
// profiler beside the job API.
func TestHostPprofMounted(t *testing.T) {
	d, err := Open(Config{Dir: t.TempDir(), Registry: fakeRegistry("a"), Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())
	h := NewServer(d).Handler()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
			t.Errorf("GET %s: status %d, %d bytes", path, rec.Code, rec.Body.Len())
		}
	}
}

// TestShutdownDrainsInFlight: Server.Shutdown refuses new connections at
// once but lets a request already being served run to completion. The
// in-flight request is a one-second host CPU profile, which also shows the
// server sets no write timeout.
func TestShutdownDrainsInFlight(t *testing.T) {
	d, err := Open(Config{Dir: t.TempDir(), Registry: fakeRegistry("a"), Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(d)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		code int
		body []byte
		err  error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + addr.String() + "/debug/pprof/profile?seconds=1")
		if err != nil {
			inflight <- result{err: err}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		inflight <- result{code: resp.StatusCode, body: body}
	}()
	// Wait until the request is inside the profile handler.
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("net/http/pprof.Profile(")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("profile request never reached its handler")
		}
	}

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(context.Background()) }()

	// The listener closes before the drain completes: new connections fail
	// while the in-flight profile is still being taken.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		conn, err := net.DialTimeout("tcp", addr.String(), 100*time.Millisecond)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting connections after Shutdown")
		}
	}

	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight request killed by Shutdown: %v", r.err)
	}
	if r.code != 200 || len(r.body) < 2 || r.body[0] != 0x1f || r.body[1] != 0x8b {
		t.Fatalf("in-flight profile not served to completion: status %d, %d bytes", r.code, len(r.body))
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}
