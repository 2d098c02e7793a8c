package prof

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"zenspec/internal/isa"
	"zenspec/internal/obs"
)

func telemetryFixture() *Telemetry {
	t := NewTelemetry()
	m := obs.NewMetrics()
	m.Inc("pmc.sq_stall_cycles", 120)
	m.Inc("squash.total", 3)
	m.Observe("probe.cycles", 42)
	t.SetMetrics(m)
	p := New()
	p.HandleEvent(inst(0x400028, isa.LOAD, 10, 12, 40, 20, 0, 45))
	t.SetProfile(p)
	t.Progress(3, 12, "spectre-stl")
	return t
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	body, _ := io.ReadAll(rec.Result().Body)
	return rec.Code, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	h := telemetryFixture().Handler()
	code, body := get(t, h, "/metrics")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{
		"zenspec_trials_done 3",
		"zenspec_trials_total 12",
		"zenspec_pmc_sq_stall_cycles 120",
		"zenspec_squash_total 3",
		"zenspec_probe_cycles_count 1",
		"zenspec_probe_cycles_sum 42",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestProgressEndpoint(t *testing.T) {
	h := telemetryFixture().Handler()
	code, body := get(t, h, "/progress")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(body, `"done":3`) || !strings.Contains(body, `"current":"spectre-stl"`) {
		t.Errorf("progress = %s", body)
	}
}

func TestProfileEndpoints(t *testing.T) {
	h := telemetryFixture().Handler()
	code, body := get(t, h, "/profile")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	vals, err := parsePprof(bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("served profile does not parse: %v", err)
	}
	if _, ok := vals["load@0x400028"]; !ok {
		t.Errorf("served profile missing the load sample: %v", vals)
	}

	code, txt := get(t, h, "/profile.txt")
	if code != 200 || !strings.Contains(txt, "0x400028") {
		t.Errorf("profile.txt status %d body %q", code, txt)
	}
}

func TestProfileEndpointWithoutSource(t *testing.T) {
	h := NewTelemetry().Handler()
	if code, _ := get(t, h, "/profile"); code != http.StatusNotFound {
		t.Errorf("status %d, want 404", code)
	}
}

func TestHostPprofMounted(t *testing.T) {
	h := telemetryFixture().Handler()
	if code, body := get(t, h, "/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Errorf("host pprof cmdline status %d", code)
	}
}

func TestRegisteredGauges(t *testing.T) {
	tel := telemetryFixture()
	tel.RegisterGauge("queue.depth", func() float64 { return 7 })
	tel.RegisterGauge("leases.active", func() float64 { return 2 })
	// Re-registration replaces the sampler.
	tel.RegisterGauge("queue.depth", func() float64 { return 9 })
	code, body := get(t, tel.Handler(), "/metrics")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{
		"# TYPE zenspec_queue_depth gauge",
		"zenspec_queue_depth 9",
		"zenspec_leases_active 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestRegisteredCollectors: a collector's self-formatted exposition lines
// appear on /metrics after the gauges, and re-registration replaces it.
func TestRegisteredCollectors(t *testing.T) {
	tel := NewTelemetry()
	tel.RegisterCollector("svc", func(w io.Writer) {
		io.WriteString(w, "# TYPE zenspec_service_demo_total counter\nzenspec_service_demo_total 1\n")
	})
	tel.RegisterCollector("svc", func(w io.Writer) {
		io.WriteString(w, "# TYPE zenspec_service_demo_total counter\nzenspec_service_demo_total 2\n")
	})
	code, body := get(t, tel.Handler(), "/metrics")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(body, "zenspec_service_demo_total 2") {
		t.Errorf("collector output missing or stale:\n%s", body)
	}
	if strings.Contains(body, "zenspec_service_demo_total 1") {
		t.Errorf("replaced collector still exporting:\n%s", body)
	}
}

// TestShutdownDrainsInFlight is the graceful-degradation contract: Shutdown
// lets a request already being served run to completion while refusing new
// connections immediately.
func TestShutdownDrainsInFlight(t *testing.T) {
	tel := telemetryFixture()
	entered := make(chan struct{})
	release := make(chan struct{})
	tel.RegisterGauge("slow.gauge", func() float64 {
		close(entered)
		<-release
		return 1
	})
	addr, err := tel.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()

	type result struct {
		code int
		body string
		err  error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			inflight <- result{err: err}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		inflight <- result{code: resp.StatusCode, body: string(body)}
	}()
	<-entered // the request is now blocked inside the handler

	done := make(chan error, 1)
	go func() { done <- tel.Shutdown(context.Background()) }()

	// The listener closes before the drain completes: new connections must
	// fail while the in-flight scrape is still being served.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := net.DialTimeout("tcp", addr.String(), 100*time.Millisecond)
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting connections after Shutdown")
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(release)
	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight request killed by Shutdown: %v", r.err)
	}
	if r.code != 200 || !strings.Contains(r.body, "zenspec_slow_gauge 1") {
		t.Fatalf("in-flight request not served to completion: status %d body %q", r.code, r.body)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Idempotent once drained.
	if err := tel.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}
