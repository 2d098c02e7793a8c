package prof

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
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

// TestShutdownDrainsInFlight is the graceful-degradation contract: Shutdown
// lets a request already being served run to completion while refusing new
// connections immediately. The in-flight request is a one-second host CPU
// profile, which also shows the server sets no write timeout.
func TestShutdownDrainsInFlight(t *testing.T) {
	tel := telemetryFixture()
	addr, err := tel.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()

	type result struct {
		code int
		body []byte
		err  error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Get(base + "/debug/pprof/profile?seconds=1")
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
	go func() { done <- tel.Shutdown(context.Background()) }()

	// The listener closes before the drain completes: new connections must
	// fail while the in-flight profile is still being taken.
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr.String(), 100*time.Millisecond)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting connections after Shutdown")
		}
		time.Sleep(5 * time.Millisecond)
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
	// Idempotent once drained.
	if err := tel.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestServeClosesStalledConnection: a client that sends half a request line
// and stops is disconnected once the header timeout passes.
func TestServeClosesStalledConnection(t *testing.T) {
	defer func(h, i time.Duration) { readHeaderTimeout, idleTimeout = h, i }(readHeaderTimeout, idleTimeout)
	readHeaderTimeout, idleTimeout = 100*time.Millisecond, 100*time.Millisecond
	tel := NewTelemetry()
	addr, err := tel.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Shutdown(context.Background())
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metr"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("stalled connection still open after the header timeout")
	}
}
