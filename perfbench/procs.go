package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"zenspec/internal/service"
)

// Deployment settings of the system under test. They are fixed so that a
// number measured today compares with one measured later: a queue-only
// daemon (all simulation on remote workers), one zenspec-worker per core,
// and a journal small enough that a run goes past -keep-jobs and seals
// segments, so archival and checkpoint compaction are part of the steady
// state.
const (
	keepJobs     = 32
	segmentBytes = 32 << 10
	stopTimeout  = 30 * time.Second
	startTimeout = 30 * time.Second
)

// proc is one started process of the system under test.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  string
	done chan struct{} // closed once Wait has returned
	err  error
}

func startProc(name, log string, bin string, args ...string) (*proc, error) {
	f, err := os.Create(log)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: log, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// stop sends SIGTERM to every process at once, then waits for each to
// exit cleanly. A process that had already exited, exits non-zero, or is
// still running after stopTimeout (it is then killed: a leak) yields an
// error.
func stopAll(ps []*proc) []error {
	var errs []error
	signalled := make([]bool, len(ps))
	for i, p := range ps {
		select {
		case <-p.done:
			errs = append(errs, fmt.Errorf("%s exited early: %v", p.name, p.err))
		default:
			// An exit racing the signal still shows in p.err below.
			_ = p.cmd.Process.Signal(syscall.SIGTERM)
			signalled[i] = true
		}
	}
	deadline := time.After(stopTimeout)
	for i, p := range ps {
		if !signalled[i] {
			continue
		}
		select {
		case <-p.done:
			if p.err != nil {
				errs = append(errs, fmt.Errorf("%s: %v", p.name, p.err))
			}
		case <-deadline:
			_ = p.cmd.Process.Kill()
			<-p.done
			errs = append(errs, fmt.Errorf("%s leaked: still running %v after SIGTERM", p.name, stopTimeout))
		}
	}
	return errs
}

// waitLog polls the process's log until it contains marker and returns the
// line holding it.
func (p *proc) waitLog(ctx context.Context, marker string) (string, error) {
	for {
		if b, err := os.ReadFile(p.log); err == nil {
			if i := bytes.Index(b, []byte(marker)); i >= 0 {
				line := b[i:]
				if j := bytes.IndexByte(line, '\n'); j >= 0 {
					line = line[:j]
				}
				return string(line), nil
			}
		}
		select {
		case <-p.done:
			return "", fmt.Errorf("%s exited before %q: %v", p.name, marker, p.err)
		case <-ctx.Done():
			return "", fmt.Errorf("%s: no %q: %w", p.name, marker, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// deployment is a running zenspecd with its remote workers.
type deployment struct {
	dir     string
	url     string
	daemon  *proc
	workers []*proc
	client  *service.Client
	http    *http.Client
}

func daemonArgs(dir string, obs bool) []string {
	args := []string{"-dir", filepath.Join(dir, "state"), "-addr", "127.0.0.1:0", "-workers", "0",
		"-keep-jobs", strconv.Itoa(keepJobs), "-segment-bytes", strconv.Itoa(segmentBytes)}
	if !obs {
		args = append(args, "-no-obs")
	}
	return args
}

func workerArgs(url string, i int) []string {
	return []string{"-url", url, "-name", "w" + strconv.Itoa(i)}
}

// startDeployment brings the service up in a fresh state directory under
// root and returns once it can take the first measured request: /readyz
// answers ready, /v1/meta speaks the client's API version, every worker is
// pulling leases, and a warm-up job has gone through a worker end to end.
func startDeployment(binDir, root string, workers int, obs bool) (d *deployment, err error) {
	dir, err := os.MkdirTemp(root, "sut-")
	if err != nil {
		return nil, err
	}
	d = &deployment{dir: dir, http: &http.Client{Timeout: time.Minute}}
	defer func() {
		if err != nil {
			d.stop(&tally{})
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), startTimeout)
	defer cancel()

	if d.daemon, err = startProc("zenspecd", filepath.Join(dir, "zenspecd.log"),
		filepath.Join(binDir, "zenspecd"), daemonArgs(dir, obs)...); err != nil {
		return d, err
	}
	line, err := d.daemon.waitLog(ctx, "zenspecd: listening on ")
	if err != nil {
		return d, err
	}
	d.url = strings.TrimSpace(strings.TrimPrefix(line, "zenspecd: listening on "))
	d.client = &service.Client{Base: d.url, HTTP: d.http}
	for i := 0; i < workers; i++ {
		w, err := startProc(fmt.Sprintf("zenspec-worker w%d", i), filepath.Join(dir, fmt.Sprintf("worker-%d.log", i)),
			filepath.Join(binDir, "zenspec-worker"), workerArgs(d.url, i)...)
		if err != nil {
			return d, err
		}
		d.workers = append(d.workers, w)
	}
	if err := d.waitReady(ctx); err != nil {
		return d, err
	}
	if _, err := d.client.Meta(); err != nil {
		return d, fmt.Errorf("meta: %w", err)
	}
	for _, w := range d.workers {
		if _, err := w.waitLog(ctx, "pulling leases"); err != nil {
			return d, err
		}
	}
	id, err := d.client.Submit(service.JobSpec{Seed: suiteSeed, Quick: true, Only: []string{"table4"}})
	if err != nil {
		return d, fmt.Errorf("warm-up submit: %w", err)
	}
	if _, err := d.client.Wait(ctx, id, 0); err != nil {
		return d, fmt.Errorf("warm-up job: %w", err)
	}
	return d, nil
}

func (d *deployment) waitReady(ctx context.Context) error {
	for {
		resp, err := d.http.Get(d.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("readyz: %w", ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// get fetches one daemon endpoint.
func (d *deployment) get(path string) ([]byte, error) {
	resp, err := d.http.Get(d.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return b, nil
}

// unresolved lists the jobs that are not terminal: a shard of such a job is
// still queued or held under a lease.
func (d *deployment) unresolved() ([]string, error) {
	b, err := d.get("/v1/jobs")
	if err != nil {
		return nil, err
	}
	var list struct {
		Jobs []service.JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(b, &list); err != nil {
		return nil, fmt.Errorf("job list: %w", err)
	}
	var open []string
	for _, st := range list.Jobs {
		if !st.Terminal() {
			open = append(open, st.ID+" "+st.State)
		}
	}
	return open, nil
}

// stop checks that no job is left unresolved, then stops the daemon and the
// workers with SIGTERM (the daemon drains and checkpoints). Every unresolved
// job, non-zero exit and leaked process counts as a failed operation. The
// state directory is removed when everything stopped cleanly.
func (d *deployment) stop(t *tally) {
	clean := true
	fail := func(err error) {
		t.add(err)
		clean = false
	}
	if d.client != nil {
		open, err := d.unresolved()
		if err != nil {
			fail(fmt.Errorf("job list: %w", err))
		}
		for _, j := range open {
			fail(fmt.Errorf("unresolved job %s", j))
		}
	}
	for _, err := range stopAll(d.procs()) {
		fail(err)
	}
	if clean {
		_ = os.RemoveAll(d.dir) // a leftover directory costs only disk space
	}
}

// procs is the deployment's started processes, daemon first.
func (d *deployment) procs() []*proc {
	if d.daemon == nil {
		return nil
	}
	return append([]*proc{d.daemon}, d.workers...)
}

// cpu is the user+system CPU time consumed so far by the daemon and workers.
func (d *deployment) cpu() (time.Duration, error) {
	var total time.Duration
	for _, p := range d.procs() {
		c, err := procCPU(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// peakRSSMB sums the processes' peak resident set sizes.
func (d *deployment) peakRSSMB() (float64, error) {
	var total float64
	for _, p := range d.procs() {
		mb, err := procPeakRSSMB(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux architecture Go supports.
const clockTicks = 100

// procCPU reads a live process's utime+stime from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at state (field 3);
	// utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procPeakRSSMB reads VmHWM, a live process's peak resident set size.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
