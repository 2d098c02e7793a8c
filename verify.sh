#!/bin/sh
# verify.sh — the repository's full local gate: formatting, vet, build, and
# the test suite under the race detector. CI and pre-commit both run this.
set -eu

cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== staticcheck =="
# Static-analysis gate: staticcheck when available (CI installs it), with a
# visible skip locally so the gate never silently weakens.
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "staticcheck not installed; skipping (go vet already ran)" >&2
fi

echo "== go build =="
go build ./...

echo "== perfbench module (vet, build) =="
# perfbench is a nested module, so the root ./... skips it; build it here so a
# facade change cannot break the benchmark driver unnoticed. -o /dev/null
# keeps the binary out of the tree.
(cd perfbench && go vet ./... && go build -o /dev/null ./...)

echo "== go test -race =="
go test -race ./...

echo "== speccheck summary-equivalence fuzz smoke =="
# Ten seconds of coverage-guided search for any divergence between the
# incremental summary engine and the whole-program analyzer.
go test -run=FuzzSummaryEquivalence -fuzz=FuzzSummaryEquivalence \
    -fuzztime 10s ./internal/speccheck

echo "== zenspecd journal-replay fuzz smoke =="
# Ten seconds of arbitrary journal segments through the WAL reader and the
# job table: no panic, and replaying the table's own snapshot is a fixed
# point.
go test -run=FuzzJournalReplay -fuzz=FuzzJournalReplay \
    -fuzztime 10s ./internal/service

echo "== fault-plan and submit-spec fuzz smokes =="
# Ten seconds each of arbitrary fault-plan strings (a bounded plan or
# fault.ErrInvalidPlan, never a panic) and arbitrary /v1/jobs bodies against
# a queue-only daemon (200 or a typed 4xx, never a 5xx).
go test -run=FuzzFaultPlan -fuzz=FuzzFaultPlan -fuzztime 10s ./internal/fault
go test -run=FuzzSubmitSpec -fuzz=FuzzSubmitSpec -fuzztime 10s ./internal/service

echo "== core microbenchmark smoke (allocation invariants) =="
# One short pass over the per-cycle hot-path benchmarks. The grep gates the
# zero-allocation invariants at the benchmark level too (the dedicated
# AllocsPerRun tests already ran under -race above): the steady-state
# pipeline step, both emit paths, and the Flush+Reload sweep must all report
# 0 allocs/op. benchstat renders the table when installed (CI installs it),
# with a visible skip locally.
bench_out=$(mktemp)
go test -run '^$' \
    -bench 'BenchmarkCoreStep|BenchmarkObsEmitFast|BenchmarkObsEmitDisabled|BenchmarkFlushReloadSweep' \
    -benchtime 100x -count 1 . | tee "$bench_out"
benches=$(grep -c '^Benchmark' "$bench_out")
zeroalloc=$(grep -c '	 *0 allocs/op' "$bench_out") || true
if [ "$benches" -ne 4 ] || [ "$zeroalloc" -ne 4 ]; then
    echo "core benchmarks must all report 0 allocs/op ($zeroalloc of $benches did)" >&2
    exit 1
fi
if command -v benchstat >/dev/null 2>&1; then
    benchstat "$bench_out"
else
    echo "benchstat not installed; raw go test -bench output above" >&2
fi
rm -f "$bench_out"

echo "== experiment suite smoke (quick, JSON) =="
suite_json=$(mktemp)
fault_json=$(mktemp)
trace_json=$(mktemp)
trap 'rm -f "$suite_json" "$fault_json" "$trace_json"' EXIT
go run ./cmd/experiments -quick -json > "$suite_json"
go run ./cmd/experiments -validate "$suite_json"

echo "== faulted suite smoke (quick, default plan, JSON) =="
# The degraded report (injected trial faults) must still validate: every
# experiment in band, failures accounted for as retries/recoveries.
go run ./cmd/experiments -quick -faults default \
    -only fault-stl,fault-ctl,fault-harness -json > "$fault_json"
go run ./cmd/experiments -validate "$fault_json"

echo "== observability smoke (trace + metrics on the STL attack) =="
# The trace must come back as a Chrome trace-event JSON document with at
# least one complete event; -validate-trace enforces both.
go run ./cmd/experiments -quick -only spectre-stl -metrics \
    -trace "$trace_json" -trace-classes squash,predict,fault,kernel > /dev/null
go run ./cmd/experiments -validate-trace "$trace_json"

echo "== profiler smoke (pprof export readable by go tool pprof) =="
# The cycle-attribution profile must export as pprof protobuf that the stock
# toolchain can open, plus non-empty folded flamegraph text.
prof_pb=$(mktemp)
prof_flame=$(mktemp)
trap 'rm -f "$suite_json" "$fault_json" "$trace_json" "$prof_pb" "$prof_flame"' EXIT
go run ./cmd/experiments -quick -only spectre-stl -profile \
    -profile-out "$prof_pb" -flame "$prof_flame" > /dev/null
go tool pprof -top -nodecount=5 "$prof_pb" > /dev/null
test -s "$prof_flame"

echo "== zenspecd service smoke (submit, byte-identical report, drain) =="
# Start the daemon (race-instrumented) on a random port, submit a quick
# subset through the cmd/experiments client, and require the fetched
# StableJSON report to be byte-identical to a direct local run of the same
# spec. Then SIGTERM the daemon and require a clean drain + checkpoint.
svc_tmp=$(mktemp -d)
svc_pid=
wrk_a_pid=
wrk_b_pid=
cleanup_svc() {
    [ -n "$svc_pid" ] && kill "$svc_pid" 2>/dev/null || true
    [ -n "$wrk_a_pid" ] && kill -9 "$wrk_a_pid" 2>/dev/null || true
    [ -n "$wrk_b_pid" ] && kill "$wrk_b_pid" 2>/dev/null || true
    rm -rf "$svc_tmp"
    rm -f "$suite_json" "$fault_json" "$trace_json" "$prof_pb" "$prof_flame"
}
trap cleanup_svc EXIT
go build -race -o "$svc_tmp/zenspecd" ./cmd/zenspecd
go build -o "$svc_tmp/experiments" ./cmd/experiments
go build -o "$svc_tmp/zenspec-worker" ./cmd/zenspec-worker
"$svc_tmp/zenspecd" -dir "$svc_tmp/state" -addr 127.0.0.1:0 -workers 2 \
    > "$svc_tmp/out" 2> "$svc_tmp/err" &
svc_pid=$!
svc_url=
i=0
while [ $i -lt 100 ]; do
    svc_url=$(sed -n 's/^zenspecd: listening on //p' "$svc_tmp/out")
    [ -n "$svc_url" ] && break
    kill -0 "$svc_pid" 2>/dev/null || break
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$svc_url" ]; then
    echo "zenspecd did not start:" >&2
    cat "$svc_tmp/out" "$svc_tmp/err" >&2
    exit 1
fi
"$svc_tmp/experiments" -submit "$svc_url" -quick -only fig2,table1 -stable \
    > "$svc_tmp/service.json"
"$svc_tmp/experiments" -quick -only fig2,table1 -stable > "$svc_tmp/direct.json"
cmp "$svc_tmp/service.json" "$svc_tmp/direct.json"
kill -TERM "$svc_pid"
wait "$svc_pid"
svc_pid=
grep -q "journal checkpointed" "$svc_tmp/err" || {
    echo "zenspecd did not checkpoint on SIGTERM:" >&2
    cat "$svc_tmp/err" >&2
    exit 1
}

echo "== distributed smoke (queue-only daemon, 2 pull workers, one SIGKILLed) =="
# The same spec again, but through the scale-out path: a queue-only daemon
# (-workers 0) cuts the job into trial-range shards (-split 4), two external
# zenspec-worker processes drain it over /v1 leases, and one worker is
# SIGKILLed mid-drain — its abandoned lease expires and the survivor reruns
# the shard. The merged StableJSON must still be byte-identical to the direct
# local run.
"$svc_tmp/zenspecd" -dir "$svc_tmp/dist-state" -addr 127.0.0.1:0 -workers 0 \
    -lease 2s > "$svc_tmp/dist-out" 2> "$svc_tmp/dist-err" &
svc_pid=$!
svc_url=
i=0
while [ $i -lt 100 ]; do
    svc_url=$(sed -n 's/^zenspecd: listening on //p' "$svc_tmp/dist-out")
    [ -n "$svc_url" ] && break
    kill -0 "$svc_pid" 2>/dev/null || break
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$svc_url" ]; then
    echo "queue-only zenspecd did not start:" >&2
    cat "$svc_tmp/dist-out" "$svc_tmp/dist-err" >&2
    exit 1
fi
"$svc_tmp/zenspec-worker" -url "$svc_url" -name doomed -poll 200ms \
    -log-format json > "$svc_tmp/wrk-a.log" 2>&1 &
wrk_a_pid=$!
"$svc_tmp/zenspec-worker" -url "$svc_url" -name survivor -poll 200ms \
    -log-format json > "$svc_tmp/wrk-b.log" 2>&1 &
wrk_b_pid=$!
"$svc_tmp/experiments" -submit "$svc_url" -quick -only fig2,table1 -split 4 \
    -stable > "$svc_tmp/dist.json" &
submit_pid=$!
# Let the workers lease shards, then SIGKILL one mid-drain: no Complete, no
# heartbeat — the daemon only learns from the lease expiring.
sleep 2
kill -9 "$wrk_a_pid" 2>/dev/null || true
wait "$wrk_a_pid" 2>/dev/null || true
wrk_a_pid=
grep -q "lease " "$svc_tmp/wrk-a.log" || {
    echo "SIGKILLed worker never claimed a lease; smoke did not exercise re-lease:" >&2
    cat "$svc_tmp/wrk-a.log" >&2
    exit 1
}
if ! wait "$submit_pid"; then
    echo "distributed submit failed:" >&2
    cat "$svc_tmp/dist-err" "$svc_tmp/wrk-b.log" >&2
    exit 1
fi
cmp "$svc_tmp/dist.json" "$svc_tmp/direct.json"

echo "== distributed observability smoke (metrics, stitched trace, JSON logs) =="
# After the drain the daemon's /metrics scrape must carry the service plane:
# per-experiment shard wall-clock histograms, lease counters, and — because
# the doomed worker was SIGKILLed after claiming a lease — at least one
# revocation.
curl -fsS "$svc_url/metrics" > "$svc_tmp/metrics"
grep -q '^zenspec_service_shard_wall_ms_bucket{exp=' "$svc_tmp/metrics" || {
    echo "metrics scrape missing per-experiment shard wall-clock histogram:" >&2
    cat "$svc_tmp/metrics" >&2
    exit 1
}
grep -q '^zenspec_service_leases_granted_total [1-9]' "$svc_tmp/metrics" || {
    echo "metrics scrape missing lease grant counter:" >&2
    cat "$svc_tmp/metrics" >&2
    exit 1
}
# The job's stitched daemon+worker trace must be Perfetto-loadable JSON with
# events from the daemon and both worker actors, re-leased shard included.
python3 - "$svc_url" <<'PYEOF'
import json, sys, urllib.request
base = sys.argv[1]
jobs = json.load(urllib.request.urlopen(base + "/v1/jobs"))["jobs"]
assert jobs, "daemon lists no jobs"
trace = json.load(urllib.request.urlopen(base + "/v1/jobs/" + jobs[0]["id"] + "/trace"))
evs = trace["traceEvents"]
assert evs, "trace has no events"
actors = {e["args"]["name"] for e in evs if e["ph"] == "M" and e["name"] == "process_name"}
assert "zenspecd" in actors, f"daemon actor missing from trace: {actors}"
assert any(a.startswith("worker:") for a in actors), f"no worker spans stitched in: {actors}"
shards = {s["id"] for s in jobs[0]["shards"]}
runs = {e["name"][4:] for e in evs if e["name"].startswith("run ")}
missing = shards - runs
assert not missing, f"trace missing run spans for shards: {missing}"
print(f"trace OK: {len(evs)} events, actors {sorted(actors)}")
PYEOF
# -log-format=json means every worker log line is an independently
# parseable JSON object.
python3 - "$svc_tmp/wrk-b.log" <<'PYEOF'
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert lines, "survivor worker logged nothing"
for l in lines:
    json.loads(l)
print(f"worker JSON logs OK: {len(lines)} lines")
PYEOF
kill "$wrk_b_pid" 2>/dev/null || true
wait "$wrk_b_pid" 2>/dev/null || true
wrk_b_pid=
# Revocation path: with no workers left, claim a lease by hand over /v1 and
# never heartbeat. The monitor must revoke it within the 2s TTL and the
# revocation must land on the scrape.
python3 - "$svc_url" <<'PYEOF'
import json, sys, time, urllib.request
base = sys.argv[1]
def post(path, body):
    req = urllib.request.Request(base + path, json.dumps(body).encode(),
                                 {"Content-Type": "application/json"})
    with urllib.request.urlopen(req) as r:
        return json.loads(r.read()) if r.status != 204 else None
post("/v1/jobs", {"seed": 1, "quick": True, "only": ["fig2"]})
lease = post("/v1/leases", {"worker": "verify-zombie", "wait_ms": 2000})
assert lease and lease.get("token"), f"no lease granted: {lease}"
deadline = time.time() + 30
while time.time() < deadline:
    scrape = urllib.request.urlopen(base + "/metrics").read().decode()
    n = [l for l in scrape.splitlines()
         if l.startswith("zenspec_service_lease_revocations_total ")]
    if n and int(n[0].split()[1]) >= 1:
        print(f"revocation OK: {n[0]}")
        sys.exit(0)
    time.sleep(0.5)
sys.exit("abandoned lease was never revoked (revocation counter still 0)")
PYEOF
kill -TERM "$svc_pid"
wait "$svc_pid"
svc_pid=
grep -q "journal checkpointed" "$svc_tmp/dist-err" || {
    echo "queue-only zenspecd did not checkpoint on SIGTERM:" >&2
    cat "$svc_tmp/dist-err" >&2
    exit 1
}

echo "verify: OK"
