package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"zenspec/internal/harness"
)

func testRecords() []record {
	spec := &JobSpec{Seed: 42, Quick: true}
	rep := &harness.Report{ID: "a", Title: "A", Pass: true, Status: harness.StatusClean}
	return []record{
		{Type: recSubmit, Job: "job-1", Spec: spec, Defs: []ShardRef{{Exp: "a"}, {Exp: "b", Lo: 0, Hi: 4}}},
		{Type: recShardDone, Job: "job-1", Shard: "a", Partial: &harness.PartialReport{Exp: "a", Report: rep}},
		{Type: recShardFailed, Job: "job-1", Shard: "b[0:4]", Error: "boom"},
	}
}

func writeTestJournal(t *testing.T, dir string, recs []record) {
	t.Helper()
	j, got, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("fresh journal has %d records", len(got))
	}
	for _, rec := range recs {
		if err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
}

// segPaths lists the journal's segment files in sequence order.
func segPaths(t *testing.T, dir string) []string {
	t.Helper()
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, len(seqs))
	for i, seq := range seqs {
		paths[i] = filepath.Join(dir, segName(seq))
	}
	return paths
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := testRecords()
	writeTestJournal(t, dir, want)
	j, got, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed records differ:\n%+v\nwant\n%+v", got, want)
	}
}

// TestJournalTruncatedTail: a crash mid-append leaves a torn final record;
// reopening must recover every record before it, heal the segment by
// truncating the tail, and leave the journal appendable.
func TestJournalTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	writeTestJournal(t, dir, testRecords())
	path := segPaths(t, dir)[0]
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	j, got, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("recovered %d records from torn journal, want 2", len(got))
	}
	// The tail was healed: appending works and a clean reopen sees 3 records.
	if err := j.append(record{Type: recJobArchive, Job: "job-1"}); err != nil {
		t.Fatal(err)
	}
	j.close()
	j, got, err = openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	if len(got) != 3 || got[2].Type != recJobArchive {
		t.Fatalf("healed journal replayed %d records: %+v", len(got), got)
	}
}

// TestJournalCorruptTail: a bit flip inside the final record's payload fails
// its checksum; the scan must stop there, keeping the intact prefix.
func TestJournalCorruptTail(t *testing.T) {
	dir := t.TempDir()
	writeTestJournal(t, dir, testRecords())
	path := segPaths(t, dir)[0]
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j, got, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	if len(got) != 2 {
		t.Fatalf("recovered %d records past a checksum failure, want 2", len(got))
	}
}

// TestJournalGarbageSegment: a segment that is not a journal at all replays
// as empty and self-heals to a clean file.
func TestJournalGarbageSegment(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, segName(1))
	if err := os.WriteFile(path, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, got, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	if len(got) != 0 {
		t.Fatalf("garbage segment replayed %d records", len(got))
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("garbage tail not healed: size %d, err %v", fi.Size(), err)
	}
}

// TestJournalLegacyMigration: a pre-segmentation journal.wal single file is
// refused with a typed error.
func TestJournalLegacyMigration(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal.wal"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openJournal(dir, 0); !errors.Is(err, ErrJournalVersion) {
		t.Fatalf("open with journal.wal: err = %v, want ErrJournalVersion", err)
	}
}

// TestJournalRejectsOversizeRecord: a record longer than the reader accepts
// is refused at write time. Written, the next open would take its length
// field for a torn tail and truncate it and every later record away.
func TestJournalRejectsOversizeRecord(t *testing.T) {
	defer func(n int) { maxRecordSize = n }(maxRecordSize)
	maxRecordSize = 1 << 10
	dir := t.TempDir()
	j, _, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	big := record{Type: recShardFailed, Job: "job-1", Shard: "a", Error: strings.Repeat("x", maxRecordSize)}
	if err := j.append(big); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversize append: err = %v, want ErrRecordTooLarge", err)
	}
	want := testRecords()
	for _, rec := range want {
		if err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.close()
	j, got, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %d records, want the %d appended after the refused one", len(got), len(want))
	}
	if err := j.checkpoint(append(want, big)); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversize checkpoint: err = %v, want ErrRecordTooLarge", err)
	}
}

// TestJournalLengthPastEOF: a damaged length field claiming more bytes than
// the segment holds ends the scan at the intact prefix without sizing a
// buffer from the claimed length.
func TestJournalLengthPastEOF(t *testing.T) {
	dir := t.TempDir()
	hdr := make([]byte, 12)
	copy(hdr, journalMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(maxRecordSize))
	seg := append(frames(t, testRecords()), hdr...)
	if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	j, got, err := openJournal(dir, 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	if len(got) != len(testRecords()) {
		t.Fatalf("recovered %d records, want %d", len(got), len(testRecords()))
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 16<<20 {
		t.Fatalf("scan allocated %d bytes for a %d-byte segment", n, len(seg))
	}
}

// TestJournalSegmentRotation: sustained appends past the size limit seal
// segments and start new ones; a reopen replays every record across the
// boundary in order.
func TestJournalSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	var want []record
	for i := 0; i < 40; i++ {
		rec := record{Type: recShardFailed, Job: "job-1", Shard: segName(i)}
		want = append(want, rec)
		if err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if j.segments() < 3 {
		t.Fatalf("journal spans %d segments after 40 appends at a 256-byte limit", j.segments())
	}
	j.close()
	if paths := segPaths(t, dir); len(paths) < 3 {
		t.Fatalf("only %d segment files on disk", len(paths))
	}
	j, got, err := openJournal(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rotation lost records: replayed %d, want %d", len(got), len(want))
	}
}

// TestJournalCorruptSealedTail: damage to a sealed (rotated) segment's tail
// loses only its trailing records — every record of the later segments still
// replays, and the journal stays appendable.
func TestJournalCorruptSealedTail(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	var want []record
	for i := 0; i < 40; i++ {
		rec := record{Type: recShardFailed, Job: "job-1", Shard: segName(i)}
		want = append(want, rec)
		if err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.close()
	paths := segPaths(t, dir)
	if len(paths) < 3 {
		t.Fatalf("need >=3 segments, have %d", len(paths))
	}
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0xff
	if err := os.WriteFile(paths[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j, got, err := openJournal(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one record (the corrupted segment's last) is lost; later
	// segments contribute everything, in order.
	if len(got) >= len(want) || len(got) < len(want)-3 {
		t.Fatalf("replayed %d records, want a bit under %d", len(got), len(want))
	}
	tail := want[len(want)-1]
	if got[len(got)-1].Shard != tail.Shard {
		t.Fatalf("later segments' records lost: last replayed %q, want %q", got[len(got)-1].Shard, tail.Shard)
	}
	if err := j.append(record{Type: recJobArchive, Job: "job-1"}); err != nil {
		t.Fatal(err)
	}
	j.close()
}

func TestJournalCheckpointCompacts(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	for _, rec := range recs {
		if err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate appends happen in real logs; the checkpoint drops them.
	if err := j.append(recs[1]); err != nil {
		t.Fatal(err)
	}
	if j.segments() < 2 {
		t.Fatalf("appends did not rotate: %d segments", j.segments())
	}
	if err := j.checkpoint(recs); err != nil {
		t.Fatal(err)
	}
	if j.segments() != 1 {
		t.Fatalf("checkpoint left %d segments, want 1", j.segments())
	}
	if paths := segPaths(t, dir); len(paths) != 1 {
		t.Fatalf("checkpoint left %d segment files, want 1", len(paths))
	}
	// checkpoint keeps the directory lock; release it before reopening.
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	j2, got, err := openJournal(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("checkpointed journal differs:\n%+v\nwant\n%+v", got, recs)
	}
}

// TestApplyDuplicateShardDone: duplicate completion records — possible when
// a crash lands between an append and the next read of state — must apply
// idempotently: the first fragment wins and counts once.
func TestApplyDuplicateShardDone(t *testing.T) {
	tab := newJobTable()
	spec := &JobSpec{Seed: 1}
	tab.apply(record{Type: recSubmit, Job: "job-1", Spec: spec, Defs: []ShardRef{{Exp: "a"}, {Exp: "b"}}})
	first := &harness.PartialReport{Exp: "a", Report: &harness.Report{ID: "a", Detail: "first", Status: harness.StatusClean}}
	second := &harness.PartialReport{Exp: "a", Report: &harness.Report{ID: "a", Detail: "second", Status: harness.StatusClean}}
	tab.apply(record{Type: recShardDone, Job: "job-1", Shard: "a", Partial: first})
	tab.apply(record{Type: recShardDone, Job: "job-1", Shard: "a", Partial: second})
	j := tab.jobs["job-1"]
	done, failed, total := j.counts()
	if done != 1 || failed != 0 || total != 2 {
		t.Fatalf("duplicate shard_done double-counted: done=%d failed=%d total=%d", done, failed, total)
	}
	if j.partials["a"].Report.Detail != "first" {
		t.Fatalf("duplicate shard_done overwrote the first fragment: %q", j.partials["a"].Report.Detail)
	}
	if j.state != JobRunning {
		t.Fatalf("job state %q, want running", j.state)
	}
	// A duplicate failure for an already-done shard is likewise ignored.
	tab.apply(record{Type: recShardFailed, Job: "job-1", Shard: "a", Error: "late"})
	if j.shards["a"].state != ShardDone {
		t.Fatal("late shard_failed overrode a completed shard")
	}
	// Records referencing unknown jobs or shards are skipped, not fatal.
	tab.apply(record{Type: recShardDone, Job: "ghost", Shard: "a", Partial: first})
	tab.apply(record{Type: recShardDone, Job: "job-1", Shard: "ghost", Partial: first})
}

// TestApplyLegacyRecords: pre-/v1 records (a submit carrying only
// whole-experiment IDs, a shard completion carrying only a bare Report)
// decode without their Defs and Partial, and the journal refuses them with a
// typed error rather than replaying them partially.
func TestApplyLegacyRecords(t *testing.T) {
	for name, legacy := range map[string]record{
		"submit":     {Type: recSubmit, Job: "job-1", Spec: &JobSpec{Seed: 1}},
		"shard_done": {Type: recShardDone, Job: "job-1", Shard: "a"},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			writeTestJournal(t, dir, append(testRecords(), legacy))
			if _, _, err := openJournal(dir, 0); !errors.Is(err, ErrJournalVersion) {
				t.Fatalf("open with a pre-/v1 %s record: err = %v, want ErrJournalVersion", name, err)
			}
		})
	}
}

// TestApplyJobArchive: an archive record drops a terminal job from the table
// — and is refused for a live one.
func TestApplyJobArchive(t *testing.T) {
	tab := newJobTable()
	tab.apply(record{Type: recSubmit, Job: "job-1", Spec: &JobSpec{Seed: 1}, Defs: []ShardRef{{Exp: "a"}}})
	// Archiving a live job is a no-op.
	tab.apply(record{Type: recJobArchive, Job: "job-1"})
	if tab.jobs["job-1"] == nil {
		t.Fatal("live job was archived")
	}
	tab.apply(record{Type: recShardDone, Job: "job-1", Shard: "a",
		Partial: &harness.PartialReport{Exp: "a", Report: &harness.Report{ID: "a"}}})
	tab.apply(record{Type: recJobArchive, Job: "job-1"})
	if tab.jobs["job-1"] != nil || len(tab.order) != 0 {
		t.Fatalf("terminal job not archived: %+v order %v", tab.jobs["job-1"], tab.order)
	}
	// The archive survives a snapshot round trip: records() omits the job.
	if recs := tab.records(); len(recs) != 0 {
		t.Fatalf("archived job still in snapshot: %+v", recs)
	}
}

// parentTerminalRecords are the job_done and job_failed records journals
// written before job states were derived still carry: the job's terminal
// state, redundant with its shard records.
func parentTerminalRecords() []record {
	return []record{
		{Type: "job_failed", Job: "job-1", Error: "shard b[0:4]: boom"},
		{Type: "job_done", Job: "job-2"},
	}
}

// TestReplayParentTerminalRecords: a journal carrying job_done and
// job_failed records opens to the same job states and errors as its shard
// records alone give.
func TestReplayParentTerminalRecords(t *testing.T) {
	shardsOnly := append(testRecords(),
		record{Type: recSubmit, Job: "job-2", Spec: &JobSpec{Seed: 7}, Defs: []ShardRef{{Exp: "a"}}},
		record{Type: recShardDone, Job: "job-2", Shard: "a", Partial: &harness.PartialReport{Exp: "a", WallMS: 3}},
	)
	open := func(recs []record) []JobStatus {
		dir := t.TempDir()
		writeTestJournal(t, dir, recs)
		d, err := Open(Config{Dir: dir, Registry: fakeRegistry("a", "b"), Workers: 0})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Kill()
		return d.Jobs()
	}
	want := open(shardsOnly)
	got := open(append(shardsOnly, parentTerminalRecords()...))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parent-format journal replayed to\n%+v\nwant\n%+v", got, want)
	}
	if len(got) != 2 || got[0].State != JobFailed || got[0].Error != "shard b[0:4]: boom" ||
		got[1].State != JobDone || got[1].Error != "" {
		t.Fatalf("replayed jobs %+v, want job-1 failed by shard b[0:4] and job-2 done", got)
	}
}

// splitJobJournal runs a split job on a real daemon and returns its journal
// segment as written, uncompacted.
func splitJobJournal(f *testing.F) []byte {
	dir := f.TempDir()
	d, err := Open(Config{Dir: dir, Registry: rangeRegistry(12), Workers: 2, Lease: 10 * time.Second})
	if err != nil {
		f.Fatal(err)
	}
	id, err := d.Submit(JobSpec{Seed: 11, Split: 4})
	if err != nil {
		f.Fatal(err)
	}
	waitStatus(f, d, id, JobStatus.Terminal, "split job drain")
	d.Kill()
	raw, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

func frames(tb testing.TB, recs []record) []byte {
	var out []byte
	for _, rec := range recs {
		b, err := frame(rec)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, b...)
	}
	return out
}

// replaySegment opens seg as a journal's only segment and folds its records
// into a fresh table. ok is false when the journal refuses the segment as a
// pre-/v1 layout.
func replaySegment(t *testing.T, seg []byte) (tab *jobTable, n int, ok bool) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs, err := openJournal(dir, 0)
	if errors.Is(err, ErrJournalVersion) {
		return nil, 0, false
	}
	if err != nil {
		t.Fatal(err)
	}
	j.close()
	tab = newJobTable()
	for _, rec := range recs {
		tab.apply(rec)
	}
	return tab, len(recs), true
}

func jobViews(t *testing.T, tab *jobTable) []byte {
	views := make([]JobStatus, 0, len(tab.order))
	for _, id := range tab.order {
		views = append(views, tab.jobs[id].status())
	}
	b, err := json.Marshal(views)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzJournalReplay: any bytes, read as a journal segment, replay without a
// panic, and the table's snapshot is a fixed point: replaying records()
// through the journal reader gives identical job views.
func FuzzJournalReplay(f *testing.F) {
	split := splitJobJournal(f)
	f.Add(split)
	f.Add(append(split, frames(f, []record{{Type: "job_done", Job: "job-1"}})...))
	f.Add(frames(f, append(testRecords(), parentTerminalRecords()...)))
	f.Add(frames(f, append(testRecords(), record{Type: recJobArchive, Job: "job-1"})))
	f.Add([]byte("ZSJ1 not a frame"))
	f.Fuzz(func(t *testing.T, seg []byte) {
		tab, _, ok := replaySegment(t, seg)
		if !ok {
			return
		}
		snap := tab.records()
		again, n, ok := replaySegment(t, frames(t, snap))
		if !ok || n != len(snap) {
			t.Fatalf("snapshot of %d records replayed %d (ok %v)", len(snap), n, ok)
		}
		if a, b := jobViews(t, tab), jobViews(t, again); !bytes.Equal(a, b) {
			t.Fatalf("snapshot replay is not a fixed point:\n%s\nvs\n%s", a, b)
		}
	})
}
