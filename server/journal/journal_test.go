package journal_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"qplacer/server"
	"qplacer/server/journal"
)

func rec(id string, seq uint64, state server.State) server.JobRecord {
	return server.JobRecord{
		ID:      id,
		Seq:     seq,
		State:   state,
		Created: time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC),
	}
}

func ev(seq uint64, typ string) server.Event {
	return server.Event{Seq: seq, Type: typ, Time: time.Date(2026, 8, 7, 12, 0, int(seq), 0, time.UTC)}
}

// TestRoundTripAcrossReopen is the core durability contract: jobs and their
// event histories written to one Store instance are fully visible to a
// second instance opened on the same directory.
func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	done := rec("job-1", 1, server.StateDone)
	done.Result = json.RawMessage(`{"plan":{"ok":true}}`)
	if err := st.PutJob(done); err != nil {
		t.Fatal(err)
	}
	if err := st.PutJob(rec("job-2", 2, server.StateQueued)); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := st.AppendEvent("job-2", ev(i, server.EventState)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	jobs, err := st2.LoadJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("LoadJobs after reopen: %d jobs, want 2", len(jobs))
	}
	byID := map[string]server.JobRecord{}
	for _, j := range jobs {
		byID[j.ID] = j
	}
	if got := byID["job-1"]; got.State != server.StateDone || string(got.Result) != `{"plan":{"ok":true}}` {
		t.Fatalf("job-1 after reopen: %+v", got)
	}
	if got := byID["job-2"]; got.State != server.StateQueued || got.Seq != 2 {
		t.Fatalf("job-2 after reopen: %+v", got)
	}
	evs, err := st2.EventsSince("job-2", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Seq != 2 || evs[1].Seq != 3 {
		t.Fatalf("EventsSince(1) after reopen: %+v", evs)
	}
}

// TestCompactionAdvancesGeneration checks the snapshot-generation protocol:
// a fresh directory's Open compacts, so does every Close after an append,
// the live log is named after the snapshot generation, and older-generation
// logs are deleted (so a crash between snapshot rename and log truncation
// can never replay stale ops). A clean reopen does not compact.
func TestCompactionAdvancesGeneration(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		st, err := journal.Open(dir)
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		if err := st.PutJob(rec(fmt.Sprintf("job-%d", i), uint64(i+1), server.StateDone)); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if logs := logFiles(t, dir); len(logs) != 1 {
			t.Fatalf("after close %d: %d log files %v, want exactly 1", i, len(logs), logs)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Generation uint64            `json:"generation"`
		Jobs       []json.RawMessage `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	// The fresh directory's Open compacts once, and each Close after a put
	// once; the two clean reopens do not.
	if snap.Generation != 4 {
		t.Fatalf("snapshot generation %d, want 4 after 3 open/put/close cycles", snap.Generation)
	}
	if len(snap.Jobs) != 3 {
		t.Fatalf("snapshot holds %d jobs, want 3", len(snap.Jobs))
	}
}

// logFiles returns the journal logs under dir, by name.
func logFiles(t *testing.T, dir string) []string {
	t.Helper()
	logs, err := filepath.Glob(filepath.Join(dir, "journal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range logs {
		logs[i] = filepath.Base(p)
	}
	return logs
}

// generation returns the generation of dir's snapshot.
func generation(t *testing.T, dir string) uint64 {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	return snap.Generation
}

// logSize returns the size of generation gen's log under dir.
func logSize(t *testing.T, dir string, gen uint64) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("journal-%d.log", gen)))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// closedWith opens a fresh journal under dir, puts recs and closes it, the
// state a clean shutdown leaves.
func closedWith(t *testing.T, dir string, recs ...server.JobRecord) {
	t.Helper()
	st, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := st.PutJob(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCleanReopenKeepsSnapshot boots on what a clean shutdown left: Open
// and an idle Close must leave the snapshot's bytes, mtime and generation
// as they were, serve its jobs, and still delete a log of another
// generation without replaying it.
func TestCleanReopenKeepsSnapshot(t *testing.T) {
	dir := t.TempDir()
	closedWith(t, dir, rec("job-1", 1, server.StateDone))
	snapPath := filepath.Join(dir, "snapshot.json")
	gen := generation(t, dir)
	past := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	if err := os.Chtimes(snapPath, past, past); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	stale := fmt.Sprintf("journal-%d.log", gen-1)
	if err := os.WriteFile(filepath.Join(dir, stale), []byte(`{"op":"del","id":"job-1"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if jobs, _ := st.LoadJobs(); len(jobs) != 1 || jobs[0].ID != "job-1" {
		t.Fatalf("after a clean reopen: %+v, want just job-1", jobs)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	after, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatal("an idle reopen and Close rewrote the snapshot")
	}
	if fi, err := os.Stat(snapPath); err != nil {
		t.Fatal(err)
	} else if !fi.ModTime().Equal(past) {
		t.Fatalf("snapshot mtime %v, want %v", fi.ModTime(), past)
	}
	if g := generation(t, dir); g != gen {
		t.Fatalf("snapshot generation %d, want %d", g, gen)
	}
	want := fmt.Sprintf("journal-%d.log", gen)
	if logs := logFiles(t, dir); len(logs) != 1 || logs[0] != want {
		t.Fatalf("logs %v, want just %s (%s deleted)", logs, want, stale)
	}
	if n := logSize(t, dir, gen); n != 0 {
		t.Fatalf("live log holds %d bytes, want 0", n)
	}
}

// TestCrashAfterCleanReopen appends to a cleanly reopened journal, flushes
// and abandons it without Close, as a kill -9 would: the next Open must
// serve the appended job and event from the reused log, then fold it into
// a new generation.
func TestCrashAfterCleanReopen(t *testing.T) {
	dir := t.TempDir()
	closedWith(t, dir, rec("job-1", 1, server.StateDone))
	gen := generation(t, dir)

	st, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutJob(rec("job-2", 2, server.StateRunning)); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 2; seq++ {
		if err := st.AppendEvent("job-2", ev(seq, server.EventProgress)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	// st is abandoned here: no Close, so no compaction.
	if g := generation(t, dir); g != gen {
		t.Fatalf("appending to a reopened journal moved the generation %d → %d", gen, g)
	}

	st2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	jobs, _ := st2.LoadJobs()
	byID := map[string]server.JobRecord{}
	for _, j := range jobs {
		byID[j.ID] = j
	}
	if len(jobs) != 2 || byID["job-1"].State != server.StateDone || byID["job-2"].State != server.StateRunning {
		t.Fatalf("after the crash: %+v, want job-1 done and job-2 running", jobs)
	}
	if evs, _ := st2.EventsSince("job-2", 0); len(evs) != 2 || evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("job-2 events after the crash: %+v, want seqs 1 and 2", evs)
	}
	if g := generation(t, dir); g != gen+1 {
		t.Fatalf("recovery left generation %d, want %d", g, gen+1)
	}
	if logs := logFiles(t, dir); len(logs) != 1 || logs[0] != fmt.Sprintf("journal-%d.log", gen+1) {
		t.Fatalf("logs after recovery %v", logs)
	}
}

// TestTornOnlyLogCompacts boots on a snapshot whose log holds nothing but a
// torn line: the log is not empty, so Open compacts, and the torn bytes are
// gone rather than appended after.
func TestTornOnlyLogCompacts(t *testing.T) {
	dir := t.TempDir()
	closedWith(t, dir, rec("job-1", 1, server.StateDone))
	gen := generation(t, dir)
	torn := `{"op":"put","job":{"id":"job-torn","se`
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("journal-%d.log", gen)), []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if g := generation(t, dir); g != gen+1 {
		t.Fatalf("generation %d after a torn-only log, want %d", g, gen+1)
	}
	if logs := logFiles(t, dir); len(logs) != 1 || logs[0] != fmt.Sprintf("journal-%d.log", gen+1) {
		t.Fatalf("logs %v, want just the new generation's", logs)
	}
	if n := logSize(t, dir, gen+1); n != 0 {
		t.Fatalf("new log holds %d bytes, want 0", n)
	}
	if err := st.PutJob(rec("job-2", 2, server.StateDone)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if jobs, _ := st2.LoadJobs(); len(jobs) != 2 {
		t.Fatalf("after reopen: %+v, want job-1 and job-2", jobs)
	}
}

// TestFreshDirectoryGetsSnapshot opens a directory that does not exist yet:
// Open creates it with a generation-1 snapshot and an empty log.
func TestFreshDirectoryGetsSnapshot(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	st, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if g := generation(t, dir); g != 1 {
		t.Fatalf("fresh snapshot generation %d, want 1", g)
	}
	if logs := logFiles(t, dir); len(logs) != 1 || logs[0] != "journal-1.log" || logSize(t, dir, 1) != 0 {
		t.Fatalf("fresh logs %v, want an empty journal-1.log", logs)
	}
}

// TestEventRetentionCap keeps per-job history bounded: only the newest
// DefaultEventRetention events survive, and resume from an evicted Seq
// returns the oldest retained window.
func TestEventRetentionCap(t *testing.T) {
	st, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	n := server.DefaultEventRetention + 10
	for i := 1; i <= n; i++ {
		if err := st.AppendEvent("job-1", ev(uint64(i), server.EventProgress)); err != nil {
			t.Fatal(err)
		}
	}
	evs, err := st.EventsSince("job-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != server.DefaultEventRetention {
		t.Fatalf("retained %d events, want %d", len(evs), server.DefaultEventRetention)
	}
	if evs[0].Seq != 11 || evs[len(evs)-1].Seq != uint64(n) {
		t.Fatalf("retained window [%d,%d], want [11,%d]", evs[0].Seq, evs[len(evs)-1].Seq, n)
	}
}

// TestDeleteJobDropsEvents verifies deletion is durable and takes the event
// history with it.
func TestDeleteJobDropsEvents(t *testing.T) {
	dir := t.TempDir()
	st, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutJob(rec("job-1", 1, server.StateDone)); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendEvent("job-1", ev(1, server.EventState)); err != nil {
		t.Fatal(err)
	}
	if err := st.DeleteJob("job-1"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	jobs, _ := st2.LoadJobs()
	if len(jobs) != 0 {
		t.Fatalf("deleted job survived reopen: %+v", jobs)
	}
	evs, _ := st2.EventsSince("job-1", 0)
	if len(evs) != 0 {
		t.Fatalf("deleted job's events survived reopen: %+v", evs)
	}
}

// TestTornTailTolerated simulates a crash mid-append: a log whose final
// line is truncated must load cleanly, keeping every complete record
// before the tear.
func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	keep := rec("job-1", 1, server.StateQueued)
	keepLine, err := json.Marshal(struct {
		Op  string            `json:"op"`
		Job *server.JobRecord `json:"job"`
	}{"put", &keep})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := json.Marshal(struct {
		Generation uint64             `json:"generation"`
		Jobs       []server.JobRecord `json:"jobs"`
	}{Generation: 7, Jobs: nil})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	log := string(keepLine) + "\n" + `{"op":"put","job":{"id":"job-torn","se`
	if err := os.WriteFile(filepath.Join(dir, "journal-7.log"), []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	// A log from a stale generation must be ignored outright: it was already
	// folded into a newer snapshot.
	stale := `{"op":"del","id":"job-1"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "journal-6.log"), []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	jobs, err := st.LoadJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != "job-1" || jobs[0].State != server.StateQueued {
		t.Fatalf("after torn-tail load: %+v, want just job-1 queued", jobs)
	}
	if logs, _ := filepath.Glob(filepath.Join(dir, "journal-*.log")); len(logs) != 1 {
		t.Fatalf("stale-generation log not cleaned up: %v", logs)
	}
}

// TestClosedStoreRefusesWrites pins the post-Close contract: a write that
// arrives after the manager's Shutdown closed the store reports os.ErrClosed
// instead of touching released files, and Close itself is idempotent.
func TestClosedStoreRefusesWrites(t *testing.T) {
	st, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v, want nil", err)
	}
	if err := st.PutJob(rec("job-1", 1, server.StateQueued)); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("PutJob after Close: %v, want os.ErrClosed", err)
	}
	if err := st.AppendEvent("job-1", ev(1, server.EventState)); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("AppendEvent after Close: %v, want os.ErrClosed", err)
	}
	if err := st.DeleteJob("job-1"); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("DeleteJob after Close: %v, want os.ErrClosed", err)
	}
}

// TestUnencodableEventRefused appends a progress event whose NaN objective
// JSON cannot encode between two that encode. The store must refuse it
// whole: AppendEvent reports the error, the mirror keeps only the accepted
// events, Close (which compacts the mirror into a snapshot) succeeds, and a
// reopened store returns exactly the accepted events.
func TestUnencodableEventRefused(t *testing.T) {
	dir := t.TempDir()
	st, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutJob(rec("job-1", 1, server.StateRunning)); err != nil {
		t.Fatal(err)
	}
	progress := func(seq uint64, objective float64) server.Event {
		e := ev(seq, server.EventProgress)
		e.Progress = &server.ProgressView{Stage: "place", Backend: "nesterov", Iteration: int(seq), Objective: objective}
		return e
	}
	if err := st.AppendEvent("job-1", progress(1, 0.5)); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendEvent("job-1", progress(2, math.NaN())); err == nil {
		t.Fatal("AppendEvent of a NaN objective succeeded")
	}
	if err := st.AppendEvent("job-1", progress(3, 0.25)); err != nil {
		t.Fatal(err)
	}
	accepted := []server.Event{progress(1, 0.5), progress(3, 0.25)}
	check := func(st *journal.Store, when string) {
		t.Helper()
		got, err := st.EventsSince("job-1", 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, accepted) {
			t.Fatalf("%s: events %+v, want %+v", when, got, accepted)
		}
	}
	check(st, "before Close")
	if err := st.Close(); err != nil {
		t.Fatalf("Close after a refused event: %v", err)
	}
	st2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	check(st2, "after reopen")
}
