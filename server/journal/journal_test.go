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
// every Open compacts, the live log is named after the snapshot generation,
// and older-generation logs are deleted (so a crash between snapshot rename
// and log truncation can never replay stale ops).
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
		logs, _ := filepath.Glob(filepath.Join(dir, "journal-*.log"))
		if len(logs) != 1 {
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
	// Each Open compacts once and each Close compacts once: 3 cycles ≥ 6.
	if snap.Generation < 6 {
		t.Fatalf("snapshot generation %d, want ≥ 6 after 3 open/close cycles", snap.Generation)
	}
	if len(snap.Jobs) != 3 {
		t.Fatalf("snapshot holds %d jobs, want 3", len(snap.Jobs))
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
