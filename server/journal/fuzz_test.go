package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"qplacer/server"
)

// seedSnapshot writes a valid snapshot under dir, holding a done job with
// its result and events, and returns its generation. The snapshot's own
// generation log is left empty.
func seedSnapshot(t *testing.T, dir string) uint64 {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	created := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	if err := st.PutJob(server.JobRecord{
		ID: "job-1", Seq: 1, State: server.StateDone, Attempts: 1,
		Result: json.RawMessage(`{"plan":{"ok":true}}`), Created: created,
	}); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 2; seq++ {
		if err := st.AppendEvent("job-1", server.Event{Seq: seq, Type: server.EventState, Time: created}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return st.gen
}

// replayable returns the lines of log that load applies: those before the
// first line that does not decode, each re-terminated by a newline.
func replayable(log []byte) []byte {
	var out []byte
	sc := bufio.NewScanner(bytes.NewReader(log))
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		var o op
		if json.Unmarshal(sc.Bytes(), &o) != nil {
			break
		}
		out = append(append(out, sc.Bytes()...), '\n')
	}
	return out
}

// dumpState renders what a store serves, LoadJobs in ID order and every
// retained event sequence, in a form two stores can be compared by.
func dumpState(t *testing.T, st *Store) string {
	t.Helper()
	jobs, err := st.LoadJobs()
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(jobs, func(a, b server.JobRecord) int { return strings.Compare(a.ID, b.ID) })
	ids := map[string]bool{}
	for _, rec := range jobs {
		ids[rec.ID] = true
	}
	st.mu.Lock()
	for id := range st.events {
		ids[id] = true
	}
	st.mu.Unlock()
	events := map[string][]server.Event{}
	for _, id := range slices.Sorted(maps.Keys(ids)) {
		evs, err := st.EventsSince(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		events[id] = evs
	}
	raw, err := json.Marshal(struct {
		Jobs   []server.JobRecord
		Events map[string][]server.Event
	}{jobs, events})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// FuzzJournalReplay writes arbitrary bytes as the live log, optionally
// behind a valid snapshot, or as the log of another generation, and opens
// the journal on it. Open must not fail or panic; it must apply exactly the
// lines before the first undecodable one (none of a foreign generation's);
// and a second Open of the same directory must serve the same jobs and
// event sequences. The seed corpus under testdata/fuzz/FuzzJournalReplay
// runs with the normal tests; `go test -fuzz=FuzzJournalReplay
// ./server/journal/` explores further.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, snap, otherGen bool, log []byte) {
		// open lays out a fresh directory with live as the log and opens it.
		open := func(live []byte) (*Store, string) {
			dir := t.TempDir()
			var gen uint64
			if snap {
				gen = seedSnapshot(t, dir)
			}
			if otherGen {
				if gen > 0 {
					gen-- // left behind by a crash before truncation
				} else {
					gen++
				}
			}
			st := &Store{dir: dir}
			if err := os.WriteFile(st.logPath(gen), live, 0o644); err != nil {
				t.Fatal(err)
			}
			js, err := Open(dir)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			return js, dir
		}

		st, dir := open(log)
		got := dumpState(t, st)
		applied := replayable(log)
		if otherGen {
			applied = nil
		}
		ref, _ := open(applied)
		if want := dumpState(t, ref); got != want {
			t.Fatalf("replay applied more than the log's decodable prefix:\n got  %s\n want %s", got, want)
		}
		if err := ref.Close(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		again, err := Open(dir)
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer again.Close()
		if reopened := dumpState(t, again); reopened != got {
			t.Fatalf("second Open serves a different state:\n got  %s\n want %s", reopened, got)
		}
	})
}
