// Package journal is the durable server.Store backend: an append-only JSON
// log plus a periodically compacted snapshot under one data directory, so a
// qplacerd killed mid-job recovers its backlog (and its finished results)
// on the next boot.
//
// Layout under the data directory:
//
//	snapshot.json    full state as of the last compaction (atomic rename)
//	journal-N.log    newline-delimited ops since snapshot generation N
//
// Every snapshot carries a generation number and the live log file is named
// after it, so a crash between writing a snapshot and truncating the log
// can never replay stale operations: a log from another generation is
// simply deleted. Job puts and deletes are fsynced (they are rare lifecycle
// transitions); progress events are buffered and flushed in batches, so a
// hard kill may lose the newest few progress events but never a lifecycle
// transition — recovery then just re-runs the job from its last durable
// state.
//
// A compaction rewrites the whole state, so it runs only when the log holds
// something to fold in: at Open after a crash (a non-empty log, torn or
// not) or on a directory without a snapshot, at Close if anything was
// appended, and every compactAfter records. A clean shutdown leaves an
// empty log behind its snapshot, and the next Open appends to that log as
// it is.
package journal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"qplacer/server"
)

const (
	snapshotName = "snapshot.json"
	// flushEvery bounds how many buffered event appends may precede a
	// flush to the OS, and compactAfter how many log records may accumulate
	// before the log is folded into a fresh snapshot.
	flushEvery   = 64
	compactAfter = 100000
)

// op is one journal log line.
type op struct {
	// Op is "put", "del", or "ev".
	Op    string            `json:"op"`
	Job   *server.JobRecord `json:"job,omitempty"` // put
	ID    string            `json:"id,omitempty"`  // del, ev
	Event *server.Event     `json:"ev,omitempty"`  // ev
}

// snapshot is the compacted on-disk state.
type snapshot struct {
	Generation uint64                    `json:"generation"`
	Jobs       []server.JobRecord        `json:"jobs"`
	Events     map[string][]server.Event `json:"events,omitempty"`
}

// Store implements server.Store on an append-only journal. It keeps a full
// in-memory mirror, so reads never touch disk.
type Store struct {
	mu  sync.Mutex
	dir string
	gen uint64

	f *os.File
	w *bufio.Writer

	jobs   map[string]server.JobRecord
	events map[string][]server.Event

	unflushed  int // buffered event ops not yet flushed
	logRecords int // ops appended since the last compaction or Open
	closed     bool

	// fsyncObs, when set, observes the duration of every fsync of the live
	// log (the latency a durable PutJob pays). The manager wires it to the
	// journal fsync histogram.
	fsyncObs func(time.Duration)
}

var _ server.Store = (*Store)(nil)

// SetFsyncObserver installs fn to be called with the duration of every
// journal fsync (durable job puts/deletes and explicit flushes). nil
// detaches. Safe to call concurrently with store use.
func (st *Store) SetFsyncObserver(fn func(time.Duration)) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.fsyncObs = fn
}

// syncLog fsyncs the live log file, reporting the latency to the observer.
// Caller holds mu.
func (st *Store) syncLog() error {
	start := time.Now()
	err := st.f.Sync()
	if st.fsyncObs != nil {
		st.fsyncObs(time.Since(start))
	}
	return err
}

// Open loads (or initializes) the journal under dir: snapshot first, then a
// replay of the matching generation's log. When a snapshot loaded and that
// log is absent or empty, the state a clean Close leaves, the log is opened
// for append as it is; otherwise Open compacts, so the next boot starts
// from a fresh snapshot and a torn tail is never appended to. Either way
// every other generation's log is deleted.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: creating %s: %w", dir, err)
	}
	st := &Store{
		dir:    dir,
		jobs:   map[string]server.JobRecord{},
		events: map[string][]server.Event{},
	}
	clean, err := st.load()
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if clean {
		var f *os.File
		if f, err = os.OpenFile(st.logPath(st.gen), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644); err == nil {
			st.startLog(st.gen, f)
		}
	} else {
		err = st.compact()
	}
	if err != nil {
		return nil, err
	}
	return st, nil
}

// load reads the snapshot and replays the current generation's log into the
// mirror. A truncated final log line (torn write at the moment of a crash)
// is tolerated and dropped. clean reports a snapshot behind an absent or
// empty log: the snapshot alone holds the state.
func (st *Store) load() (clean bool, err error) {
	snapped := false
	if raw, err := os.ReadFile(filepath.Join(st.dir, snapshotName)); err == nil {
		var snap snapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			return false, fmt.Errorf("journal: corrupt snapshot: %w", err)
		}
		st.gen = snap.Generation
		for _, rec := range snap.Jobs {
			st.jobs[rec.ID] = rec
		}
		for id, evs := range snap.Events {
			st.events[id] = evs
		}
		snapped = true
	} else if !errors.Is(err, os.ErrNotExist) {
		return false, fmt.Errorf("journal: reading snapshot: %w", err)
	}

	f, err := os.Open(st.logPath(st.gen))
	if errors.Is(err, os.ErrNotExist) {
		return snapped, nil
	}
	if err != nil {
		return false, fmt.Errorf("journal: opening log: %w", err)
	}
	defer f.Close()
	if fi, err := f.Stat(); err != nil {
		return false, fmt.Errorf("journal: opening log: %w", err)
	} else if fi.Size() == 0 {
		return snapped, nil
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20) // results can be large
	for sc.Scan() {
		var o op
		if err := json.Unmarshal(sc.Bytes(), &o); err != nil {
			// A torn tail line is the expected shape of a crash; anything
			// after it cannot be trusted either way, so stop replaying.
			break
		}
		st.apply(o)
	}
	if err := sc.Err(); err != nil && !errors.Is(err, bufio.ErrTooLong) {
		return false, fmt.Errorf("journal: replaying log: %w", err)
	}
	return false, nil
}

// apply folds one log op into the mirror.
func (st *Store) apply(o op) {
	switch o.Op {
	case "put":
		if o.Job != nil {
			st.jobs[o.Job.ID] = *o.Job
		}
	case "del":
		delete(st.jobs, o.ID)
		delete(st.events, o.ID)
	case "ev":
		if o.Event != nil {
			st.appendEventLocked(o.ID, *o.Event)
		}
	}
}

// appendEventLocked appends to the mirror with the retention cap, skipping
// duplicates (a replay may see an event both in the snapshot and the log).
func (st *Store) appendEventLocked(id string, ev server.Event) {
	evs := st.events[id]
	if n := len(evs); n > 0 && evs[n-1].Seq >= ev.Seq {
		return
	}
	evs = append(evs, ev)
	if len(evs) > server.DefaultEventRetention {
		evs = evs[len(evs)-server.DefaultEventRetention:]
	}
	st.events[id] = evs
}

func (st *Store) logPath(gen uint64) string {
	return filepath.Join(st.dir, fmt.Sprintf("journal-%d.log", gen))
}

// compact writes the mirror as a fresh snapshot (tmp + fsync + rename),
// starts the next generation's empty log, and deletes every older log.
// Caller holds mu.
func (st *Store) compact() error {
	if st.f != nil {
		if err := st.w.Flush(); err != nil {
			return err
		}
		st.f.Close()
		st.f = nil
	}
	next := st.gen + 1
	snap := snapshot{Generation: next, Events: st.events}
	snap.Jobs = make([]server.JobRecord, 0, len(st.jobs))
	for _, rec := range st.jobs {
		snap.Jobs = append(snap.Jobs, rec)
	}
	sort.Slice(snap.Jobs, func(i, j int) bool { return snap.Jobs[i].Seq < snap.Jobs[j].Seq })
	raw, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("journal: marshalling snapshot: %w", err)
	}
	tmp := filepath.Join(st.dir, snapshotName+".tmp")
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := tf.Write(raw); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(st.dir, snapshotName)); err != nil {
		return err
	}

	f, err := os.OpenFile(st.logPath(next), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	st.startLog(next, f)
	return nil
}

// startLog makes f, the empty log of generation gen, the live log, and
// deletes every other generation's log: the snapshot of generation gen
// holds all they did. Caller holds mu.
func (st *Store) startLog(gen uint64, f *os.File) {
	old, _ := filepath.Glob(filepath.Join(st.dir, "journal-*.log"))
	for _, p := range old {
		if p != st.logPath(gen) {
			_ = os.Remove(p)
		}
	}
	st.gen = gen
	st.f = f
	st.w = bufio.NewWriterSize(f, 1<<16)
	st.unflushed = 0
	st.logRecords = 0
}

// append writes one encoded op to the log. sync forces it (and everything
// buffered before it) down to the file; non-sync appends are flushed in
// batches. Callers encode the op before they change the mirror, so the
// mirror holds only what the log and a snapshot can hold. Caller holds mu.
func (st *Store) append(raw []byte, sync bool) error {
	st.logRecords++ // before the write, so Close compacts (and reports) after a failed one
	if _, err := st.w.Write(raw); err != nil {
		return err
	}
	if err := st.w.WriteByte('\n'); err != nil {
		return err
	}
	if sync {
		if err := st.w.Flush(); err != nil {
			return err
		}
		if err := st.syncLog(); err != nil {
			return err
		}
		st.unflushed = 0
	} else {
		st.unflushed++
		if st.unflushed >= flushEvery {
			if err := st.w.Flush(); err != nil {
				return err
			}
			st.unflushed = 0
		}
	}
	if st.logRecords >= compactAfter {
		return st.compact()
	}
	return nil
}

// PutJob implements server.Store; job lifecycle transitions are durable per
// call.
func (st *Store) PutJob(rec server.JobRecord) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return os.ErrClosed
	}
	raw, err := json.Marshal(op{Op: "put", Job: &rec})
	if err != nil {
		return err
	}
	st.jobs[rec.ID] = rec
	return st.append(raw, true)
}

// DeleteJob implements server.Store.
func (st *Store) DeleteJob(id string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return os.ErrClosed
	}
	raw, err := json.Marshal(op{Op: "del", ID: id})
	if err != nil {
		return err
	}
	delete(st.jobs, id)
	delete(st.events, id)
	return st.append(raw, true)
}

// AppendEvent implements server.Store; events are buffered (they fire from
// the engines' hot loops) and flushed in batches. An event that does not
// encode (a NaN objective, say) is refused whole: the error is returned and
// neither the mirror nor the log keeps it.
func (st *Store) AppendEvent(id string, ev server.Event) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return os.ErrClosed
	}
	raw, err := json.Marshal(op{Op: "ev", ID: id, Event: &ev})
	if err != nil {
		return err
	}
	st.appendEventLocked(id, ev)
	return st.append(raw, false)
}

// EventsSince implements server.Store.
func (st *Store) EventsSince(id string, after uint64) ([]server.Event, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	evs := st.events[id]
	i := sort.Search(len(evs), func(i int) bool { return evs[i].Seq > after })
	out := make([]server.Event, len(evs)-i)
	copy(out, evs[i:])
	return out, nil
}

// LoadJobs implements server.Store.
func (st *Store) LoadJobs() ([]server.JobRecord, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	recs := make([]server.JobRecord, 0, len(st.jobs))
	for _, rec := range st.jobs {
		recs = append(recs, rec)
	}
	return recs, nil
}

// Flush implements server.Store: buffered appends reach the file and the
// file reaches the medium.
func (st *Store) Flush() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed || st.f == nil {
		return nil
	}
	if err := st.w.Flush(); err != nil {
		return err
	}
	st.unflushed = 0
	return st.syncLog()
}

// Close implements server.Store: a final compaction if anything was
// appended since the last one (or since Open), then release the files. An
// idle store leaves its snapshot and empty log as they are. Close is
// idempotent; every method after it reports os.ErrClosed.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	var err error
	if st.logRecords > 0 {
		err = st.compact()
	}
	if st.f != nil {
		if cerr := st.f.Close(); err == nil {
			err = cerr
		}
		st.f = nil
	}
	st.closed = true
	return err
}
