package server

import (
	"context"
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"time"

	"qplacer"
)

// State is the lifecycle stage of a job.
type State string

const (
	// StateQueued means the job is waiting for a worker.
	StateQueued State = "queued"
	// StateRunning means a worker is placing or evaluating the job. A crash
	// leaves it running in the Store; the next boot queues it again.
	StateRunning State = "running"
	// StateDone means the job finished and its result is available.
	StateDone State = "done"
	// StateFailed means the pipeline returned an error (or the retry budget
	// ran out).
	StateFailed State = "failed"
	// StateCancelled means the job was cancelled (while queued or mid-run).
	StateCancelled State = "cancelled"
)

// terminal reports whether the state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// validStateFilter reports whether s names a state usable as a list filter.
func validStateFilter(s State) bool {
	switch s {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// Request is a normalized placement job: canonical engine options plus the
// evaluation suite. Submit normalizes incoming requests into this form, and
// the result cache keys on it — two requests that normalize identically are
// one job.
type Request struct {
	Options qplacer.Options `json:"options"`
	// Benchmarks to evaluate, in order. Submit expands an empty list to
	// every benchmark registered at submission time.
	Benchmarks []string `json:"benchmarks"`
	// Mappings per benchmark (Submit defaults it to qplacer.DefaultMappings).
	Mappings int `json:"mappings"`
	// Client identifies the submitter for per-client quotas (the HTTP layer
	// fills it from X-Client-ID, falling back to the remote address). It is
	// deliberately excluded from the dedup key: identical requests from two
	// clients share one job, charged to whoever submitted first.
	Client string `json:"client,omitempty"`
	// RequestID is the correlation ID of the HTTP request that created the
	// job (the X-Request-ID header, generated when absent), threaded through
	// job records and logs so a job can be traced back to its submit. Like
	// Client, it is excluded from the dedup key: a cache-hit submit keeps the
	// original job's ID.
	RequestID string `json:"request_id,omitempty"`
}

// jobKey is the comparable dedup identity of a normalized Request.
type jobKey struct {
	opts     qplacer.Options
	benches  string
	mappings int
}

func (r Request) key() jobKey {
	return jobKey{
		opts:     r.Options,
		benches:  strings.Join(r.Benchmarks, "\x1f"),
		mappings: r.Mappings,
	}
}

// Event types recorded in a job's history.
const (
	// EventState records a lifecycle transition (queued, running, terminal).
	EventState = "state"
	// EventProgress records a backend Progress callback.
	EventProgress = "progress"
)

// Event is one entry in a job's history: the unit GET /v1/jobs/{id}/events
// streams over SSE and the Store retains for Last-Event-ID resume. Seq is
// per-job, starts at 1, and increases by exactly 1 per event.
type Event struct {
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	Type string    `json:"type"` // EventState | EventProgress
	// State is set on EventState events.
	State State `json:"state,omitempty"`
	// Attempt is the 1-based claim count, set when the event marks a claim
	// (state=running) so retries are visible in the stream.
	Attempt int `json:"attempt,omitempty"`
	// Progress is set on EventProgress events.
	Progress *ProgressView `json:"progress,omitempty"`
	// Error carries the terminal error message on failed/cancelled states.
	Error string `json:"error,omitempty"`
	// Timings is the plan's span breakdown, attached to the terminal done
	// event so SSE consumers get the per-stage attribution without a second
	// round-trip to the result endpoint.
	Timings *qplacer.SpanTiming `json:"timings,omitempty"`
}

// JobRecord is the persistable snapshot of a job: everything a restarted
// qplacerd needs to resume (or serve) it. Results are kept in serialized
// form so recovery does not depend on round-tripping engine internals.
type JobRecord struct {
	ID        string          `json:"id"`
	Seq       uint64          `json:"seq"` // submission order; restarts resume ID allocation past it
	Request   Request         `json:"request"`
	State     State           `json:"state"`
	Attempts  int             `json:"attempts,omitempty"`
	Error     string          `json:"error,omitempty"`
	ErrorCode string          `json:"error_code,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	Created   time.Time       `json:"created_at"`
	Started   time.Time       `json:"started_at,omitzero"`
	Finished  time.Time       `json:"finished_at,omitzero"`
}

// Store persists job state and per-job event history. The manager owns the
// fast in-memory runtime index; a Store is the layer beneath it that decides
// what survives a restart: MemoryStore (the default) survives nothing,
// qplacer/server/journal survives crashes.
//
// Implementations must be safe for concurrent use. AppendEvent is called
// from the engines' progress hot loops, so it must be cheap (buffered I/O is
// fine; per-call fsync is not). PutJob marks lifecycle transitions and may
// be durable per call.
type Store interface {
	// PutJob creates or replaces the record for rec.ID.
	PutJob(rec JobRecord) error
	// DeleteJob removes a job record and its events (TTL eviction). Unknown
	// IDs are not an error.
	DeleteJob(id string) error
	// AppendEvent appends one event to the job's history. Implementations
	// may cap retention per job by dropping the oldest events; Seq values
	// are assigned by the caller and never reused.
	AppendEvent(jobID string, ev Event) error
	// EventsSince returns the retained events with Seq > after, in Seq
	// order. A job with no retained events returns an empty slice.
	EventsSince(jobID string, after uint64) ([]Event, error)
	// LoadJobs returns every persisted job record, used once at manager
	// startup for crash recovery. Order is unspecified.
	LoadJobs() ([]JobRecord, error)
	// Flush forces buffered writes down to the backing medium.
	Flush() error
	// Close flushes and releases the store. The manager closes its Store
	// during Shutdown; Close must be idempotent.
	Close() error
}

// DefaultEventRetention is how many events per job the built-in stores keep
// for Last-Event-ID resume. A resume from an ID older than the retained
// window restarts from the oldest retained event.
const DefaultEventRetention = 4096

// MemoryStore is the default Store: plain maps, nothing durable. It retains
// the same per-job event window as the durable backend so SSE resume works
// identically under both.
type MemoryStore struct {
	mu     sync.Mutex
	jobs   map[string]JobRecord
	events map[string][]Event
}

// NewMemoryStore returns an empty in-memory store.
func NewMemoryStore() *MemoryStore {
	return &MemoryStore{
		jobs:   map[string]JobRecord{},
		events: map[string][]Event{},
	}
}

// PutJob implements Store.
func (ms *MemoryStore) PutJob(rec JobRecord) error {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.jobs[rec.ID] = rec
	return nil
}

// DeleteJob implements Store.
func (ms *MemoryStore) DeleteJob(id string) error {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	delete(ms.jobs, id)
	delete(ms.events, id)
	return nil
}

// AppendEvent implements Store.
func (ms *MemoryStore) AppendEvent(jobID string, ev Event) error {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	evs := append(ms.events[jobID], ev)
	if len(evs) > DefaultEventRetention {
		evs = evs[len(evs)-DefaultEventRetention:]
	}
	ms.events[jobID] = evs
	return nil
}

// EventsSince implements Store.
func (ms *MemoryStore) EventsSince(jobID string, after uint64) ([]Event, error) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return eventsSince(ms.events[jobID], after), nil
}

// LoadJobs implements Store.
func (ms *MemoryStore) LoadJobs() ([]JobRecord, error) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	recs := make([]JobRecord, 0, len(ms.jobs))
	for _, rec := range ms.jobs {
		recs = append(recs, rec)
	}
	return recs, nil
}

// Flush implements Store (a no-op).
func (ms *MemoryStore) Flush() error { return nil }

// Close implements Store (a no-op).
func (ms *MemoryStore) Close() error { return nil }

// eventsSince copies the suffix of evs with Seq > after. Seqs are contiguous
// and ascending, so the split point is found by binary search.
func eventsSince(evs []Event, after uint64) []Event {
	i := sort.Search(len(evs), func(i int) bool { return evs[i].Seq > after })
	out := make([]Event, len(evs)-i)
	copy(out, evs[i:])
	return out
}

// Job is one submitted request moving through the manager. All mutable
// fields are guarded by the owning index's lock.
type Job struct {
	ID      string
	Request Request

	state     State
	phase     string // "placing" | "evaluating" | "cancelling" while running
	progress  *ProgressView
	err       error
	resultRaw json.RawMessage // serialized result, as the Store persists it
	created   time.Time
	started   time.Time
	finished  time.Time
	seq       uint64
	cancel    context.CancelFunc
	hits      int // duplicate submits served from this job

	// attempts counts claims, persisted at each one, so recovery can charge
	// a crashed attempt against the retry budget.
	attempts int

	// eventSeq is the Seq of the job's latest Event; notify is closed and
	// replaced on every published event (watch-channel pattern for SSE).
	eventSeq uint64
	notify   chan struct{}
}

// ProgressView is the wire form of the latest backend Progress event of a
// running job: which pipeline stage and backend are executing, how far along
// they are, and the backend's own convergence objective.
type ProgressView struct {
	Stage     string  `json:"stage"`
	Backend   string  `json:"backend,omitempty"`
	Iteration int     `json:"iteration"`
	Objective float64 `json:"objective"`
}

// JobView is the wire snapshot of a job, safe to marshal after the index
// lock is released.
type JobView struct {
	ID            string        `json:"id"`
	State         State         `json:"state"`
	Phase         string        `json:"phase,omitempty"`
	Progress      *ProgressView `json:"progress,omitempty"`
	QueuePosition *int          `json:"queue_position,omitempty"` // 0 = next to run
	Attempts      int           `json:"attempts,omitempty"`
	Request       Request       `json:"request"`
	Error         string        `json:"error,omitempty"`
	CacheHits     int           `json:"cache_hits"`
	CreatedAt     time.Time     `json:"created_at"`
	StartedAt     *time.Time    `json:"started_at,omitempty"`
	FinishedAt    *time.Time    `json:"finished_at,omitempty"`
}

// index is the in-memory runtime view of the job set: jobs by ID plus the
// result cache keyed by normalized request, with the Store underneath as
// the system of record. Finished jobs are evicted ttl after completion by
// sweeps that piggyback on every mutating access.
type index struct {
	mu      sync.Mutex
	ttl     time.Duration
	now     func() time.Time
	persist Store
	jobs    map[string]*Job
	byKey   map[jobKey]*Job
	seq     uint64
}

func newIndex(ttl time.Duration, persist Store) *index {
	return &index{
		ttl:     ttl,
		now:     time.Now,
		persist: persist,
		jobs:    map[string]*Job{},
		byKey:   map[jobKey]*Job{},
	}
}

// sweep drops finished jobs older than ttl, from the index and the Store.
// Caller holds mu.
func (st *index) sweep() {
	if st.ttl <= 0 {
		return
	}
	cutoff := st.now().Add(-st.ttl)
	for id, j := range st.jobs {
		if j.state.terminal() && j.finished.Before(cutoff) {
			delete(st.jobs, id)
			if st.byKey[j.Request.key()] == j {
				delete(st.byKey, j.Request.key())
			}
			_ = st.persist.DeleteJob(id)
		}
	}
}

// dropKey removes the result-cache entry if it still points at j, so failed
// or cancelled requests re-run on resubmit. Caller holds mu.
func (st *index) dropKey(j *Job) {
	if st.byKey[j.Request.key()] == j {
		delete(st.byKey, j.Request.key())
	}
}

// queuePosition counts queued jobs submitted before j. Caller holds mu.
func (st *index) queuePosition(j *Job) int {
	pos := 0
	for _, other := range st.jobs {
		if other.state == StateQueued && other.seq < j.seq {
			pos++
		}
	}
	return pos
}

// counts returns the number of currently queued and running jobs. Caller
// holds mu.
func (st *index) counts() (queued, running int) {
	for _, j := range st.jobs {
		switch j.state {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
	}
	return
}

// record snapshots j in its persistable form. Caller holds mu.
func (st *index) record(j *Job) JobRecord {
	rec := JobRecord{
		ID:       j.ID,
		Seq:      j.seq,
		Request:  j.Request,
		State:    j.state,
		Attempts: j.attempts,
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
	}
	if j.err != nil {
		rec.Error = j.err.Error()
		rec.ErrorCode = codeFor(j.err)
	}
	if j.state == StateDone {
		rec.Result = j.resultRaw
	}
	return rec
}

// view snapshots j for marshalling. Caller holds mu.
func (st *index) view(j *Job) JobView {
	v := JobView{
		ID:        j.ID,
		State:     j.state,
		Phase:     j.phase,
		Attempts:  j.attempts,
		Request:   j.Request,
		CacheHits: j.hits,
		CreatedAt: j.created,
	}
	if j.progress != nil {
		p := *j.progress
		v.Progress = &p
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if j.state == StateQueued {
		pos := st.queuePosition(j)
		v.QueuePosition = &pos
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	return v
}

// recoveredError re-attaches the persisted error's sentinel (by its wire
// code) to the persisted message, so errors.Is keeps working on jobs whose
// error crossed a restart.
type recoveredError struct {
	msg  string
	base error
}

func (e *recoveredError) Error() string { return e.msg }
func (e *recoveredError) Unwrap() error { return e.base }

// errFromRecord reconstructs a job's terminal error from its record.
func errFromRecord(rec JobRecord) error {
	if rec.Error == "" {
		return nil
	}
	if base := sentinelForCode(rec.ErrorCode); base != nil {
		return &recoveredError{msg: rec.Error, base: base}
	}
	return &recoveredError{msg: rec.Error}
}
