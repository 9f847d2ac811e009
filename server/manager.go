// Package server turns the qplacer Engine into a placement service: an
// asynchronous job manager runs submitted placement requests on one shared
// engine (so the stage and plan caches warm across requests), a pluggable
// Store decides what survives a restart (in-memory by default, an
// append-only journal for durability, whose unfinished jobs re-run at the
// next boot within a retry budget), and HTTP/JSON handlers expose submit /
// poll / list / result / cancel plus an SSE progress stream and the topology
// and benchmark registries.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"qplacer"
)

// Sentinel errors of the service layer; handlers map them onto HTTP status
// codes alongside the qplacer package sentinels.
var (
	// ErrUnknownJob reports a job ID not present in the store (never
	// submitted, or evicted after its TTL).
	ErrUnknownJob = errors.New("server: unknown job")
	// ErrJobNotDone reports a result fetch on a job still queued or running.
	ErrJobNotDone = errors.New("server: job not done yet")
	// ErrQueueFull reports a submit rejected because the pending queue is at
	// capacity (backpressure; HTTP 429).
	ErrQueueFull = errors.New("server: job queue full")
	// ErrQuotaExceeded reports a submit rejected because the client already
	// has its quota of live (queued or running) jobs (HTTP 429).
	ErrQuotaExceeded = errors.New("server: per-client quota exceeded")
	// ErrRetriesExhausted marks a job failed at boot because crashes
	// interrupted it more times than the retry budget allows.
	ErrRetriesExhausted = errors.New("server: retry budget exhausted")
	// ErrInvalidArgument reports malformed list-endpoint parameters.
	ErrInvalidArgument = errors.New("server: invalid argument")
	// ErrShuttingDown reports a submit during graceful shutdown.
	ErrShuttingDown = errors.New("server: shutting down")
)

// Config sizes the job manager.
type Config struct {
	// Workers is the number of jobs placed/evaluated concurrently
	// (default 2). Each placement runs on its job's worker goroutine.
	Workers int
	// QueueDepth bounds the pending-job queue (default 64); submits beyond
	// it fail with ErrQueueFull (HTTP 429).
	QueueDepth int
	// JobTTL is how long finished jobs (and their cached results) stay
	// retrievable (default 15m).
	JobTTL time.Duration
	// Store decides what survives a restart: nil selects NewMemoryStore()
	// (nothing survives); qplacer/server/journal.Open gives an append-only
	// durable backend. The manager owns the store once passed in and closes
	// it during Shutdown.
	Store Store
	// MaxRetries is how many times a job interrupted by a crash is re-run
	// at the next boot before it fails with ErrRetriesExhausted instead
	// (0 selects the default 2, up to 3 attempts in total; negative allows
	// no re-run).
	MaxRetries int
	// QuotaPerClient caps the live (queued+running) jobs per Request.Client
	// (0 = unlimited). Submits beyond it fail with ErrQuotaExceeded (429).
	QuotaPerClient int
	// StrictValidation fails jobs whose placement carries error-severity
	// violations (ErrInvalidPlacement → 422 at the result endpoint) instead
	// of merely annotating the result document. Every job's result carries
	// the independent verifier's report either way.
	StrictValidation bool
	// Logger receives the service's structured logs (job lifecycle, store
	// recovery, HTTP requests). nil discards everything, which keeps
	// embedded and test managers quiet by default.
	Logger *slog.Logger

	// Test hook (see export_test.go): shorten the SSE keepalive interval.
	sseKeepalive time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 15 * time.Minute
	}
	if c.Store == nil {
		c.Store = NewMemoryStore()
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.sseKeepalive <= 0 {
		c.sseKeepalive = sseKeepalive
	}
	return c
}

// Stats is an in-process snapshot of the service counters, read from the
// same registry /metrics exposes in Prometheus format.
type Stats struct {
	Submitted   uint64
	Queued      int
	Running     int
	Done        uint64
	Failed      uint64
	Cancelled   uint64
	Recovered   uint64
	QuotaDenied uint64
	StoreErrors uint64
	CacheHits   uint64
}

// Manager owns the job queue, the shared engine, and the store. It is safe
// for concurrent use.
type Manager struct {
	cfg    Config
	st     *index
	engine *qplacer.Engine // every job and Validate call plans here
	wg     sync.WaitGroup

	// pending is the FIFO of claimable jobs; cond (on st.mu) wakes workers
	// when it grows or the manager closes.
	pending []*Job
	cond    *sync.Cond

	// validateSem bounds synchronous Validate calls to the same concurrency
	// as the job workers, so a burst of POST /v1/validate cannot run more
	// placements at once than the job queue would allow.
	validateSem chan struct{}

	// metrics is the real registry behind /metrics; its lifecycle counters
	// are incremented under st.mu, alongside the transitions they record.
	metrics *serviceMetrics
	log     *slog.Logger

	closed bool
	// requeueOnExit is set during a forced (deadline-expired) drain: jobs
	// cancelled by the drain are flushed to the store as queued so a
	// durable backend re-runs them on the next boot.
	requeueOnExit bool
}

// NewManager builds the manager, recovers any jobs persisted by the
// configured Store, and starts its workers. Call Shutdown to drain them.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:         cfg,
		st:          newIndex(cfg.JobTTL, cfg.Store),
		validateSem: make(chan struct{}, cfg.Workers),
	}
	m.cond = sync.NewCond(&m.st.mu)
	m.log = cfg.Logger
	m.engine = qplacer.New()
	m.metrics = newServiceMetrics(m)
	// A store that can report fsync latency (the journal) feeds the
	// histogram; the interface assertion keeps Store implementations free
	// of a mandatory metrics dependency.
	if fo, ok := cfg.Store.(interface{ SetFsyncObserver(func(time.Duration)) }); ok {
		fo.SetFsyncObserver(func(d time.Duration) {
			m.metrics.journalFsync.Observe(d.Seconds())
		})
	}
	m.recover()
	for w := 0; w < cfg.Workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// recover rebuilds the index from the Store: terminal jobs become servable
// snapshots (done jobs re-enter the result cache, so resubmits stay
// idempotent across a restart), and queued or running jobs are re-queued —
// a job that was mid-run when the process died runs again on the next
// worker, bounded by the retry budget.
func (m *Manager) recover() {
	recs, err := m.cfg.Store.LoadJobs()
	if err != nil {
		m.metrics.storeErrors.Inc()
		m.log.Error("store recovery failed", "error", err.Error())
		return
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	m.st.mu.Lock()
	defer m.st.mu.Unlock()
	for _, rec := range recs {
		job := &Job{
			ID:       rec.ID,
			Request:  rec.Request,
			state:    rec.State,
			err:      errFromRecord(rec),
			attempts: rec.Attempts,
			created:  rec.Created,
			started:  rec.Started,
			finished: rec.Finished,
			seq:      rec.Seq,
			notify:   make(chan struct{}),
		}
		if rec.Seq > m.st.seq {
			m.st.seq = rec.Seq
		}
		if evs, err := m.cfg.Store.EventsSince(rec.ID, 0); err == nil && len(evs) > 0 {
			job.eventSeq = evs[len(evs)-1].Seq
		}
		m.st.jobs[job.ID] = job
		switch {
		case rec.State == StateDone:
			job.resultRaw = rec.Result
			m.st.byKey[job.Request.key()] = job
		case rec.State.terminal():
			// failed/cancelled: visible, but not a cache entry.
		case rec.Attempts > m.cfg.MaxRetries:
			// It already burned its budget before the crash: don't loop.
			job.state = StateFailed
			job.err = fmt.Errorf("%w: %d attempts", ErrRetriesExhausted, rec.Attempts)
			job.finished = m.st.now()
			m.log.Warn("recovered job over retry budget", "job", job.ID,
				"attempts", rec.Attempts, "max_retries", m.cfg.MaxRetries)
			m.metrics.failed.Inc()
			m.persistJob(job)
			m.publish(job, Event{Type: EventState, State: StateFailed, Error: job.err.Error()})
		default:
			job.state = StateQueued
			job.started = time.Time{}
			m.st.byKey[job.Request.key()] = job
			m.pending = append(m.pending, job)
			m.metrics.recovered.Inc()
			m.persistJob(job)
			m.publish(job, Event{Type: EventState, State: StateQueued})
		}
	}
	if len(recs) > 0 {
		m.log.Info("store recovery complete", "jobs", len(recs),
			"requeued", m.metrics.recovered.Value())
	}
}

// persistJob writes the job's current record through the Store. Caller
// holds st.mu. Store failures are counted, not fatal: the in-memory index
// stays authoritative for the life of the process.
func (m *Manager) persistJob(job *Job) {
	if err := m.st.persist.PutJob(m.st.record(job)); err != nil {
		m.metrics.storeErrors.Inc()
	}
}

// publish appends an event to the job's history and wakes SSE streams.
// Caller holds st.mu.
func (m *Manager) publish(job *Job, ev Event) {
	job.eventSeq++
	ev.Seq = job.eventSeq
	ev.Time = m.st.now()
	if err := m.st.persist.AppendEvent(job.ID, ev); err != nil {
		m.metrics.storeErrors.Inc()
	}
	close(job.notify)
	job.notify = make(chan struct{})
}

// normalize validates the raw request against the registries and fills in
// the package defaults, producing the canonical form the cache keys on.
// Failures wrap the qplacer sentinels so handlers can map them to status
// codes.
func (m *Manager) normalize(req Request) (Request, error) {
	opts, err := req.Options.Normalized()
	if err != nil {
		return req, err
	}
	req.Options = opts
	if _, err := qplacer.ResolveTopology(opts.Topology); err != nil {
		return req, err
	}
	if len(req.Benchmarks) == 0 {
		req.Benchmarks = qplacer.RegisteredBenchmarks()
	} else {
		registered := qplacer.RegisteredBenchmarks()
		for _, b := range req.Benchmarks {
			if !containsName(registered, b) {
				return req, fmt.Errorf("%w: %q", qplacer.ErrUnknownBenchmark, b)
			}
		}
		req.Benchmarks = append([]string(nil), req.Benchmarks...)
	}
	if len(req.Benchmarks) == 0 {
		return req, qplacer.ErrNoBenchmarks
	}
	if req.Mappings <= 0 {
		req.Mappings = qplacer.DefaultMappings
	}
	return req, nil
}

func containsName(names []string, want string) bool {
	i := sort.SearchStrings(names, want)
	return i < len(names) && names[i] == want
}

// validationMode is how every job (and the validate endpoint) runs the
// verifier: annotate by default, strict when configured.
func (m *Manager) validationMode() qplacer.ValidationMode {
	if m.cfg.StrictValidation {
		return qplacer.ValidationStrict
	}
	return qplacer.ValidationAnnotate
}

// Validate synchronously plans the given options and returns the
// independent verifier's report alongside the normalized options. Calls
// share the jobs' engine and its stage and plan caches (re-validating a
// just-finished job is a warm cache hit) and are bounded to
// the worker count: excess callers wait their turn or give up with their
// context. Cancelling ctx also aborts an in-flight placement.
func (m *Manager) Validate(ctx context.Context, opts qplacer.Options) (*qplacer.ValidationReport, qplacer.Options, error) {
	norm, err := m.normalize(Request{Options: opts})
	if err != nil {
		return nil, opts, err
	}
	select {
	case m.validateSem <- struct{}{}:
		defer func() { <-m.validateSem }()
	case <-ctx.Done():
		return nil, norm.Options, fmt.Errorf("%w: %w", qplacer.ErrCancelled, ctx.Err())
	}
	plan, err := m.engine.Plan(ctx,
		qplacer.WithOptions(norm.Options),
		qplacer.WithValidation(qplacer.ValidationAnnotate))
	if err != nil {
		return nil, norm.Options, err
	}
	return plan.Validation, norm.Options, nil
}

// Submit normalizes and enqueues a placement request. A request whose
// normalized form matches a live job — queued, running, or done within the
// TTL (including jobs recovered from a durable store) — is a cache hit and
// returns that job instead of re-running the pipeline; cached reports true
// in that case. Fresh work is subject to the per-client quota and the
// queue-depth backpressure.
func (m *Manager) Submit(req Request) (JobView, bool, error) {
	norm, err := m.normalize(req)
	if err != nil {
		return JobView{}, false, err
	}

	m.st.mu.Lock()
	defer m.st.mu.Unlock()
	m.st.sweep()

	if prior, ok := m.st.byKey[norm.key()]; ok {
		m.metrics.cacheHits.Inc()
		prior.hits++
		return m.st.view(prior), true, nil
	}
	if m.closed {
		return JobView{}, false, ErrShuttingDown
	}
	if q := m.cfg.QuotaPerClient; q > 0 && norm.Client != "" {
		live := 0
		for _, j := range m.st.jobs {
			if j.Request.Client == norm.Client && !j.state.terminal() {
				live++
			}
		}
		if live >= q {
			m.metrics.quotaDenied.Inc()
			return JobView{}, false, fmt.Errorf("%w: client %q has %d live jobs (quota %d)",
				ErrQuotaExceeded, norm.Client, live, q)
		}
	}
	if len(m.pending) >= m.cfg.QueueDepth {
		return JobView{}, false, fmt.Errorf("%w (depth %d)", ErrQueueFull, m.cfg.QueueDepth)
	}

	m.st.seq++
	job := &Job{
		ID:      fmt.Sprintf("job-%d", m.st.seq),
		Request: norm,
		state:   StateQueued,
		created: m.st.now(),
		seq:     m.st.seq,
		notify:  make(chan struct{}),
	}
	m.st.jobs[job.ID] = job
	m.st.byKey[norm.key()] = job
	m.pending = append(m.pending, job)
	m.metrics.submitted.Inc()
	m.persistJob(job)
	m.publish(job, Event{Type: EventState, State: StateQueued})
	m.cond.Signal()
	m.log.Info("job submitted", "job", job.ID,
		"topology", norm.Options.Topology, "placer", norm.Options.Placer,
		"legalizer", norm.Options.Legalizer, "client", norm.Client,
		"request_id", norm.RequestID)
	return m.st.view(job), false, nil
}

// Job returns the current snapshot of a job.
func (m *Manager) Job(id string) (JobView, error) {
	m.st.mu.Lock()
	defer m.st.mu.Unlock()
	m.st.sweep()
	job, ok := m.st.jobs[id]
	if !ok {
		return JobView{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return m.st.view(job), nil
}

// Jobs lists jobs in submission order, optionally filtered by state.
// pageToken is the opaque token returned by the previous page (""
// for the first page); limit <= 0 selects 50, and is capped at 500. The
// returned token is "" on the last page.
func (m *Manager) Jobs(status State, limit int, pageToken string) ([]JobView, string, error) {
	if status != "" && !validStateFilter(status) {
		return nil, "", fmt.Errorf("%w: unknown status %q", ErrInvalidArgument, status)
	}
	var after uint64
	if pageToken != "" {
		n, err := strconv.ParseUint(pageToken, 10, 64)
		if err != nil {
			return nil, "", fmt.Errorf("%w: bad page_token %q", ErrInvalidArgument, pageToken)
		}
		after = n
	}
	if limit <= 0 {
		limit = 50
	}
	if limit > 500 {
		limit = 500
	}

	m.st.mu.Lock()
	defer m.st.mu.Unlock()
	m.st.sweep()
	matched := make([]*Job, 0, len(m.st.jobs))
	for _, j := range m.st.jobs {
		if j.seq > after && (status == "" || j.state == status) {
			matched = append(matched, j)
		}
	}
	sort.Slice(matched, func(i, j int) bool { return matched[i].seq < matched[j].seq })
	next := ""
	if len(matched) > limit {
		matched = matched[:limit]
		next = strconv.FormatUint(matched[limit-1].seq, 10)
	}
	views := make([]JobView, len(matched))
	for i, j := range matched {
		views[i] = m.st.view(j)
	}
	return views, next, nil
}

// Events returns the retained history of a job with Seq > after, whether
// the job is terminal, and a channel closed when the next event is
// published — everything an SSE stream needs for gap-free Last-Event-ID
// resume.
func (m *Manager) Events(id string, after uint64) ([]Event, bool, <-chan struct{}, error) {
	m.st.mu.Lock()
	defer m.st.mu.Unlock()
	m.st.sweep()
	job, ok := m.st.jobs[id]
	if !ok {
		return nil, false, nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	evs, err := m.st.persist.EventsSince(id, after)
	if err != nil {
		m.metrics.storeErrors.Inc()
		return nil, false, nil, err
	}
	return evs, job.state.terminal(), job.notify, nil
}

// ResultJSON returns the finished job's result document in the serialized
// form the store persists, whether it was computed this process or recovered
// from the store. Unfinished jobs report ErrJobNotDone; failed and cancelled
// jobs report their terminal error. The returned slice is shared: callers
// must not modify it.
func (m *Manager) ResultJSON(id string) (json.RawMessage, error) {
	m.st.mu.Lock()
	defer m.st.mu.Unlock()
	job, ok := m.st.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	switch job.state {
	case StateDone:
		return job.resultRaw, nil
	case StateFailed, StateCancelled:
		return nil, job.err
	default:
		return nil, fmt.Errorf("%w: %s is %s", ErrJobNotDone, id, job.state)
	}
}

// Cancel stops a job: a queued job is cancelled immediately, a running job
// has its context cancelled and transitions once the engine unwinds, and a
// finished job is left untouched. The post-cancel snapshot is returned.
func (m *Manager) Cancel(id string) (JobView, error) {
	m.st.mu.Lock()
	defer m.st.mu.Unlock()
	job, ok := m.st.jobs[id]
	if !ok {
		return JobView{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	switch job.state {
	case StateQueued:
		job.state = StateCancelled
		job.err = qplacer.ErrCancelled
		job.finished = m.st.now()
		m.metrics.cancelled.Inc()
		m.st.dropKey(job)
		m.persistJob(job)
		m.publish(job, Event{Type: EventState, State: StateCancelled, Error: job.err.Error()})
	case StateRunning:
		job.phase = "cancelling"
		if job.cancel != nil {
			job.cancel()
		}
	}
	return m.st.view(job), nil
}

// Stats snapshots the service counters for in-process readers.
func (m *Manager) Stats() Stats {
	m.st.mu.Lock()
	defer m.st.mu.Unlock()
	queued, running := m.st.counts()
	return Stats{
		Submitted:   m.metrics.submitted.Value(),
		Queued:      queued,
		Running:     running,
		Done:        m.metrics.done.Value(),
		Failed:      m.metrics.failed.Value(),
		Cancelled:   m.metrics.cancelled.Value(),
		Recovered:   m.metrics.recovered.Value(),
		QuotaDenied: m.metrics.quotaDenied.Value(),
		StoreErrors: m.metrics.storeErrors.Value(),
		CacheHits:   m.metrics.cacheHits.Value(),
	}
}

// LatestEventSeq returns the Seq of the job's most recent event, so SSE
// keepalives can advertise how far the stream has progressed.
func (m *Manager) LatestEventSeq(id string) (uint64, bool) {
	m.st.mu.Lock()
	defer m.st.mu.Unlock()
	job, ok := m.st.jobs[id]
	if !ok {
		return 0, false
	}
	return job.eventSeq, true
}

// Shutdown stops accepting jobs and drains the workers: queued and running
// jobs run to completion until ctx expires, at which point everything still
// in flight is cancelled, awaited, and — under a durable store — flushed
// back as queued so the next boot re-runs it instead of losing it. The
// Store is flushed and closed in both paths.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.st.mu.Lock()
	if m.closed {
		m.st.mu.Unlock()
		return nil
	}
	m.closed = true
	m.cond.Broadcast()
	m.st.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		m.st.mu.Lock()
		// Forced drain: from here on, cancellations are flushed to the
		// store as queued work for the next boot, not as cancelled jobs.
		m.requeueOnExit = true
		for _, job := range m.st.jobs {
			switch job.state {
			case StateRunning:
				if job.cancel != nil {
					job.cancel()
				}
			case StateQueued: // still pending; workers will skip it
				job.state = StateCancelled
				job.err = qplacer.ErrCancelled
				job.finished = m.st.now()
				m.metrics.cancelled.Inc()
				m.st.dropKey(job)
				// Deliberately not persisted: the store keeps the queued
				// record, so a durable backend re-runs it on restart.
			}
		}
		m.cond.Broadcast()
		m.st.mu.Unlock()
		<-drained
	}
	if ferr := m.st.persist.Flush(); ferr != nil {
		m.metrics.storeErrors.Inc()
	}
	_ = m.st.persist.Close()
	return err
}

// worker claims and runs jobs until the manager closes and the backlog is
// empty.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		job, ctx, cancel := m.claim()
		if job == nil {
			return
		}
		m.run(job, ctx, cancel)
	}
}

// claim blocks until a queued job is available (or the manager is closed
// and drained), counts the attempt, and publishes the running transition.
func (m *Manager) claim() (*Job, context.Context, context.CancelFunc) {
	m.st.mu.Lock()
	defer m.st.mu.Unlock()
	for {
		for len(m.pending) == 0 && !m.closed {
			m.cond.Wait()
		}
		if len(m.pending) == 0 {
			return nil, nil, nil
		}
		job := m.pending[0]
		m.pending = m.pending[1:]
		if job.state != StateQueued { // cancelled while pending
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		job.state = StateRunning
		job.phase = "placing"
		job.started = m.st.now()
		job.cancel = cancel
		job.attempts++
		m.persistJob(job)
		m.publish(job, Event{Type: EventState, State: StateRunning, Attempt: job.attempts})
		m.log.Info("job claimed", "job", job.ID, "attempt", job.attempts,
			"request_id", job.Request.RequestID)
		return job, ctx, cancel
	}
}

// progressView is the wire form of a backend progress report. JSON has no
// NaN or infinity, so a non-finite objective is reported as 0; otherwise no
// store could persist the event, nor a snapshot that holds it.
func progressView(p qplacer.Progress) ProgressView {
	obj := p.Objective
	if math.IsNaN(obj) || math.IsInf(obj, 0) {
		obj = 0
	}
	return ProgressView{Stage: string(p.Stage), Backend: p.Backend, Iteration: p.Iteration, Objective: obj}
}

// run executes one claimed attempt: plan, then batch-evaluate, publishing
// phase transitions and progress events as it goes. The job stays running
// until finish: only Submit and recover queue a job, so no second attempt
// can take it over meanwhile.
func (m *Manager) run(job *Job, ctx context.Context, cancel context.CancelFunc) {
	defer cancel()

	// Stream backend progress into the job (for GET /v1/jobs/{id}) and its
	// event history (for the SSE stream). The callback fires from the
	// engine's hot loop, so it only copies a small struct under the index
	// lock; durable backends buffer the event append.
	obs := qplacer.ObserverFunc(func(p qplacer.Progress) {
		pv := progressView(p)
		m.st.mu.Lock()
		job.progress = &pv
		m.publish(job, Event{Type: EventProgress, Progress: &pv})
		m.st.mu.Unlock()
	})
	// Jobs always run the independent verifier: annotate mode attaches the
	// report to the result document, strict mode turns an invalid placement
	// into a failed job (ErrInvalidPlacement → 422).
	planStart := time.Now()
	plan, err := m.engine.Plan(ctx, qplacer.WithOptions(job.Request.Options),
		qplacer.WithObserver(obs), qplacer.WithValidation(m.validationMode()))
	if err != nil {
		m.finish(job, nil, err)
		return
	}
	m.metrics.observePlan(job.Request.Options.Topology,
		job.Request.Options.Placer, job.Request.Options.Legalizer,
		time.Since(planStart))

	m.st.mu.Lock()
	if job.phase != "cancelling" {
		job.phase = "evaluating"
	}
	m.st.mu.Unlock()

	batch, err := m.engine.EvaluateAll(ctx, plan, job.Request.Benchmarks, job.Request.Mappings)
	if err != nil {
		m.finish(job, nil, err)
		return
	}
	m.finish(job, &qplacer.ResultDocument{
		Plan:       plan,
		Batch:      batch,
		Validation: plan.Validation,
	}, nil)
}

// finish publishes the attempt's terminal state and maintains the result
// cache: only successful jobs stay cached for dedup.
func (m *Manager) finish(job *Job, doc *qplacer.ResultDocument, err error) {
	var raw json.RawMessage
	if err == nil {
		raw, err = json.Marshal(doc)
		if err != nil {
			err = fmt.Errorf("server: serializing result: %w", err)
		}
	}
	m.st.mu.Lock()
	defer m.st.mu.Unlock()
	job.phase = ""
	job.progress = nil
	job.finished = m.st.now()
	job.cancel = nil
	switch {
	case err == nil:
		job.state = StateDone
		job.resultRaw = raw
		m.metrics.done.Inc()
		m.persistJob(job)
	case errors.Is(err, qplacer.ErrCancelled):
		job.state = StateCancelled
		job.err = err
		m.metrics.cancelled.Inc()
		m.st.dropKey(job)
		if m.requeueOnExit {
			// Forced drain killed this attempt; flush it back to the store
			// as queued work (the drain is not charged against the retry
			// budget) so a durable backend resumes it on the next boot.
			rec := m.st.record(job)
			rec.State = StateQueued
			rec.Error, rec.ErrorCode = "", ""
			rec.Started, rec.Finished = time.Time{}, time.Time{}
			if rec.Attempts > 0 {
				rec.Attempts--
			}
			if perr := m.st.persist.PutJob(rec); perr != nil {
				m.metrics.storeErrors.Inc()
			}
		} else {
			m.persistJob(job)
		}
	default:
		job.state = StateFailed
		job.err = err
		m.metrics.failed.Inc()
		m.st.dropKey(job)
		m.persistJob(job)
	}
	ev := Event{Type: EventState, State: job.state}
	if job.err != nil {
		ev.Error = job.err.Error()
	}
	if job.state == StateDone && doc != nil && doc.Plan != nil {
		// The terminal event carries the plan's span breakdown, so SSE
		// consumers see where the time went without fetching the result.
		ev.Timings = doc.Plan.Timings
	}
	m.publish(job, ev)
	attrs := []any{"job", job.ID, "state", string(job.state),
		"attempts", job.attempts, "duration", job.finished.Sub(job.created),
		"request_id", job.Request.RequestID}
	if job.err != nil {
		m.log.Warn("job finished", append(attrs, "error", job.err.Error())...)
	} else {
		m.log.Info("job finished", attrs...)
	}
}
