package server

import (
	"io"
	"time"

	"qplacer"
	"qplacer/internal/obs"
)

// serviceMetrics is the manager's metric set: the real registry behind both
// GET /metrics exposition formats. The legacy Stats JSON is derived from the
// same counters, so the two views can never disagree.
//
// Counter updates happen under st.mu alongside the job-state transitions
// they describe, so a scrape taken between two transitions always sees a
// consistent lifecycle (done + failed + cancelled never exceeds submitted).
type serviceMetrics struct {
	reg *obs.Registry

	submitted   *obs.Counter
	done        *obs.Counter
	failed      *obs.Counter
	cancelled   *obs.Counter
	recovered   *obs.Counter
	quotaDenied *obs.Counter
	storeErrors *obs.Counter
	cacheHits   *obs.Counter

	sseSubscribers *obs.Gauge
	journalFsync   *obs.Histogram
	httpRequests   *obs.CounterVec
	planSeconds    *obs.HistogramVec
}

// newServiceMetrics registers the manager's metric set. Queue depth, running
// jobs, and the engine's cache counters are polled at scrape time from
// the manager itself, so they are never stale copies.
func newServiceMetrics(m *Manager) *serviceMetrics {
	reg := obs.NewRegistry()
	sm := &serviceMetrics{
		reg: reg,

		submitted: reg.Counter("qplacerd_jobs_submitted_total",
			"Jobs accepted by submit (cache hits excluded)."),
		done: reg.Counter("qplacerd_jobs_done_total",
			"Jobs finished successfully."),
		failed: reg.Counter("qplacerd_jobs_failed_total",
			"Jobs that ended in failure (pipeline error or retry budget)."),
		cancelled: reg.Counter("qplacerd_jobs_cancelled_total",
			"Jobs cancelled while queued or running."),
		recovered: reg.Counter("qplacerd_jobs_recovered_total",
			"Jobs re-queued from the durable store at startup."),
		quotaDenied: reg.Counter("qplacerd_quota_denied_total",
			"Submits rejected by the per-client quota."),
		storeErrors: reg.Counter("qplacerd_store_errors_total",
			"Store operations that failed (the in-memory index stays authoritative)."),
		cacheHits: reg.Counter("qplacerd_cache_hits_total",
			"Submits served from a live job for the same normalized request."),

		sseSubscribers: reg.Gauge("qplacerd_sse_subscribers",
			"Currently connected SSE event streams."),
		journalFsync: reg.Histogram("qplacerd_journal_fsync_seconds",
			"Latency of journal fsyncs (durable job transitions).", nil),
		httpRequests: reg.CounterVec("qplacerd_http_requests_total",
			"HTTP requests served, by route pattern and status code.",
			"route", "code"),
		planSeconds: reg.HistogramVec("qplacerd_plan_seconds",
			"End-to-end placement latency of successful plans.", nil,
			"topology", "placer", "legalizer"),
	}

	reg.GaugeFunc("qplacerd_queue_depth",
		"Jobs waiting for a worker.", func() float64 {
			m.st.mu.Lock()
			defer m.st.mu.Unlock()
			queued, _ := m.st.counts()
			return float64(queued)
		})
	reg.GaugeFunc("qplacerd_jobs_running",
		"Jobs a worker is currently placing or evaluating.", func() float64 {
			m.st.mu.Lock()
			defer m.st.mu.Unlock()
			_, running := m.st.counts()
			return float64(running)
		})
	engineStat := func(pick func(qplacer.EngineStats) uint64) func() uint64 {
		return func() uint64 { return pick(m.engine.Stats()) }
	}
	reg.CounterFunc("qplacerd_engine_plan_cache_hits_total",
		"Engine plan-cache hits.",
		engineStat(func(s qplacer.EngineStats) uint64 { return s.PlanCacheHits }))
	reg.CounterFunc("qplacerd_engine_plan_cache_misses_total",
		"Engine plan-cache misses.",
		engineStat(func(s qplacer.EngineStats) uint64 { return s.PlanCacheMisses }))
	reg.CounterFunc("qplacerd_engine_stage_cache_hits_total",
		"Engine stage-cache hits.",
		engineStat(func(s qplacer.EngineStats) uint64 { return s.StageCacheHits }))
	reg.CounterFunc("qplacerd_engine_stage_cache_misses_total",
		"Engine stage-cache misses.",
		engineStat(func(s qplacer.EngineStats) uint64 { return s.StageCacheMisses }))
	return sm
}

// observePlan records a successful plan's wall time under its backend labels.
func (sm *serviceMetrics) observePlan(topology, placer, legalizer string, d time.Duration) {
	sm.planSeconds.With(topology, placer, legalizer).Observe(d.Seconds())
}

// MetricNames returns every registered metric name, sorted — the source of
// truth the docs and CI lint /metrics output against.
func (m *Manager) MetricNames() []string { return m.metrics.reg.Names() }

// WriteMetrics renders the registry in the Prometheus text exposition format
// (version 0.0.4).
func (m *Manager) WriteMetrics(w io.Writer) error { return m.metrics.reg.WritePrometheus(w) }
