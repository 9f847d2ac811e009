package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"qplacer"
	"qplacer/internal/obs"
)

// PlanRequest is the body of POST /v1/plans: engine options (scheme as its
// string name) plus the evaluation suite. An empty benchmark list selects
// every registered benchmark; mappings <= 0 selects the paper's default.
type PlanRequest struct {
	qplacer.Options
	Benchmarks []string `json:"benchmarks,omitempty"`
	Mappings   int      `json:"mappings,omitempty"`
}

// SubmitResponse is the body returned by POST /v1/plans.
type SubmitResponse struct {
	Job JobView `json:"job"`
	// Cached is true when the submit matched a live job for the same
	// normalized request and no new work was enqueued.
	Cached bool `json:"cached"`
	// Links are the relative URLs for the job's status and result.
	Links map[string]string `json:"links"`
}

// errorResponse is the JSON error envelope every non-2xx response uses.
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// statusFor maps pipeline and service errors onto HTTP status codes:
// unknown names are 404, malformed requests 400, quota and queue
// backpressure 429, shutdown 503, cancellation and not-ready conflicts 409,
// placements that failed independent verification 422.
func statusFor(err error) int {
	switch {
	case errors.Is(err, qplacer.ErrUnknownTopology),
		errors.Is(err, qplacer.ErrUnknownBenchmark),
		errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, qplacer.ErrUnknownScheme),
		errors.Is(err, qplacer.ErrUnknownPlacer),
		errors.Is(err, qplacer.ErrUnknownLegalizer),
		errors.Is(err, qplacer.ErrUnknownDetailedPlacer),
		errors.Is(err, qplacer.ErrInvalidOptions),
		errors.Is(err, qplacer.ErrNoBenchmarks),
		errors.Is(err, ErrInvalidArgument):
		return http.StatusBadRequest
	case errors.Is(err, qplacer.ErrInvalidPlacement):
		return http.StatusUnprocessableEntity
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrQuotaExceeded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, qplacer.ErrCancelled), errors.Is(err, ErrJobNotDone):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

// codeFor names the error class for machine consumption.
func codeFor(err error) string {
	switch {
	case errors.Is(err, qplacer.ErrUnknownTopology):
		return "unknown_topology"
	case errors.Is(err, qplacer.ErrUnknownBenchmark):
		return "unknown_benchmark"
	case errors.Is(err, qplacer.ErrUnknownScheme):
		return "unknown_scheme"
	case errors.Is(err, qplacer.ErrUnknownPlacer):
		return "unknown_placer"
	case errors.Is(err, qplacer.ErrUnknownLegalizer):
		return "unknown_legalizer"
	case errors.Is(err, qplacer.ErrUnknownDetailedPlacer):
		return "unknown_detailed_placer"
	case errors.Is(err, qplacer.ErrInvalidOptions):
		return "invalid_options"
	case errors.Is(err, qplacer.ErrNoBenchmarks):
		return "no_benchmarks"
	case errors.Is(err, qplacer.ErrInvalidPlacement):
		return "invalid_placement"
	case errors.Is(err, qplacer.ErrCancelled):
		return "cancelled"
	case errors.Is(err, ErrUnknownJob):
		return "unknown_job"
	case errors.Is(err, ErrJobNotDone):
		return "not_done"
	case errors.Is(err, ErrQueueFull):
		return "queue_full"
	case errors.Is(err, ErrQuotaExceeded):
		return "quota_exceeded"
	case errors.Is(err, ErrRetriesExhausted):
		return "retries_exhausted"
	case errors.Is(err, ErrInvalidArgument):
		return "invalid_argument"
	case errors.Is(err, ErrShuttingDown):
		return "shutting_down"
	default:
		return "internal"
	}
}

// sentinelForCode is the partial inverse of codeFor, used to re-attach
// sentinels to errors recovered from the durable store so errors.Is (and
// the status mapping) survive a restart.
func sentinelForCode(code string) error {
	switch code {
	case "cancelled":
		return qplacer.ErrCancelled
	case "invalid_placement":
		return qplacer.ErrInvalidPlacement
	case "retries_exhausted":
		return ErrRetriesExhausted
	case "no_benchmarks":
		return qplacer.ErrNoBenchmarks
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // the status line is already gone; nothing to recover
}

func writeError(w http.ResponseWriter, err error) {
	status := statusFor(err)
	if status == http.StatusTooManyRequests {
		// Quota and queue backpressure are transient: tell well-behaved
		// clients when to come back.
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorResponse{Error: err.Error(), Code: codeFor(err)})
}

func jobLinks(id string) map[string]string {
	return map[string]string{
		"status": "/v1/jobs/" + id,
		"result": "/v1/jobs/" + id + "/result",
		"events": "/v1/jobs/" + id + "/events",
	}
}

// clientID identifies the submitter for per-client quotas: the X-Client-ID
// header when present, else the remote host.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-Client-ID"); c != "" {
		return c
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// decodeBody reads a size-capped request body into out, writing the error
// response itself when the body is oversized or malformed. It reports
// whether decoding succeeded.
func decodeBody(w http.ResponseWriter, r *http.Request, out any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
				Error: err.Error(),
				Code:  "body_too_large",
			})
			return false
		}
		writeError(w, fmt.Errorf("reading body: %w", err))
		return false
	}
	if err := json.Unmarshal(body, out); err != nil {
		// Typed decode failures (e.g. an unknown scheme name) keep their
		// classification; anything else is a plain malformed request.
		if errors.Is(err, qplacer.ErrUnknownScheme) {
			writeError(w, err)
			return false
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: fmt.Sprintf("malformed request: %v", err),
			Code:  "bad_request",
		})
		return false
	}
	return true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req PlanRequest
	if !decodeBody(w, r, &req) {
		return
	}
	view, cached, err := s.mgr.Submit(Request{
		Options:    req.Options,
		Benchmarks: req.Benchmarks,
		Mappings:   req.Mappings,
		Client:     clientID(r),
		RequestID:  RequestIDFromContext(r.Context()),
	})
	if err != nil {
		writeError(w, err)
		return
	}
	status := http.StatusAccepted
	if cached {
		status = http.StatusOK
	}
	writeJSON(w, status, SubmitResponse{Job: view, Cached: cached, Links: jobLinks(view.ID)})
}

// ValidateRequest is the body of POST /v1/validate: the engine options of
// the placement to verify.
type ValidateRequest struct {
	qplacer.Options
}

// ValidateResponse pairs the normalized options with the independent
// verifier's report. It is returned with status 200 when the placement is
// valid and 422 (invalid_placement) when it carries error-severity
// violations, so clients can branch on the status alone.
type ValidateResponse struct {
	Options    qplacer.Options           `json:"options"`
	Validation *qplacer.ValidationReport `json:"validation"`
}

func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	var req ValidateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	rep, norm, err := s.mgr.Validate(r.Context(), req.Options)
	if err != nil {
		writeError(w, err)
		return
	}
	status := http.StatusOK
	if !rep.Valid {
		status = http.StatusUnprocessableEntity
	}
	writeJSON(w, status, ValidateResponse{Options: norm, Validation: rep})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	view, err := s.mgr.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleResult writes the stored result bytes as they are, the document
// the durable store persists, plus the newline json.Encoder would append.
// The slice is shared with the manager, so the newline is a second write,
// never an append.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	raw, err := s.mgr.ResultJSON(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(raw)+1))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(raw); err == nil {
		_, _ = io.WriteString(w, "\n") // the client is gone on error; nothing to recover
	}
}

// JobsResponse is the body of GET /v1/jobs: one page of jobs in submission
// order plus the token selecting the next page ("" on the last page).
type JobsResponse struct {
	Jobs          []JobView `json:"jobs"`
	NextPageToken string    `json:"next_page_token,omitempty"`
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, fmt.Errorf("%w: bad limit %q", ErrInvalidArgument, v))
			return
		}
		limit = n
	}
	views, next, err := s.mgr.Jobs(State(q.Get("status")), limit, q.Get("page_token"))
	if err != nil {
		writeError(w, err)
		return
	}
	if views == nil {
		views = []JobView{}
	}
	writeJSON(w, http.StatusOK, JobsResponse{Jobs: views, NextPageToken: next})
}

// sseKeepalive is how often an idle event stream emits a comment line so
// intermediaries do not reap the connection.
const sseKeepalive = 15 * time.Second

// handleEvents streams a job's history as Server-Sent Events: every event
// carries its per-job sequence number as the SSE id, so a client that
// reconnects with Last-Event-ID resumes gap-free from where it stopped
// (events older than the store's retention window replay from the oldest
// retained event). The stream replays retained history first, then follows
// the live job, and closes after delivering the terminal state event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var after uint64
	lastID := r.Header.Get("Last-Event-ID")
	if lastID == "" {
		lastID = r.URL.Query().Get("last_event_id") // curl-friendly fallback
	}
	if lastID != "" {
		if n, err := strconv.ParseUint(lastID, 10, 64); err == nil {
			after = n
		}
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, errors.New("server: response writer does not support streaming"))
		return
	}
	s.mgr.metrics.sseSubscribers.Add(1)
	defer s.mgr.metrics.sseSubscribers.Add(-1)
	keep := time.NewTicker(s.mgr.cfg.sseKeepalive)
	defer keep.Stop()
	started := false
	// Each frame is built in this one buffer and written with one Write, as
	// Fprintf did; a whole batch is not gathered, so the buffer stays the
	// size of the largest frame. A progress frame is about 200 bytes.
	frame := make([]byte, 0, 256)
	for {
		evs, terminal, notify, err := s.mgr.Events(id, after)
		if err != nil {
			if !started {
				writeError(w, err) // unknown (or evicted) job: a JSON 404
			}
			return
		}
		if !started {
			h := w.Header()
			h.Set("Content-Type", "text/event-stream")
			h.Set("Cache-Control", "no-cache")
			h.Set("X-Accel-Buffering", "no")
			w.WriteHeader(http.StatusOK)
			started = true
		}
		for i := range evs {
			ev := &evs[i]
			frame = append(frame[:0], "id: "...)
			frame = strconv.AppendUint(frame, ev.Seq, 10)
			frame = append(frame, "\nevent: "...)
			frame = append(frame, ev.Type...)
			frame = append(frame, "\ndata: "...)
			if frame, err = appendEventJSON(frame, ev); err != nil {
				return
			}
			frame = append(frame, "\n\n"...)
			if _, err := w.Write(frame); err != nil {
				return
			}
			after = ev.Seq
		}
		if len(evs) > 0 {
			fl.Flush()
			continue // drain retained history before blocking
		}
		if terminal {
			return // fully replayed a finished job
		}
		select {
		case <-notify:
		case <-keep.C:
			// The comment advertises the job's latest event seq, so an idle
			// client can tell a quiet stream from a stalled one (and knows
			// what Last-Event-ID a reconnect would resume from).
			seq, _ := s.mgr.LatestEventSeq(id)
			if _, err := fmt.Fprintf(w, ": keepalive seq=%d\n\n", seq); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	view, err := s.mgr.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleTopologies keeps the original flat name list for existing clients
// and adds the discovery catalog: per-topology qubit/coupling counts with
// alias cross-references, plus the parametric family schemas (grid-<n>,
// octagon-<r>x<c>, ...) that resolve without registration.
func (s *Server) handleTopologies(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"topologies": qplacer.RegisteredTopologies(),
		"catalog":    qplacer.TopologyCatalog(),
		"families":   qplacer.TopologyFamilies(),
	})
}

// handleBenchmarks keeps the original flat name list and adds the catalog
// with per-benchmark qubit counts.
func (s *Server) handleBenchmarks(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"benchmarks": qplacer.RegisteredBenchmarks(),
		"catalog":    qplacer.BenchmarkCatalog(),
	})
}

func (s *Server) handlePlacers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{
		"placers": qplacer.Placers(),
	})
}

func (s *Server) handleLegalizers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{
		"legalizers": qplacer.Legalizers(),
	})
}

func (s *Server) handleDetailedPlacers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{
		"detailed_placers": qplacer.DetailedPlacers(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ns": s.clock().Sub(s.started),
		"build":     obs.Build(),
	})
}

// handleMetrics serves the service counters in the Prometheus text
// exposition format, whatever the Accept header asks for.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.mgr.WriteMetrics(w)
}
