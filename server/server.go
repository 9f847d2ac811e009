package server

import (
	"context"
	"net"
	"net/http"
	"time"
)

// Server wires the job manager to its HTTP surface.
//
//	POST   /v1/plans            submit a placement job
//	POST   /v1/validate         synchronously verify a placement (422 when invalid)
//	GET    /v1/jobs             list jobs (paginated, ?status= filter)
//	GET    /v1/jobs/{id}        poll status, live progress, queue position
//	GET    /v1/jobs/{id}/result fetch the ResultDocument of a done job
//	GET    /v1/jobs/{id}/events stream progress over SSE (Last-Event-ID resume)
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/topologies       registered device topologies
//	GET    /v1/benchmarks       registered benchmark circuits
//	GET    /v1/placers          registered placement backends
//	GET    /v1/legalizers       registered legalization backends
//	GET    /v1/detailed-placers registered detailed-placement backends
//	GET    /healthz             liveness + build info
//	GET    /metrics             service counters (Prometheus text)
//
// Every request passes through the observability middleware: an
// X-Request-ID is propagated (or generated) and echoed, an access-log line
// is emitted, and qplacerd_http_requests_total is incremented by route and
// status.
type Server struct {
	mgr     *Manager
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the observability middleware
	httpSrv *http.Server
	started time.Time
	clock   func() time.Time
}

// New builds a server (and its manager/workers) from the config.
func New(cfg Config) *Server {
	s := &Server{
		mgr:   NewManager(cfg),
		mux:   http.NewServeMux(),
		clock: time.Now,
	}
	s.handler = s.withObservability(s.mux)
	// Built here, not in Serve, so a Shutdown racing a just-started Serve
	// goroutine still sees (and closes) the HTTP server.
	s.httpSrv = &http.Server{Handler: s.handler}
	s.started = s.clock()
	s.mux.HandleFunc("POST /v1/plans", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/validate", s.handleValidate)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/topologies", s.handleTopologies)
	s.mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	s.mux.HandleFunc("GET /v1/placers", s.handlePlacers)
	s.mux.HandleFunc("GET /v1/legalizers", s.handleLegalizers)
	s.mux.HandleFunc("GET /v1/detailed-placers", s.handleDetailedPlacers)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Manager exposes the job manager, e.g. for embedding the service without
// HTTP in front of it.
func (s *Server) Manager() *Manager { return s.mgr }

// Handler returns the HTTP surface — routes wrapped in the observability
// middleware — ready to mount on any listener or httptest server.
func (s *Server) Handler() http.Handler { return s.handler }

// Serve runs the HTTP server on ln until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like net/http.
func (s *Server) Serve(ln net.Listener) error {
	return s.httpSrv.Serve(ln)
}

// ListenAndServe binds addr and calls Serve.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Shutdown drains gracefully: the listener stops accepting, then queued and
// running jobs run to completion until ctx expires, at which point they are
// cancelled and awaited.
func (s *Server) Shutdown(ctx context.Context) error {
	httpErr := s.httpSrv.Shutdown(ctx)
	if err := s.mgr.Shutdown(ctx); err != nil {
		return err
	}
	return httpErr
}
