// Command qplacerd serves the placement pipeline over HTTP/JSON: submit
// placement jobs, list and poll them, stream live progress over SSE, fetch
// results, cancel runs, and list the registries. Identical requests share
// one job via the result cache, and every job shares one engine's stage
// and plan caches.
//
// Usage:
//
//	qplacerd -addr :8080 -workers 2 -max-queue 64 -ttl 15m \
//	    [-data-dir /var/lib/qplacerd] [-quota N] [-retries 2] \
//	    [-log-level info] [-log-format text] [-debug-addr 127.0.0.1:6060]
//
// Structured logs (level/format set by -log-level and -log-format) go to
// stderr; -debug-addr exposes net/http/pprof on a separate listener, and
// -version prints build info and exits.
//
//	curl -X POST localhost:8080/v1/plans -d '{"topology":"grid"}'
//	curl localhost:8080/v1/jobs/job-1
//	curl -N localhost:8080/v1/jobs/job-1/events
//	curl localhost:8080/v1/jobs/job-1/result
//
// With -data-dir the job store is durable: jobs (and their results, within
// -ttl) survive a restart, and a daemon killed mid-job re-runs that job on
// the next boot, at most -retries times before it fails.
//
// SIGINT/SIGTERM drain gracefully: running jobs finish (up to -drain), then
// the process exits. If the drain budget expires first, in-flight work is
// cancelled and — with -data-dir — flushed back to the store as queued, so
// nothing is lost.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"qplacer/internal/obs"
	"qplacer/server"
	"qplacer/server/journal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qplacerd: ")
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 2, "jobs executed concurrently")
		maxQueue = flag.Int("max-queue", 64, "pending-job queue depth (submits beyond it get 429)")
		ttl      = flag.Duration("ttl", 15*time.Minute, "finished-job retention (result cache TTL)")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight jobs")
		dataDir  = flag.String("data-dir", "", "durable job store directory (empty = in-memory, lost on restart)")
		quota    = flag.Int("quota", 0, "max live jobs per client, keyed by X-Client-ID or remote host (0 = unlimited)")
		retries  = flag.Int("retries", 2, "re-runs per job after crashes (with -data-dir) before it fails; 0 = none")
		strict   = flag.Bool("strict-validation", false,
			"fail jobs whose placement carries error-severity violations (422 invalid_placement)")
		logLevel  = flag.String("log-level", "info", "structured-log level: debug|info|warn|error")
		logFormat = flag.String("log-format", "text", "structured-log format: text|json")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")
		version   = flag.Bool("version", false, "print build/version info and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("qplacerd " + obs.Build().String())
		return
	}

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		log.Fatal(err)
	}

	var store server.Store
	if *dataDir != "" {
		js, err := journal.Open(*dataDir)
		if err != nil {
			log.Fatal(err)
		}
		store = js
	}

	maxRetries := *retries
	if maxRetries == 0 {
		maxRetries = -1 // server.Config reads 0 as its default
	}
	srv := server.New(server.Config{
		Workers:          *workers,
		QueueDepth:       *maxQueue,
		JobTTL:           *ttl,
		Store:            store,
		MaxRetries:       maxRetries,
		QuotaPerClient:   *quota,
		StrictValidation: *strict,
		Logger:           logger,
	})
	if *dataDir != "" {
		stats := srv.Manager().Stats()
		log.Printf("durable store %s: recovered %d queued job(s)", *dataDir, stats.Recovered)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s (workers=%d max-queue=%d ttl=%v)",
		ln.Addr(), *workers, *maxQueue, *ttl)

	// The pprof surface is opt-in and lives on its own listener so profiling
	// endpoints are never reachable through the service address.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("debug (pprof) listening on %s", dln.Addr())
		go func() {
			if err := http.Serve(dln, dmux); err != nil {
				logger.Warn("debug listener exited", "err", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case s := <-sig:
		log.Printf("%v: draining (budget %v)", s, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("shutdown: %v", err)
		os.Exit(1)
	}
	log.Print("drained")
}
