package main

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"time"

	"qplacer"
	"qplacer/internal/geom"
	"qplacer/server"
)

// This file holds the traced run's timers. They sit outside the program:
// the built-in backends are wrapped through the public registries under a
// "traced-" name, and the journal through the public server.Store interface,
// so the traced run executes the same backends with the same configs as the
// untraced one.

const tracedPrefix = "traced-"

// layerCounts is the time and work per layer over a traced pass.
type layerCounts struct {
	place       time.Duration
	placeIters  int
	placeAlloc  uint64
	legal       time.Duration
	legalAlloc  uint64
	legalGC     uint32
	detail      time.Duration
	detailMoved int
}

// layers accumulates layerCounts. The backends may run on several engine
// workers at once, hence the lock.
type layers struct {
	mu sync.Mutex
	c  layerCounts
}

// tally is the accumulator the registered wrappers write to.
var tally layers

func (l *layers) add(f func(c *layerCounts)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f(&l.c)
}

func (l *layers) reset() { l.add(func(c *layerCounts) { *c = layerCounts{} }) }

func (l *layers) snapshot() layerCounts {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.c
}

// memSample reads the process-wide allocation and GC counters. In the
// service the delta around one layer call also counts what the server's
// other goroutines allocated meanwhile.
func memSample() (alloc uint64, gc uint32) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc, m.NumGC
}

type tracedPlacer struct{ inner qplacer.Placer }

func (p tracedPlacer) Name() string { return tracedPrefix + p.inner.Name() }

func (p tracedPlacer) Place(ctx context.Context, st *qplacer.StageState, obs qplacer.Observer) (*qplacer.PlaceOutcome, error) {
	a0, _ := memSample()
	start := time.Now()
	out, err := p.inner.Place(ctx, st, obs)
	d := time.Since(start)
	a1, _ := memSample()
	tally.add(func(c *layerCounts) {
		c.place += d
		c.placeAlloc += a1 - a0
		if out != nil {
			c.placeIters += out.Iterations
		}
	})
	return out, err
}

type tracedLegalizer struct{ inner qplacer.Legalizer }

func (l tracedLegalizer) Name() string { return tracedPrefix + l.inner.Name() }

func (l tracedLegalizer) Legalize(ctx context.Context, st *qplacer.StageState, region geom.Rect, obs qplacer.Observer) (*qplacer.LegalizeOutcome, error) {
	a0, g0 := memSample()
	start := time.Now()
	out, err := l.inner.Legalize(ctx, st, region, obs)
	d := time.Since(start)
	a1, g1 := memSample()
	tally.add(func(c *layerCounts) {
		c.legal += d
		c.legalAlloc += a1 - a0
		c.legalGC += g1 - g0
	})
	return out, err
}

type tracedDetailed struct{ inner qplacer.DetailedPlacer }

func (d tracedDetailed) Name() string { return tracedPrefix + d.inner.Name() }

func (d tracedDetailed) Refine(ctx context.Context, st *qplacer.StageState, region geom.Rect, obs qplacer.Observer) (*qplacer.DetailOutcome, error) {
	start := time.Now()
	out, err := d.inner.Refine(ctx, st, region, obs)
	dur := time.Since(start)
	tally.add(func(c *layerCounts) {
		c.detail += dur
		if out != nil {
			c.detailMoved += out.Moved
		}
	})
	return out, err
}

var registerOnce sync.Once

// registerTraced registers a timing wrapper around every built-in placer,
// legalizer and detailed placer. The "none" detailed placer is left alone:
// the engine skips it without a call, and a wrapper would defeat that.
func registerTraced() error {
	var err error
	registerOnce.Do(func() {
		for _, name := range qplacer.Placers() {
			p, e := qplacer.PlacerByName(name)
			if e == nil {
				e = qplacer.RegisterPlacer(tracedPlacer{p})
			}
			err = firstErr(err, e)
		}
		for _, name := range qplacer.Legalizers() {
			l, e := qplacer.LegalizerByName(name)
			if e == nil {
				e = qplacer.RegisterLegalizer(tracedLegalizer{l})
			}
			err = firstErr(err, e)
		}
		for _, name := range qplacer.DetailedPlacers() {
			if name == qplacer.DefaultDetailedPlacerName {
				continue
			}
			d, e := qplacer.DetailedPlacerByName(name)
			if e == nil {
				e = qplacer.RegisterDetailedPlacer(tracedDetailed{d})
			}
			err = firstErr(err, e)
		}
	})
	return err
}

// traced maps a built-in backend name to its wrapper's name.
func traced(name string) string {
	if name == "" || name == qplacer.DefaultDetailedPlacerName {
		return name
	}
	return tracedPrefix + name
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// timedStore wraps a server.Store and times every call into it.
type timedStore struct {
	inner server.Store

	mu      sync.Mutex
	puts    []float64 // PutJob latencies, ms
	appends int
	busy    time.Duration // total time inside the store
}

var _ server.Store = (*timedStore)(nil)

func (s *timedStore) done(start time.Time) time.Duration {
	d := time.Since(start)
	s.mu.Lock()
	s.busy += d
	s.mu.Unlock()
	return d
}

func (s *timedStore) PutJob(rec server.JobRecord) error {
	start := time.Now()
	err := s.inner.PutJob(rec)
	d := s.done(start)
	s.mu.Lock()
	s.puts = append(s.puts, ms(d))
	s.mu.Unlock()
	return err
}

func (s *timedStore) DeleteJob(id string) error {
	defer s.done(time.Now())
	return s.inner.DeleteJob(id)
}

func (s *timedStore) AppendEvent(id string, ev server.Event) error {
	start := time.Now()
	err := s.inner.AppendEvent(id, ev)
	s.done(start)
	s.mu.Lock()
	s.appends++
	s.mu.Unlock()
	return err
}

func (s *timedStore) EventsSince(id string, after uint64) ([]server.Event, error) {
	defer s.done(time.Now())
	return s.inner.EventsSince(id, after)
}

func (s *timedStore) LoadJobs() ([]server.JobRecord, error) {
	defer s.done(time.Now())
	return s.inner.LoadJobs()
}

func (s *timedStore) Flush() error {
	defer s.done(time.Now())
	return s.inner.Flush()
}

func (s *timedStore) Close() error { return s.inner.Close() }

// SetFsyncObserver forwards the manager's fsync histogram hook, so the
// wrapped journal reports fsync latency exactly as the bare one does.
func (s *timedStore) SetFsyncObserver(fn func(time.Duration)) {
	if fo, ok := s.inner.(interface{ SetFsyncObserver(func(time.Duration)) }); ok {
		fo.SetFsyncObserver(fn)
	}
}

// reset clears the counters, keeping the wrapped store.
func (s *timedStore) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts, s.appends, s.busy = nil, 0, 0
}

// opTagHeader carries a traced op's request tag to the handler timer.
const opTagHeader = "X-Perfbench-Op"

// handlerTimer wraps the service's HTTP handler and times every tagged
// request on the server side, from the handler's entry to its return. The
// client's HTTP stack and the loopback are not in it; the journal calls a
// handler makes are.
type handlerTimer struct {
	inner http.Handler

	mu sync.Mutex
	ms map[string]float64 // tag → handler time
}

func newHandlerTimer(inner http.Handler) *handlerTimer {
	return &handlerTimer{inner: inner, ms: map[string]float64{}}
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tag := r.Header.Get(opTagHeader)
	start := time.Now()
	h.inner.ServeHTTP(w, r)
	if tag == "" {
		return
	}
	d := ms(time.Since(start))
	h.mu.Lock()
	h.ms[tag] += d
	h.mu.Unlock()
}

func (h *handlerTimer) get(tag string) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ms[tag]
}
