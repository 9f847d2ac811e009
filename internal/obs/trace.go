// Package obs is the observability core shared by the engine and the
// server: an aggregating span tracer for per-stage timing attribution, a
// small Prometheus-compatible metrics registry, structured-logging helpers,
// and build metadata.
//
// The tracer is deliberately not an event log. A placement run executes the
// same inner stages hundreds of times (one gradient evaluation per Nesterov
// iteration), so recording one node per StartSpan would allocate per
// iteration and produce trees too large to ship in a result document.
// Instead every Span is an *aggregating* node keyed by name-under-parent:
// repeated Start/End cycles on the same child fold into one node
// (count++, wall += elapsed), which keeps the tree topology deterministic
// for a given option set and makes the snapshot a compact per-stage
// breakdown rather than a timeline.
//
// All Span and Timer methods are safe on nil receivers and do nothing, so
// the no-op default ("tracing disabled") is a nil *Span threaded through
// the same code paths at zero cost beyond a pointer test.
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one aggregating node in a trace tree. Concurrent Start/End on the
// same Span is safe: wall/CPU folds are atomic adds, and child creation is
// mutex-guarded.
type Span struct {
	name string
	// cpu gates process-CPU sampling for this node. CPU time comes from
	// getrusage (about a microsecond per sample), so only coarse stage
	// spans opt in; per-iteration sub-spans stay wall-only to keep tracing
	// overhead inside the engine's budget.
	cpu bool

	count  atomic.Int64
	wallNS atomic.Int64
	cpuNS  atomic.Int64

	mu       sync.Mutex
	order    []*Span
	children map[string]*Span
	workers  []time.Duration
	notes    []string
}

// NewSpan returns a root span with CPU sampling enabled.
func NewSpan(name string) *Span {
	return &Span{name: name, cpu: true}
}

// Name reports the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Child returns the wall-only child span with the given name, creating it
// on first use. Successive calls with the same name return the same node.
func (s *Span) Child(name string) *Span {
	return s.child(name, false)
}

// ChildCPU is Child with process-CPU sampling enabled. Intended for coarse
// stage spans, not per-iteration ones.
func (s *Span) ChildCPU(name string) *Span {
	return s.child(name, true)
}

func (s *Span) child(name string, cpu bool) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.children[name]; ok {
		return c
	}
	c := &Span{name: name, cpu: cpu}
	if s.children == nil {
		s.children = map[string]*Span{}
	}
	s.children[name] = c
	s.order = append(s.order, c)
	return c
}

// Timer measures one Start/End interval. It is a plain value so that
// starting and ending a span never heap-allocates.
type Timer struct {
	span *Span
	wall time.Time
	cpu  time.Duration
}

// Start begins an interval on s. The returned Timer must be ended exactly
// once (End on the zero Timer is a no-op).
func (s *Span) Start() Timer {
	if s == nil {
		return Timer{}
	}
	return s.StartAt(time.Now())
}

// StartAt is Start with an explicit wall start, for callers that want the
// interval to cover work done before the span tree existed (the engine
// creates its tracer only after the plan-cache lookup misses, but the root
// span should still cover normalization and the lookup itself).
func (s *Span) StartAt(wall time.Time) Timer {
	if s == nil {
		return Timer{}
	}
	t := Timer{span: s, wall: wall}
	if s.cpu {
		t.cpu = cpuNow()
	}
	return t
}

// End closes the interval and folds it into the span.
func (t Timer) End() {
	s := t.span
	if s == nil {
		return
	}
	s.count.Add(1)
	s.wallNS.Add(int64(time.Since(t.wall)))
	if s.cpu {
		if now := cpuNow(); now > 0 && now >= t.cpu {
			s.cpuNS.Add(int64(now - t.cpu))
		}
	}
}

// SetWorkers records per-worker busy time (index = worker id) on the span,
// replacing any previous attribution. The engine calls this once per
// placement run with the parallel pool's busy clocks.
func (s *Span) SetWorkers(busy []time.Duration) {
	if s == nil || len(busy) == 0 {
		return
	}
	cp := make([]time.Duration, len(busy))
	copy(cp, busy)
	s.mu.Lock()
	s.workers = cp
	s.mu.Unlock()
}

// Note attaches a free-form annotation to the span (e.g. "parallelism
// clamped to 2 CPUs", delta-eval hit rates). Notes ride along in snapshots
// in insertion order; a duplicate of an already recorded note is dropped, so
// re-running a stage does not repeat its annotations. Safe on nil.
func (s *Span) Note(msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, have := range s.notes {
		if have == msg {
			return
		}
	}
	s.notes = append(s.notes, msg)
}

// Node is an exported snapshot of one span. Children preserve first-use
// order, which is deterministic for a fixed option set.
type Node struct {
	Name     string
	Count    int64
	Wall     time.Duration
	CPU      time.Duration
	Workers  []time.Duration
	Notes    []string
	Children []*Node
}

// Snapshot exports the span tree rooted at s. Safe to call while spans are
// still being updated (values are read atomically); nil yields nil.
func (s *Span) Snapshot() *Node {
	if s == nil {
		return nil
	}
	n := &Node{
		Name:  s.name,
		Count: s.count.Load(),
		Wall:  time.Duration(s.wallNS.Load()),
		CPU:   time.Duration(s.cpuNS.Load()),
	}
	s.mu.Lock()
	if len(s.workers) > 0 {
		n.Workers = make([]time.Duration, len(s.workers))
		copy(n.Workers, s.workers)
	}
	if len(s.notes) > 0 {
		n.Notes = make([]string, len(s.notes))
		copy(n.Notes, s.notes)
	}
	kids := make([]*Span, len(s.order))
	copy(kids, s.order)
	s.mu.Unlock()
	for _, c := range kids {
		n.Children = append(n.Children, c.Snapshot())
	}
	return n
}

type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying s. A nil span leaves ctx unchanged,
// so untraced runs pay nothing.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFrom extracts the span carried by ctx, or nil. Backends use this to
// pick up the engine's stage span without the public StageState having to
// expose internal types.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}
