package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a fixed set of metrics and renders them in the Prometheus
// text exposition format (version 0.0.4). It implements just the subset the
// server needs — counters, gauges, histograms, and their labelled variants —
// on the standard library, because the repo takes no dependencies.
//
// Registration order is exposition order, and registering the same name
// twice panics: metric sets are wired once at startup, so a duplicate is a
// programmer error worth failing loudly on.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	names   map[string]bool
}

type metric interface {
	metricName() string
	expose(w io.Writer) error
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[m.metricName()] {
		panic("obs: duplicate metric " + m.metricName())
	}
	r.names[m.metricName()] = true
	r.metrics = append(r.metrics, m)
}

// Names returns every registered metric name, sorted. Histogram names are
// base names; their _bucket/_sum/_count series are implied.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.names))
	for n := range r.names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// WritePrometheus renders every metric in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := make([]metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	for _, m := range ms {
		if err := m.expose(w); err != nil {
			return err
		}
	}
	return nil
}

func writeHeader(w io.Writer, name, help, typ string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return err
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// formatLabels renders {k="v",...} for parallel name/value slices, or ""
// when there are none.
func formatLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing value.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }

func (c *Counter) expose(w io.Writer) error {
	if err := writeHeader(w, c.name, c.help, "counter"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load())
	return err
}

// CounterFunc is a counter whose value is polled at exposition time — used
// for counts owned elsewhere (the shared engine's cache counters).
type CounterFunc struct {
	name, help string
	fn         func() uint64
}

// CounterFunc registers a polled counter.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(&CounterFunc{name: name, help: help, fn: fn})
}

func (c *CounterFunc) metricName() string { return c.name }

func (c *CounterFunc) expose(w io.Writer) error {
	if err := writeHeader(w, c.name, c.help, "counter"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", c.name, c.fn())
	return err
}

// Gauge is a value that can go up and down.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(g)
	return g
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) metricName() string { return g.name }

func (g *Gauge) expose(w io.Writer) error {
	if err := writeHeader(w, g.name, g.help, "gauge"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", g.name, g.v.Load())
	return err
}

// GaugeFunc is a gauge polled at exposition time.
type GaugeFunc struct {
	name, help string
	fn         func() float64
}

// GaugeFunc registers a polled gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&GaugeFunc{name: name, help: help, fn: fn})
}

func (g *GaugeFunc) metricName() string { return g.name }

func (g *GaugeFunc) expose(w io.Writer) error {
	if err := writeHeader(w, g.name, g.help, "gauge"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %s\n", g.name, formatFloat(g.fn()))
	return err
}

// CounterVec is a counter family partitioned by labels.
type CounterVec struct {
	name, help string
	labels     []string

	mu   sync.Mutex
	kids map[string]*vecCounter
	keys []string
}

type vecCounter struct {
	values []string
	c      Counter
}

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	cv := &CounterVec{name: name, help: help, labels: labels, kids: map[string]*vecCounter{}}
	r.register(cv)
	return cv
}

func vecKey(values []string) string { return strings.Join(values, "\x1f") }

// With returns the child counter for the given label values (one per
// declared label, in order).
func (cv *CounterVec) With(values ...string) *Counter {
	if len(values) != len(cv.labels) {
		panic("obs: label cardinality mismatch for " + cv.name)
	}
	cv.mu.Lock()
	defer cv.mu.Unlock()
	k := vecKey(values)
	c, ok := cv.kids[k]
	if !ok {
		c = &vecCounter{values: append([]string(nil), values...)}
		c.c.name = cv.name
		cv.kids[k] = c
		cv.keys = append(cv.keys, k)
		sort.Strings(cv.keys)
	}
	return &c.c
}

func (cv *CounterVec) metricName() string { return cv.name }

func (cv *CounterVec) expose(w io.Writer) error {
	if err := writeHeader(w, cv.name, cv.help, "counter"); err != nil {
		return err
	}
	cv.mu.Lock()
	defer cv.mu.Unlock()
	for _, k := range cv.keys {
		c := cv.kids[k]
		if _, err := fmt.Fprintf(w, "%s%s %d\n",
			cv.name, formatLabels(cv.labels, c.values), c.c.Value()); err != nil {
			return err
		}
	}
	return nil
}

// DefLatencyBuckets are the default latency histogram bounds, in seconds:
// sub-millisecond fsyncs through multi-second plans.
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Histogram counts observations into cumulative le-buckets.
type Histogram struct {
	name, help string
	labels     []string // label names when part of a vec
	values     []string // label values when part of a vec
	bounds     []float64
	counts     []atomic.Uint64 // len(bounds)+1; last is +Inf
	sumBits    atomic.Uint64
	total      atomic.Uint64
}

func newHistogram(name, help string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefLatencyBuckets
	}
	b := append([]float64(nil), buckets...)
	sort.Float64s(b)
	return &Histogram{name: name, help: help, bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Histogram registers a histogram with the given bucket upper bounds
// (nil = DefLatencyBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(name, help, buckets)
	r.register(h)
	return h
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count reports total observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum reports the running sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) metricName() string { return h.name }

func (h *Histogram) expose(w io.Writer) error {
	if err := writeHeader(w, h.name, h.help, "histogram"); err != nil {
		return err
	}
	return h.exposeSeries(w)
}

// exposeSeries writes the _bucket/_sum/_count lines (no header), merging
// the le label into any vec labels.
func (h *Histogram) exposeSeries(w io.Writer) error {
	cum := uint64(0)
	for i, bound := range append(h.bounds, math.Inf(1)) {
		cum += h.counts[i].Load()
		names := append(append([]string(nil), h.labels...), "le")
		values := append(append([]string(nil), h.values...), formatFloat(bound))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", h.name, formatLabels(names, values), cum); err != nil {
			return err
		}
	}
	ls := formatLabels(h.labels, h.values)
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", h.name, ls, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", h.name, ls, h.total.Load())
	return err
}

// HistogramVec is a histogram family partitioned by labels.
type HistogramVec struct {
	name, help string
	labels     []string
	buckets    []float64

	mu   sync.Mutex
	kids map[string]*Histogram
	keys []string
}

// HistogramVec registers a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	hv := &HistogramVec{name: name, help: help, labels: labels, buckets: buckets, kids: map[string]*Histogram{}}
	r.register(hv)
	return hv
}

// With returns the child histogram for the given label values.
func (hv *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(hv.labels) {
		panic("obs: label cardinality mismatch for " + hv.name)
	}
	hv.mu.Lock()
	defer hv.mu.Unlock()
	k := vecKey(values)
	h, ok := hv.kids[k]
	if !ok {
		h = newHistogram(hv.name, hv.help, hv.buckets)
		h.labels = hv.labels
		h.values = append([]string(nil), values...)
		hv.kids[k] = h
		hv.keys = append(hv.keys, k)
		sort.Strings(hv.keys)
	}
	return h
}

func (hv *HistogramVec) metricName() string { return hv.name }

func (hv *HistogramVec) expose(w io.Writer) error {
	if err := writeHeader(w, hv.name, hv.help, "histogram"); err != nil {
		return err
	}
	hv.mu.Lock()
	defer hv.mu.Unlock()
	for _, k := range hv.keys {
		if err := hv.kids[k].exposeSeries(w); err != nil {
			return err
		}
	}
	return nil
}
