package qplacer

import (
	"time"

	"qplacer/internal/obs"
)

// SpanTiming is one node of a plan's per-stage timing breakdown: the wire
// form of the tracer's aggregated span tree. Wall and CPU are cumulative
// across the Count start/end cycles the node folded together (so an inner
// gradient sub-span reports the total across all iterations, with Count the
// iteration count).
type SpanTiming struct {
	Name   string  `json:"name"`
	Count  int64   `json:"count,omitempty"`
	WallMS float64 `json:"wall_ms"`
	CPUMS  float64 `json:"cpu_ms,omitempty"`
	// Notes carries the span's free-form annotations — delta-eval hit
	// rates, the legalizer's search work and self-reported failures — in
	// insertion order.
	Notes    []string      `json:"notes,omitempty"`
	Children []*SpanTiming `json:"children,omitempty"`
}

// Find walks the breakdown by child-name path and returns the matching
// node, or nil. Find() with no path returns t itself.
func (t *SpanTiming) Find(path ...string) *SpanTiming {
	if t == nil {
		return nil
	}
	node := t
outer:
	for _, name := range path {
		for _, c := range node.Children {
			if c.Name == name {
				node = c
				continue outer
			}
		}
		return nil
	}
	return node
}

func durMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// spanTiming converts an internal span snapshot to the wire form.
func spanTiming(n *obs.Node) *SpanTiming {
	if n == nil {
		return nil
	}
	out := &SpanTiming{
		Name:   n.Name,
		Count:  n.Count,
		WallMS: durMS(n.Wall),
		CPUMS:  durMS(n.CPU),
	}
	out.Notes = append(out.Notes, n.Notes...)
	for _, c := range n.Children {
		out.Children = append(out.Children, spanTiming(c))
	}
	return out
}
