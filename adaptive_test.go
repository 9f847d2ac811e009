package qplacer

import (
	"context"
	"runtime"
	"strings"
	"testing"
)

// raiseGOMAXPROCS lifts the scheduler width for one test so the parallelism
// clamp does not serialize it on single-CPU hosts, restoring the previous
// value on cleanup. Callers must NOT mark themselves t.Parallel(): the
// setting is process-global.
func raiseGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestParallelismClampAnnotated pins satellite behaviour of the granularity
// work: a WithParallelism request above GOMAXPROCS is clamped at plan time,
// the clamp is noted on the root timing span, and the pool really is built
// at the clamped width (the place span attributes busy time to exactly that
// many workers).
func TestParallelismClampAnnotated(t *testing.T) {
	raiseGOMAXPROCS(t, 2)
	res, err := New(WithParallelism(8)).Plan(context.Background(), WithOptions(fastGridOpts()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Timings == nil {
		t.Fatal("traced plan returned no timings")
	}
	found := false
	for _, note := range res.Timings.Notes {
		if strings.Contains(note, "clamped") {
			found = true
		}
	}
	if !found {
		t.Fatalf("clamp not annotated on the root span: notes = %v", res.Timings.Notes)
	}
	place := res.Timings.Find("place")
	if place == nil {
		t.Fatal("no place span in timings")
	}
	if len(place.WorkerMS) != 2 {
		t.Fatalf("place ran on %d workers, want the clamped 2", len(place.WorkerMS))
	}
}

// TestParallelismWithinBoundsNotAnnotated: a request at or below GOMAXPROCS
// must plan silently.
func TestParallelismWithinBoundsNotAnnotated(t *testing.T) {
	raiseGOMAXPROCS(t, 2)
	res, err := New(WithParallelism(2)).Plan(context.Background(), WithOptions(fastGridOpts()))
	if err != nil {
		t.Fatal(err)
	}
	for _, note := range res.Timings.Notes {
		if strings.Contains(note, "clamped") {
			t.Fatalf("in-bounds parallelism annotated a clamp: %v", res.Timings.Notes)
		}
	}
}
