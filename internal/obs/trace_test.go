package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestNilSpanIsNoOp(t *testing.T) {
	var s *Span
	if got := s.Child("x"); got != nil {
		t.Fatalf("nil.Child = %v, want nil", got)
	}
	if got := s.ChildCPU("x"); got != nil {
		t.Fatalf("nil.ChildCPU = %v, want nil", got)
	}
	tm := s.Start()
	tm.End() // must not panic
	s.Note("x")
	if got := s.Snapshot(); got != nil {
		t.Fatalf("nil.Snapshot = %v, want nil", got)
	}
	if got := s.Name(); got != "" {
		t.Fatalf("nil.Name = %q, want empty", got)
	}
}

func TestSpanAggregates(t *testing.T) {
	root := NewSpan("plan")
	child := root.Child("place")
	for i := 0; i < 5; i++ {
		tm := child.Start()
		tm.End()
	}
	if again := root.Child("place"); again != child {
		t.Fatal("Child with same name returned a different node")
	}
	n := root.Snapshot()
	if len(n.Children) != 1 {
		t.Fatalf("children = %d, want 1 (aggregated)", len(n.Children))
	}
	c := n.Children[0]
	if c.Name != "place" || c.Count != 5 {
		t.Fatalf("child = %q count %d, want place count 5", c.Name, c.Count)
	}
	if c.Wall < 0 {
		t.Fatalf("negative wall %v", c.Wall)
	}
}

func TestSpanChildOrderIsFirstUse(t *testing.T) {
	root := NewSpan("plan")
	for _, name := range []string{"stage", "place", "legalize", "place"} {
		root.Child(name)
	}
	n := root.Snapshot()
	want := []string{"stage", "place", "legalize"}
	if len(n.Children) != len(want) {
		t.Fatalf("children = %d, want %d", len(n.Children), len(want))
	}
	for i, w := range want {
		if n.Children[i].Name != w {
			t.Fatalf("child[%d] = %q, want %q", i, n.Children[i].Name, w)
		}
	}
}

func TestSpanWallCoversSleep(t *testing.T) {
	s := NewSpan("plan")
	tm := s.Start()
	time.Sleep(10 * time.Millisecond)
	tm.End()
	if w := s.Snapshot().Wall; w < 5*time.Millisecond {
		t.Fatalf("wall = %v, want >= 5ms", w)
	}
}

func TestStartAtExtendsInterval(t *testing.T) {
	s := NewSpan("plan")
	tm := s.StartAt(time.Now().Add(-time.Second))
	tm.End()
	if w := s.Snapshot().Wall; w < time.Second {
		t.Fatalf("wall = %v, want >= 1s (StartAt backdated)", w)
	}
}

func TestSpanConcurrentUse(t *testing.T) {
	root := NewSpan("plan")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tm := root.Child("hot").Start()
				tm.End()
			}
		}()
	}
	wg.Wait()
	if c := root.Snapshot().Children[0].Count; c != 8*200 {
		t.Fatalf("count = %d, want %d", c, 8*200)
	}
}

func TestContextRoundTrip(t *testing.T) {
	if got := SpanFrom(context.Background()); got != nil {
		t.Fatalf("SpanFrom(empty) = %v, want nil", got)
	}
	ctx := ContextWithSpan(context.Background(), nil)
	if got := SpanFrom(ctx); got != nil {
		t.Fatalf("SpanFrom(ctx with nil span) = %v, want nil", got)
	}
	s := NewSpan("plan")
	ctx = ContextWithSpan(context.Background(), s)
	if got := SpanFrom(ctx); got != s {
		t.Fatalf("SpanFrom = %v, want the stored span", got)
	}
}

func TestCPUTimeOnCoarseSpan(t *testing.T) {
	s := NewSpan("plan") // roots sample CPU
	tm := s.Start()
	// Burn a little CPU so getrusage has something to report.
	x := 0.0
	for i := 0; i < 1_000_000; i++ {
		x += float64(i % 7)
	}
	_ = x
	tm.End()
	n := s.Snapshot()
	// On platforms without getrusage CPU stays zero; only assert it never
	// goes negative and that wall was recorded.
	if n.CPU < 0 || n.Wall <= 0 {
		t.Fatalf("cpu=%v wall=%v", n.CPU, n.Wall)
	}
}
