package place

import (
	"context"
	"errors"
	"testing"
	"time"

	"qplacer/internal/topology"
)

func TestPlaceCtxCancelledBeforeStart(t *testing.T) {
	nl, cm := buildProblem(t, topology.Grid25())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := PlaceCtx(ctx, nl, cm, fastConfig(ModeQplacer))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPlaceCtxCancelMidRun(t *testing.T) {
	nl, cm := buildProblem(t, topology.Grid25())
	ctx, cancel := context.WithCancel(context.Background())
	cfg := fastConfig(ModeQplacer)
	// Cancel from the progress hook a few iterations in: the loop must stop
	// at the very next iteration boundary.
	lastIter := -1
	cfg.Progress = func(iter int, _ float64) {
		lastIter = iter
		if iter == 3 {
			cancel()
		}
	}
	start := time.Now()
	_, err := PlaceCtx(ctx, nl, cm, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if lastIter != 3 {
		t.Fatalf("ran to iteration %d after cancelling at 3", lastIter)
	}
	// Sanity: nowhere near the full 300-iteration budget.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancelled run still took %v", elapsed)
	}
}

func TestPlaceCtxDeadline(t *testing.T) {
	nl, cm := buildProblem(t, topology.Eagle127())
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := PlaceCtx(ctx, nl, cm, DefaultConfig())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
