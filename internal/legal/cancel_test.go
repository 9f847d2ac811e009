package legal

import (
	"context"
	"errors"
	"testing"

	"qplacer/internal/place"
)

func TestLegalizeCtxCancelled(t *testing.T) {
	nl, region, cm := placedNetlist(t, "grid", place.ModeQplacer)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := LegalizeCtx(ctx, nl, region, cm, DefaultConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRowScanCtxCancelledMidRun cancels the greedy row-scan from its own
// progress callback after the first placement unit lands, proving the sweep
// checks its context between units rather than only up front.
func TestRowScanCtxCancelledMidRun(t *testing.T) {
	nl, region, cm := placedNetlist(t, "grid", place.ModeQplacer)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	total := 0
	cfg := DefaultConfig()
	cfg.Progress = func(step, units int) {
		total = units
		if step == 1 {
			cancel()
		}
	}
	_, err := RowScanCtx(ctx, nl, region, cm, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if total < 2 {
		t.Fatalf("only %d placement units: cancellation was not mid-run", total)
	}
}

// TestRowScanCtxCancelledUpFront mirrors the shelf legalizer's pre-cancelled
// contract for the greedy backend.
func TestRowScanCtxCancelledUpFront(t *testing.T) {
	nl, region, cm := placedNetlist(t, "grid", place.ModeQplacer)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RowScanCtx(ctx, nl, region, cm, DefaultConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
