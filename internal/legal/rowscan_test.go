package legal

import (
	"context"
	"errors"
	"testing"

	"qplacer/internal/place"
)

func TestRowScanRemovesAllOverlaps(t *testing.T) {
	for _, devName := range []string{"grid", "falcon"} {
		nl, region, cm := placedNetlist(t, devName, place.ModeQplacer)
		res, err := RowScanCtx(context.Background(), nl, region, cm, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if ov := overlapReport(nl); len(ov) != 0 {
			t.Fatalf("%s: %d residual overlaps after row-scan (first %v)",
				devName, len(ov), ov[0])
		}
		if res.QubitDisplacement < 0 || res.SegmentDisplacement < 0 {
			t.Fatalf("%s: negative displacement: %+v", devName, res)
		}
	}
}

func TestRowScanFrequencyObliviousAlsoLegal(t *testing.T) {
	nl, region, cm := placedNetlist(t, "grid", place.ModeClassic)
	cfg := DefaultConfig()
	cfg.FrequencyAware = false
	if _, err := RowScanCtx(context.Background(), nl, region, cm, cfg); err != nil {
		t.Fatal(err)
	}
	if ov := overlapReport(nl); len(ov) != 0 {
		t.Fatalf("%d residual overlaps without guards", len(ov))
	}
}

func TestRowScanProgressAndCancellation(t *testing.T) {
	nl, region, cm := placedNetlist(t, "grid", place.ModeQplacer)
	cfg := DefaultConfig()
	lastStep, total := 0, 0
	cfg.Progress = func(step, tot int) {
		if step != lastStep+1 {
			t.Fatalf("unit %d reported after %d", step, lastStep)
		}
		lastStep, total = step, tot
	}
	if _, err := RowScanCtx(context.Background(), nl, region, cm, cfg); err != nil {
		t.Fatal(err)
	}
	if lastStep == 0 || lastStep != total {
		t.Fatalf("progress stopped at %d/%d", lastStep, total)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Progress = nil
	if _, err := RowScanCtx(ctx, nl, region, cm, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRowScanRejectsBadConfig(t *testing.T) {
	nl, region, cm := placedNetlist(t, "grid", place.ModeQplacer)
	bad := DefaultConfig()
	bad.Pitch = 0
	if _, err := RowScanCtx(context.Background(), nl, region, cm, bad); err == nil {
		t.Fatal("zero pitch must be rejected")
	}
	if _, err := RowScanCtx(context.Background(), nl, region, nil, DefaultConfig()); err == nil {
		t.Fatal("a nil collision map must be rejected")
	}
}
