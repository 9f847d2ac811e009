package legal

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/geom"
	"qplacer/internal/parallel"
	"qplacer/internal/place"
)

// TestCutoffsBitIdentical runs both legalizers under every granularity
// policy — always fan out (zero cutoffs), auto-calibrated (nil), and cutoffs
// so high every scan gates serial — at worker counts 1, 2 and 3, and
// requires layouts and statistics bit-identical to the first (serial,
// fan-out) run: gating and worker count switch implementations, never
// decisions.
func TestCutoffsBitIdentical(t *testing.T) {
	serial := &parallel.Cutoffs{ScanCells: 1 << 30}
	policies := []struct {
		name string
		cut  *parallel.Cutoffs
	}{{"fanout", &parallel.Cutoffs{}}, {"auto", nil}, {"serial", serial}}
	legalizers := []struct {
		name string
		run  func(context.Context, *component.Netlist, geom.Rect, *frequency.CollisionMap, Config) (*Result, error)
	}{{"shelf", LegalizeCtx}, {"rowscan", RowScanCtx}}

	devices := []string{"grid", "falcon"}
	if testing.Short() {
		devices = devices[:1] // falcon's nine shelf runs dominate the package under -short/-race
	}
	for _, devName := range devices {
		base, region, cm := placedNetlist(t, devName, place.ModeQplacer)
		for _, lz := range legalizers {
			var want []float64
			var wantRes *Result
			for _, workers := range []int{1, 2, 3} {
				for _, p := range policies {
					label := fmt.Sprintf("%s/%s/workers=%d/%s", devName, lz.name, workers, p.name)
					nl := base.Clone()
					cfg := DefaultConfig()
					cfg.Workers = workers
					cfg.Cutoffs = p.cut
					res, err := lz.run(context.Background(), nl, region, cm, cfg)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					got := nl.Positions()
					if want == nil {
						want, wantRes = got, res
						continue
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: pos[%d] = %v, want %v (bitwise)", label, i, got[i], want[i])
						}
					}
					if !reflect.DeepEqual(res, wantRes) {
						t.Fatalf("%s: result %+v, want %+v", label, res, wantRes)
					}
				}
			}
		}
	}
}
