package qplacer

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"qplacer/internal/component"
)

// validNumeric is the admission rule Normalized applies to delta_c: finite
// and ≥ 0, where 0 selects the default.
func validNumeric(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// validLB is the admission rule Normalized applies to lb: 0, which selects
// the default, or finite and at least component.MinSegmentSizeMM.
func validLB(v float64) bool {
	return v == 0 || validNumeric(v) && v >= component.MinSegmentSizeMM
}

// TestNormalizedRejectsNonFinite pins the deterministic contract the fuzz
// target relies on: NaN/Inf numerics fail normalization with the typed
// sentinel instead of slipping past the <= 0 guards into cache keys, and so
// do negative ones, which no downstream stage reads consistently, and an lb
// below the minimum, whose netlist would grow as 1/lb².
func TestNormalizedRejectsNonFinite(t *testing.T) {
	for _, o := range []Options{
		{LB: math.NaN()},
		{LB: math.Inf(1)},
		{DeltaC: math.NaN()},
		{DeltaC: math.Inf(-1)},
		{LB: -0.3},
		{DeltaC: -0.1},
		{LB: 0.3, DeltaC: -1e-9},
		{LB: 1e-6},
		{LB: math.Nextafter(component.MinSegmentSizeMM, 0)},
	} {
		if _, err := o.Normalized(); !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("Normalized(%+v) err = %v, want ErrInvalidOptions", o, err)
		}
	}
}

// FuzzParseScheme checks the parse/format round-trip contract of the scheme
// wire form: every name ParseScheme accepts formats back to itself (String
// and JSON agree), and every rejection carries the typed sentinel. The seed
// corpus under testdata/fuzz/FuzzParseScheme runs as part of the normal test
// suite; `go test -fuzz=FuzzParseScheme .` explores further.
func FuzzParseScheme(f *testing.F) {
	for _, s := range []string{"qplacer", "classic", "human", "", "QPLACER", "human ", "scheme(3)"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		sch, err := ParseScheme(name)
		if err != nil {
			if !errors.Is(err, ErrUnknownScheme) {
				t.Fatalf("ParseScheme(%q) error %v is not ErrUnknownScheme", name, err)
			}
			return
		}
		if got := sch.String(); got != name {
			t.Fatalf("round-trip broke: ParseScheme(%q).String() = %q", name, got)
		}
		data, err := json.Marshal(sch)
		if err != nil {
			t.Fatalf("accepted scheme %v fails to marshal: %v", sch, err)
		}
		var back Scheme
		if err := json.Unmarshal(data, &back); err != nil || back != sch {
			t.Fatalf("JSON round-trip %s -> %v, %v", data, back, err)
		}
	})
}

// FuzzValidateOptions hammers Options.Normalized with arbitrary field
// values: it must never panic, always classify unknown names with the right
// sentinel, and be idempotent on success — the contract the server's request
// validation and the engine's cache keys both rely on.
func FuzzValidateOptions(f *testing.F) {
	f.Add("grid", "nesterov", "shelf", "", 0, int64(1), 0.3, 0.1, 10)
	f.Add("", "", "", "", 0, int64(0), 0.0, 0.0, 0)
	f.Add("eagle", "anneal", "greedy", "none", 1, int64(99), 0.2, 0.08, -5)
	f.Add("grid", "warp-drive", "shelf", "", 0, int64(1), 0.3, 0.1, 0)
	f.Add("grid", "nesterov", "anneal", "", 2, int64(1), 0.3, 0.1, 0)
	f.Add("grid", "nesterov", "shelf", "mcmf", 99, int64(1), -0.3, -0.1, 0)
	f.Add("grid", "nesterov", "shelf", "swap", 0, int64(1), math.NaN(), 0.1, 0)
	f.Add("grid", "nesterov", "shelf", "warp-drive", 0, int64(1), 0.3, math.Inf(1), 0)
	f.Add("grid", "nesterov", "shelf", "nesterov", 0, int64(1), 0.3, 0.1, 0)
	f.Add("grid", "nesterov", "shelf", "", 0, int64(1), 1e-6, 0.1, 0)
	f.Fuzz(func(t *testing.T, topo, placer, legalizer, detailed string, scheme int, seed int64, lb, deltaC float64, maxIters int) {
		o := Options{
			Topology:       topo,
			Scheme:         Scheme(scheme),
			LB:             lb,
			DeltaC:         deltaC,
			Seed:           seed,
			MaxIters:       maxIters,
			Placer:         placer,
			Legalizer:      legalizer,
			DetailedPlacer: detailed,
		}
		norm, err := o.Normalized() // must never panic
		if err != nil {
			// Failures must classify with exactly one of the typed
			// sentinels, matching the field that actually failed.
			switch {
			case errors.Is(err, ErrInvalidOptions):
				if validLB(lb) && validNumeric(deltaC) {
					t.Fatalf("admissible lb and delta_c rejected as invalid: %v", err)
				}
			case errors.Is(err, ErrUnknownScheme):
				if s := Scheme(scheme); s == SchemeQplacer || s == SchemeClassic || s == SchemeHuman {
					t.Fatalf("valid scheme %v rejected: %v", s, err)
				}
			case errors.Is(err, ErrUnknownPlacer):
				if _, lookupErr := PlacerByName(placer); lookupErr == nil {
					t.Fatalf("registered placer %q rejected: %v", placer, err)
				}
			case errors.Is(err, ErrUnknownLegalizer):
				if _, lookupErr := LegalizerByName(legalizer); lookupErr == nil {
					t.Fatalf("registered legalizer %q rejected: %v", legalizer, err)
				}
			case errors.Is(err, ErrUnknownDetailedPlacer):
				if _, lookupErr := DetailedPlacerByName(detailed); lookupErr == nil {
					t.Fatalf("registered detailed placer %q rejected: %v", detailed, err)
				}
			default:
				t.Fatalf("Normalized() error %v carries no known sentinel", err)
			}
			return
		}
		// Success invariants: defaults filled, backends resolvable, and a
		// second normalization is a fixed point (cache-key stability).
		if norm.Topology == "" || norm.Seed == 0 {
			t.Fatalf("defaults not filled: %+v", norm)
		}
		if !(norm.LB >= component.MinSegmentSizeMM) || !(norm.DeltaC > 0) || !validLB(lb) || !validNumeric(deltaC) {
			t.Fatalf("lb %v / delta_c %v accepted as %v / %v", lb, deltaC, norm.LB, norm.DeltaC)
		}
		if _, err := PlacerByName(norm.Placer); err != nil {
			t.Fatalf("normalized placer %q not resolvable: %v", norm.Placer, err)
		}
		if _, err := LegalizerByName(norm.Legalizer); err != nil {
			t.Fatalf("normalized legalizer %q not resolvable: %v", norm.Legalizer, err)
		}
		if _, err := DetailedPlacerByName(norm.DetailedPlacer); err != nil {
			t.Fatalf("normalized detailed placer %q not resolvable: %v", norm.DetailedPlacer, err)
		}
		again, err := norm.Normalized()
		if err != nil {
			t.Fatalf("re-normalizing a normalized value failed: %v", err)
		}
		if again != norm {
			t.Fatalf("Normalized not idempotent: %+v -> %+v", norm, again)
		}
	})
}

// FuzzTopologyName feeds arbitrary names to ResolveTopology, the lookup
// behind Options.Topology and the server's topology field: it must never
// panic, every device it builds has 1 to 4096 qubits (the parametric
// families' bound), and every rejection wraps ErrUnknownTopology. The seed
// corpus under testdata/fuzz/FuzzTopologyName includes r×c names whose
// product overflows int.
func FuzzTopologyName(f *testing.F) {
	f.Fuzz(func(t *testing.T, name string) {
		info, err := ResolveTopology(name)
		if err != nil {
			if !errors.Is(err, ErrUnknownTopology) {
				t.Fatalf("ResolveTopology(%q) error %v is not ErrUnknownTopology", name, err)
			}
			return
		}
		if info.Qubits < 1 || info.Qubits > 4096 {
			t.Fatalf("ResolveTopology(%q) built %d qubits, want 1..4096", name, info.Qubits)
		}
	})
}

// FuzzLoadSuite feeds arbitrary bytes to LoadSuite, the reader behind
// qplacer -suite and qplacer-bench -suite: it must never panic, every
// rejection wraps ErrInvalidSuite, and a suite it accepts writes out with
// WriteJSON and reloads to an equal suite with identical bytes. The seed
// corpus under testdata/fuzz/FuzzLoadSuite holds the suite generated from
// testdata/gen-random16.spec.json, a truncated copy, copies with a tampered
// spec_hash and a dangling collision-map index, a copy whose lb_mm differs
// from its spec's, which once made the validating netlist rebuild size
// itself from the unhashed value, and a copy whose spec asks for lb 1e-6 mm
// under a recomputed spec_hash, which once made it build ~10¹² instances.
func FuzzLoadSuite(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := LoadSuite(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrInvalidSuite) {
				t.Fatalf("LoadSuite error %v is not ErrInvalidSuite", err)
			}
			return
		}
		var first bytes.Buffer
		if err := s.WriteJSON(&first); err != nil {
			t.Fatalf("accepted suite fails to write: %v", err)
		}
		back, err := LoadSuite(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written suite fails to reload: %v", err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("reloaded suite differs from the accepted one:\n%+v\nvs\n%+v", back.Suite, s.Suite)
		}
		var second bytes.Buffer
		if err := back.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("a reloaded suite writes different bytes")
		}
	})
}
