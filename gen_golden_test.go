package qplacer

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// The generated-suite golden fixture: testdata/gen-random16.spec.json is the
// declarative input, testdata/golden/gen-random16.suite.json the exact bytes
// qplacer-gen emits for it. Pinning the bytes (not just the structure) is the
// determinism contract: any machine, any process, same spec → same suite.
//
// Regenerate after an intentional generator change with:
//
//	go run ./cmd/qplacer-gen -spec testdata/gen-random16.spec.json \
//	    -emit-golden -dir testdata/golden
//
// (or go test -run TestGoldenGeneratedSuite -update .)
const (
	genGoldenSpec  = "testdata/gen-random16.spec.json"
	genGoldenSuite = "testdata/golden/gen-random16.suite.json"
)

func TestGoldenGeneratedSuite(t *testing.T) {
	specData, err := os.ReadFile(genGoldenSpec)
	if err != nil {
		t.Fatal(err)
	}
	var spec SuiteSpec
	if err := json.Unmarshal(specData, &spec); err != nil {
		t.Fatal(err)
	}
	suite, err := GenerateBenchmark(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := suite.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}

	if *updateGolden {
		if err := os.WriteFile(genGoldenSuite, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", genGoldenSuite, buf.Len())
		return
	}

	want, err := os.ReadFile(genGoldenSuite)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("%s: generated bytes differ from the checked-in suite (%d vs %d bytes); "+
			"the generator is no longer deterministic, or changed intentionally (then re-run with -update)",
			genGoldenSuite, buf.Len(), len(want))
	}
	// The checked-in artifact must also stand on its own.
	if err := suite.Validate(); err != nil {
		t.Fatal(err)
	}
}

// registerGoldenSuite loads and registers the golden generated suite exactly
// once per test binary (topology and benchmark names are global).
var registerGoldenSuite = sync.OnceValues(func() (*GeneratedSuite, error) {
	f, err := os.Open(genGoldenSuite)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := LoadSuite(f)
	if err != nil {
		return nil, err
	}
	if err := s.Register(); err != nil {
		return nil, err
	}
	return s, nil
})

// TestGeneratedSuiteConformance puts the golden generated suite through the
// same bar as the built-in topologies: every registered placer × legalizer
// pair must produce a verifier-clean placement on it, and its workloads must
// evaluate like built-in benchmarks.
func TestGeneratedSuiteConformance(t *testing.T) {
	suite, err := registerGoldenSuite()
	if err != nil {
		t.Fatal(err)
	}
	topo := suite.Topology.Name
	for _, placer := range Placers() {
		for _, legalizer := range Legalizers() {
			placer, legalizer := placer, legalizer
			t.Run(fmt.Sprintf("%s/%s+%s", topo, placer, legalizer), func(t *testing.T) {
				t.Parallel()
				plan, err := New().Plan(context.Background(),
					WithTopology(topo), WithPlacer(placer), WithLegalizer(legalizer),
					WithMaxIters(30))
				if err != nil {
					t.Fatalf("pipeline failed: %v", err)
				}
				rep, err := Validate(plan)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Valid {
					for _, v := range rep.Violations {
						if v.Severity == SeverityError {
							t.Errorf("%s: %s", v.Code, v.Detail)
						}
					}
					t.Fatalf("%s+%s produced an invalid placement on %s: %d error violation(s)",
						placer, legalizer, topo, rep.Errors)
				}
			})
		}
	}
	t.Run(filepath.Base(genGoldenSuite)+"/workloads", func(t *testing.T) {
		t.Parallel()
		plan, err := New().Plan(context.Background(), WithTopology(topo), WithMaxIters(30))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range suite.Workloads {
			ev, err := New().Evaluate(context.Background(), plan, w.Name, 3)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			// Fidelity 0 is a truthful outcome on a crowded device (one
			// resonant pair at zero gap zeroes the product); the bar here is
			// that workloads evaluate, with a sane fidelity value.
			if math.IsNaN(ev.MeanFidelity) || ev.MeanFidelity < 0 || ev.MeanFidelity > 1 {
				t.Fatalf("%s: fidelity %v out of [0, 1]", w.Name, ev.MeanFidelity)
			}
		}
	})
}
