package qplacer

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// legalizedPlan runs a fast but fully legalized grid pipeline.
func legalizedPlan(t *testing.T, opts ...Option) *PlanResult {
	t.Helper()
	eng := New(WithTopology("grid"), WithMaxIters(30))
	plan, err := eng.Plan(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestValidateCleanLegalizedPlan(t *testing.T) {
	plan := legalizedPlan(t)
	rep, err := Validate(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Valid || rep.Errors != 0 {
		t.Fatalf("legalized plan invalid: %+v", rep.Violations)
	}
	if rep.InstancesChecked != plan.NumCells || rep.PairsChecked == 0 {
		t.Fatalf("check coverage: %d instances, %d pairs", rep.InstancesChecked, rep.PairsChecked)
	}
	if plan.Validation != nil {
		t.Fatal("Validate must not mutate the plan")
	}
}

func TestValidateFlagsCorruptedPlacement(t *testing.T) {
	// A fresh engine so the corrupted netlist never leaks into a shared cache.
	eng := New()
	plan, err := eng.Plan(context.Background(), WithTopology("grid"), WithMaxIters(30))
	if err != nil {
		t.Fatal(err)
	}
	// Force two qubits onto colliding frequencies and overlapping footprints.
	a := plan.Netlist.Instances[plan.Netlist.QubitInst[0]]
	b := plan.Netlist.Instances[plan.Netlist.QubitInst[1]]
	b.Pos = a.Pos
	b.FreqGHz = a.FreqGHz

	rep, err := Validate(plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid {
		t.Fatal("corrupted placement passed validation")
	}
	overlaps := rep.ByCode(ViolationOverlap)
	if len(overlaps) == 0 {
		t.Fatalf("no overlap violation: %+v", rep.Violations)
	}
	v := overlaps[0]
	if v.Severity != SeverityError || v.A < 0 || v.B < 0 || v.Detail == "" {
		t.Fatalf("overlap violation malformed: %+v", v)
	}
	if v.X != a.Pos.X || v.Y != a.Pos.Y {
		t.Fatalf("overlap located at (%v,%v), want %v", v.X, v.Y, a.Pos)
	}
	if len(rep.ByCode(ViolationFrequencyCollision)) == 0 {
		t.Fatalf("no frequency-collision violation: %+v", rep.Violations)
	}
	// Moving instances invalidates the claimed metrics too.
	if len(rep.ByCode(ViolationMetricsMismatch)) == 0 {
		t.Fatalf("no metrics-mismatch violation: %+v", rep.Violations)
	}
}

func TestValidateRejectsNilPlan(t *testing.T) {
	if _, err := Validate(nil); err == nil {
		t.Fatal("nil plan must be rejected")
	}
	if _, err := Validate(&PlanResult{}); err == nil {
		t.Fatal("plan without netlist must be rejected")
	}
}

func TestWithValidationAnnotate(t *testing.T) {
	eng := New(WithTopology("grid"), WithMaxIters(30), WithValidation(ValidationAnnotate))
	ctx := context.Background()
	plan, err := eng.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Validation == nil {
		t.Fatal("annotate mode left Validation nil")
	}
	if !plan.Validation.Valid {
		t.Fatalf("legalized plan invalid: %+v", plan.Validation.Violations)
	}
	// Warm cache hit keeps the annotation.
	warm, err := eng.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Validation == nil {
		t.Fatal("warm hit lost the validation report")
	}
}

func TestWithValidationAnnotatesWarmCacheHit(t *testing.T) {
	// Plan without validation first; a later annotate-mode call on the same
	// options must verify the cached plan without mutating the shared one.
	eng := New(WithTopology("grid"), WithMaxIters(30))
	ctx := context.Background()
	bare, err := eng.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Validation != nil {
		t.Fatal("off mode must not validate")
	}
	annotated, err := eng.Plan(ctx, WithValidation(ValidationAnnotate))
	if err != nil {
		t.Fatal(err)
	}
	if annotated.Validation == nil {
		t.Fatal("annotate-mode warm hit has no report")
	}
	if bare.Validation != nil {
		t.Fatal("shared cached plan was mutated")
	}
	// The annotated copy becomes the cache entry: a later off-mode call
	// returns it as-is, and a second annotate call re-uses the report.
	again, err := eng.Plan(ctx, WithValidation(ValidationAnnotate))
	if err != nil {
		t.Fatal(err)
	}
	if again != annotated {
		t.Fatal("annotated plan not re-served from the cache")
	}
}

func TestWithValidationStrict(t *testing.T) {
	ctx := context.Background()
	// A legalized plan passes strict mode.
	eng := New(WithTopology("grid"), WithMaxIters(30), WithValidation(ValidationStrict))
	if _, err := eng.Plan(ctx); err != nil {
		t.Fatalf("strict mode failed a legal plan: %v", err)
	}
	// An unlegalized global placement overlaps heavily: strict mode fails
	// with the typed sentinel, annotate mode only records it.
	if _, err := eng.Plan(ctx, WithSkipLegalize(true), WithMaxIters(5)); !errors.Is(err, ErrInvalidPlacement) {
		t.Fatalf("strict err = %v, want ErrInvalidPlacement", err)
	}
	lax, err := eng.Plan(ctx, WithSkipLegalize(true), WithMaxIters(5), WithValidation(ValidationAnnotate))
	if err != nil {
		t.Fatal(err)
	}
	if lax.Validation == nil || lax.Validation.Valid {
		t.Fatalf("unlegalized plan should annotate as invalid: %+v", lax.Validation)
	}
	// Strict mode also guards the warm cache: the annotated invalid entry
	// now exists, and a strict call on it must still fail.
	if _, err := eng.Plan(ctx, WithSkipLegalize(true), WithMaxIters(5)); !errors.Is(err, ErrInvalidPlacement) {
		t.Fatalf("strict warm err = %v, want ErrInvalidPlacement", err)
	}
}

func TestValidationReportOnTheWire(t *testing.T) {
	eng := New(WithTopology("grid"), WithMaxIters(30), WithValidation(ValidationAnnotate))
	plan, err := eng.Plan(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(&ResultDocument{Plan: plan, Validation: plan.Validation})
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, `"valid":true`) {
		t.Fatalf("validation block missing from wire form: %s", s[:200])
	}
	// The document's top-level block is the report's one copy: the plan
	// view must not repeat it.
	if n := strings.Count(s, `"validation"`); n != 1 {
		t.Fatalf("result document carries %d \"validation\" keys, want 1", n)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	if _, ok := top["validation"]; !ok {
		t.Fatal("the validation key is not top-level")
	}
	// An unannotated plan keeps the block off the wire entirely.
	bare := legalizedPlan(t)
	data, err = json.Marshal(bare)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"validation"`) {
		t.Fatal("nil validation must be omitted from JSON")
	}
}
