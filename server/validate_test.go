package server_test

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"qplacer"
	"qplacer/server"
)

// validBody is a fast but fully legalized request, so the verifier finds no
// error-severity violations.
func validBody() string {
	return `{"topology":"grid","max_iters":30}`
}

// invalidBody skips legalization: the raw global placement overlaps heavily
// and cannot pass the verifier.
func invalidBody() string {
	return `{"topology":"grid","max_iters":5,"skip_legalize":true}`
}

func TestValidateEndpoint(t *testing.T) {
	ts := newTS(t, server.Config{Workers: 1})

	var resp server.ValidateResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/validate", validBody(), &resp); code != http.StatusOK {
		t.Fatalf("valid placement: status %d, want 200", code)
	}
	if resp.Validation == nil || !resp.Validation.Valid || resp.Validation.Errors != 0 {
		t.Fatalf("validation = %+v, want valid", resp.Validation)
	}
	if resp.Options.Topology != "grid" || resp.Options.Placer == "" {
		t.Fatalf("options not normalized: %+v", resp.Options)
	}

	resp = server.ValidateResponse{}
	if code := call(t, http.MethodPost, ts.URL+"/v1/validate", invalidBody(), &resp); code != http.StatusUnprocessableEntity {
		t.Fatalf("invalid placement: status %d, want 422", code)
	}
	if resp.Validation == nil || resp.Validation.Valid || resp.Validation.Errors == 0 {
		t.Fatalf("validation = %+v, want invalid with errors", resp.Validation)
	}
	// The report carries typed, located violations.
	found := false
	for _, v := range resp.Validation.Violations {
		if v.Code == qplacer.ViolationOverlap && v.Severity == qplacer.SeverityError {
			found = true
		}
	}
	if !found {
		t.Fatalf("no typed overlap violation in %+v", resp.Validation.Violations)
	}
}

func TestValidateEndpointRequestErrors(t *testing.T) {
	ts := newTS(t, server.Config{Workers: 1})
	cases := []struct {
		name, body string
		status     int
	}{
		{"unknown topology", `{"topology":"warbler"}`, http.StatusNotFound},
		{"unknown placer", `{"topology":"grid","placer":"ouija"}`, http.StatusBadRequest},
		{"malformed JSON", `{"topology":`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code := call(t, http.MethodPost, ts.URL+"/v1/validate", tc.body, nil); code != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.name, code, tc.status)
		}
	}
}

func TestJobResultCarriesValidationBlock(t *testing.T) {
	ts := newTS(t, server.Config{Workers: 1})

	var sub server.SubmitResponse
	body := `{"topology":"grid","max_iters":30,"benchmarks":["bv-4"],"mappings":2}`
	if code := call(t, http.MethodPost, ts.URL+"/v1/plans", body, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	pollJob(t, ts.URL, sub.Job.ID, server.StateDone)

	var doc struct {
		Validation *qplacer.ValidationReport  `json:"validation"`
		Plan       map[string]json.RawMessage `json:"plan"`
	}
	if code := call(t, http.MethodGet, ts.URL+"/v1/jobs/"+sub.Job.ID+"/result", "", &doc); code != http.StatusOK {
		t.Fatalf("result status %d", code)
	}
	if doc.Validation == nil || !doc.Validation.Valid {
		t.Fatalf("top-level validation block = %+v, want valid", doc.Validation)
	}
	// The top-level block is the report's one copy on the wire.
	if _, dup := doc.Plan["validation"]; dup {
		t.Fatal("plan view repeats the top-level validation block")
	}
	if doc.Validation.InstancesChecked == 0 || doc.Validation.PairsChecked == 0 {
		t.Fatalf("vacuous validation: %+v", doc.Validation)
	}
}

func TestStrictValidationFailsInvalidJobs(t *testing.T) {
	ts := newTS(t, server.Config{Workers: 1, StrictValidation: true})

	var sub server.SubmitResponse
	body := `{"topology":"grid","max_iters":5,"skip_legalize":true,"benchmarks":["bv-4"],"mappings":2}`
	if code := call(t, http.MethodPost, ts.URL+"/v1/plans", body, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	// The job must reach failed (not done): poll until terminal.
	deadline := 200
	var view server.JobView
	for i := 0; ; i++ {
		if code := call(t, http.MethodGet, ts.URL+"/v1/jobs/"+sub.Job.ID, "", &view); code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
		if view.State == server.StateFailed {
			break
		}
		if view.State == server.StateDone || view.State == server.StateCancelled {
			t.Fatalf("strict job reached %s, want failed", view.State)
		}
		if i > deadline {
			t.Fatalf("job stuck in %s", view.State)
		}
		time.Sleep(50 * time.Millisecond)
	}

	var errResp struct {
		Code string `json:"code"`
	}
	if code := call(t, http.MethodGet, ts.URL+"/v1/jobs/"+sub.Job.ID+"/result", "", &errResp); code != http.StatusUnprocessableEntity {
		t.Fatalf("result status %d, want 422", code)
	}
	if errResp.Code != "invalid_placement" {
		t.Fatalf("code = %q, want invalid_placement", errResp.Code)
	}

	// A legalized job under the same strict server still completes.
	if code := call(t, http.MethodPost, ts.URL+"/v1/plans", `{"topology":"grid","max_iters":30,"benchmarks":["bv-4"],"mappings":2}`, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	pollJob(t, ts.URL, sub.Job.ID, server.StateDone)
}
