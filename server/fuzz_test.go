package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"qplacer/server"
)

// FuzzPlanRequest sends arbitrary bodies to POST /v1/plans. No body may
// produce a 500, and every 4xx answer must be the JSON error envelope with
// a non-empty code. The queue is kept short, so most bodies that decode to
// a runnable plan are refused with 429 instead of piling up work, and the
// server is shut down when the target ends, cancelling whatever is still
// queued or running. The seed corpus under testdata/fuzz/FuzzPlanRequest
// runs with the normal tests; `go test -fuzz=FuzzPlanRequest ./server/`
// explores further.
func FuzzPlanRequest(f *testing.F) {
	srv := server.New(server.Config{Workers: 1, QueueDepth: 2})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plans", bytes.NewReader(body)))
		switch {
		case rec.Code == http.StatusInternalServerError:
			t.Fatalf("status 500 for %q: %s", body, rec.Body)
		case rec.Code >= 400 && rec.Code < 500:
			var env struct {
				Error string `json:"error"`
				Code  string `json:"code"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Code == "" {
				t.Fatalf("status %d for %q without the error envelope: %s", rec.Code, body, rec.Body)
			}
		}
	})
}
