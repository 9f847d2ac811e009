package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"qplacer/server"
	"qplacer/server/journal"
)

// fetchResult GETs a job's result and checks the framing every result
// response carries: 200, JSON content type, and a Content-Length that
// matches the body.
func fetchResult(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: status %d: %s", id, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("result %s: Content-Type %q", id, ct)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Fatalf("result %s: Content-Length %q for a %d-byte body", id, cl, len(body))
	}
	return body
}

// storedResult is the Result bytes of job id as the store holds them.
func storedResult(t *testing.T, st server.Store, id string) []byte {
	t.Helper()
	recs, err := st.LoadJobs()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.ID == id {
			if len(rec.Result) == 0 {
				t.Fatalf("stored record of %s has no result", id)
			}
			return rec.Result
		}
	}
	t.Fatalf("store holds no record of %s", id)
	return nil
}

// onDiskRecord returns job id's record as the bytes the journal's snapshot
// file holds. A closed journal has folded its whole log into the snapshot.
func onDiskRecord(t *testing.T, dir, id string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Jobs []json.RawMessage `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	for _, rec := range snap.Jobs {
		var head struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rec, &head); err != nil {
			t.Fatal(err)
		}
		if head.ID == id {
			return rec
		}
	}
	t.Fatalf("snapshot holds no record of %s", id)
	return nil
}

// sameDocument decodes a and b and reports whether they hold the same JSON
// value, whatever their whitespace.
func sameDocument(t *testing.T, a, b []byte) bool {
	t.Helper()
	var va, vb any
	if err := json.Unmarshal(a, &va); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &vb); err != nil {
		t.Fatal(err)
	}
	return reflect.DeepEqual(va, vb)
}

// TestResultServedAsStored holds the result endpoint to the bytes the store
// persists: a live job, its dedup repeat and the same job after a journal
// reopen each answer with the stored Result plus one newline, the same JSON
// value the indenting encoder used to send, and serving it leaves the
// journal's bytes for the job untouched.
func TestResultServedAsStored(t *testing.T) {
	dir := t.TempDir()
	var store server.Store = server.NewMemoryStore()
	durable := os.Getenv("QPLACER_TEST_STORE") == "journal"
	if durable {
		js, err := journal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		store = js
	}
	serve := func(st server.Store) (*server.Server, *httptest.Server) {
		srv := server.New(server.Config{Workers: 1, Store: st})
		return srv, httptest.NewServer(srv.Handler())
	}
	stop := func(srv *server.Server, ts *httptest.Server) {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}

	srv, ts := serve(store)
	var sub server.SubmitResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/plans", fastBody(90), &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	id := sub.Job.ID
	pollJob(t, ts.URL, id, server.StateDone)
	stored := storedResult(t, store, id)
	want := append(append([]byte(nil), stored...), '\n')

	live := fetchResult(t, ts.URL, id)
	if !bytes.Equal(live, want) {
		t.Fatalf("live result differs from the stored bytes plus a newline (%d vs %d bytes)", len(live), len(want))
	}
	var indented bytes.Buffer
	enc := json.NewEncoder(&indented)
	enc.SetIndent("", "  ")
	if err := enc.Encode(json.RawMessage(stored)); err != nil {
		t.Fatal(err)
	}
	if !sameDocument(t, live, indented.Bytes()) {
		t.Fatal("compact result is not the same document as its indented form")
	}

	var again server.SubmitResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/plans", fastBody(90), &again); code != http.StatusOK || !again.Cached || again.Job.ID != id {
		t.Fatalf("repeat submit: status %d, cached=%v, job %s (want %s)", code, again.Cached, again.Job.ID, id)
	}
	if repeat := fetchResult(t, ts.URL, id); !bytes.Equal(repeat, want) {
		t.Fatal("dedup repeat's result differs from the stored bytes plus a newline")
	}
	stop(srv, ts)

	if !durable {
		// The in-memory store is gone with its manager: carry its record
		// into a journal so the recovered path is checked on this setting
		// too.
		js, err := journal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		rec := server.JobRecord{ID: id, Seq: 1, Request: sub.Job.Request, State: server.StateDone, Attempts: 1, Result: stored}
		if err := js.PutJob(rec); err != nil {
			t.Fatal(err)
		}
		if err := js.Close(); err != nil {
			t.Fatal(err)
		}
	}
	before := onDiskRecord(t, dir, id)
	if !bytes.Contains(before, stored) {
		t.Fatal("journal snapshot does not hold the stored result bytes verbatim")
	}

	js, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(storedResult(t, js, id), stored) {
		t.Fatal("reopened journal holds different result bytes")
	}
	srv, ts = serve(js)
	if recovered := fetchResult(t, ts.URL, id); !bytes.Equal(recovered, want) {
		t.Fatal("recovered job's result differs from the stored bytes plus a newline")
	}
	stop(srv, ts)
	if after := onDiskRecord(t, dir, id); !bytes.Equal(after, before) {
		t.Fatal("serving the recovered result changed the journal's bytes for the job")
	}
}
