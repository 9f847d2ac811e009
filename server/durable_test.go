package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qplacer"
	"qplacer/server"
	"qplacer/server/journal"
)

// slowRequest is a manager-level eagle run: long enough to interrupt.
func slowRequest(seed int64) server.Request {
	return server.Request{
		Options:    qplacer.Options{Topology: "eagle", Seed: seed},
		Benchmarks: []string{"bv-4"},
		Mappings:   2,
	}
}

// pollMgr polls the manager until the job reaches want (fatal on a
// different terminal state).
func pollMgr(t *testing.T, m *server.Manager, id string, want server.State) server.JobView {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for {
		view, err := m.Job(id)
		if err != nil {
			t.Fatalf("poll %s: %v", id, err)
		}
		if view.State == want {
			return view
		}
		if view.State != want && (view.State == server.StateDone ||
			view.State == server.StateFailed || view.State == server.StateCancelled) {
			t.Fatalf("job %s reached %s (%s), want %s", id, view.State, view.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, view.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// callAs is call with a client identity header, for quota tests.
func callAs(t *testing.T, client, method, url, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Client-ID", client)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestDurableRestartServesResultAndDedup restarts the manager on the same
// journal directory after a job finishes: the second process serves the
// result it never computed, and an identical resubmit is a cache hit on the
// recovered job instead of a re-run.
func TestDurableRestartServesResultAndDedup(t *testing.T) {
	dir := t.TempDir()
	open := func() *server.Manager {
		t.Helper()
		js, err := journal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return server.NewManager(server.Config{Workers: 1, Store: js})
	}

	m1 := open()
	view, cached, err := m1.Submit(fastRequest(70))
	if err != nil || cached {
		t.Fatalf("submit: cached=%v err=%v", cached, err)
	}
	pollMgr(t, m1, view.ID, server.StateDone)
	raw1, err := m1.ResultJSON(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m1.Shutdown(ctx); err != nil {
		t.Fatalf("clean shutdown: %v", err)
	}

	m2 := open()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = m2.Shutdown(ctx)
	}()
	got, err := m2.Job(view.ID)
	if err != nil {
		t.Fatalf("recovered job missing: %v", err)
	}
	if got.State != server.StateDone || got.Attempts != 1 {
		t.Fatalf("recovered job: state=%s attempts=%d, want done/1", got.State, got.Attempts)
	}
	raw2, err := m2.ResultJSON(view.ID)
	if err != nil {
		t.Fatalf("recovered result: %v", err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("recovered result JSON differs from the one computed before restart")
	}
	dup, cached, err := m2.Submit(fastRequest(70))
	if err != nil {
		t.Fatal(err)
	}
	if !cached || dup.ID != view.ID {
		t.Fatalf("resubmit after restart: cached=%v id=%s, want cache hit on %s", cached, dup.ID, view.ID)
	}
}

// TestForcedDrainFlushesInFlight pins the drain satellite: when the
// shutdown budget expires with a job mid-run, the job is flushed back to
// the durable store as queued (not cancelled, not charged a retry), and the
// next boot re-claims and runs it.
func TestForcedDrainFlushesInFlight(t *testing.T) {
	dir := t.TempDir()
	js, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1 := server.NewManager(server.Config{Workers: 1, Store: js})
	view, _, err := m1.Submit(slowRequest(71))
	if err != nil {
		t.Fatal(err)
	}
	pollMgr(t, m1, view.ID, server.StateRunning)

	expired, cancel := context.WithCancel(context.Background())
	cancel() // zero budget: force the drain path immediately
	if err := m1.Shutdown(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("forced shutdown returned %v, want context.Canceled", err)
	}

	js2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := js2.LoadJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].State != server.StateQueued || recs[0].Attempts != 0 {
		t.Fatalf("flushed record %+v, want state=queued attempts=0", recs)
	}

	m2 := server.NewManager(server.Config{Workers: 1, Store: js2})
	defer func() {
		forced, cancel := context.WithCancel(context.Background())
		cancel()
		_ = m2.Shutdown(forced)
	}()
	if got := m2.Stats().Recovered; got != 1 {
		t.Fatalf("Stats.Recovered = %d, want 1", got)
	}
	// The recovered job is re-claimed by the new process's worker.
	if got := pollMgr(t, m2, view.ID, server.StateRunning); got.Attempts != 1 {
		t.Fatalf("re-claimed job attempts = %d, want 1", got.Attempts)
	}
}

// TestQuotaPerClient exercises per-client backpressure: the third live job
// from one client is a 429 quota_exceeded with Retry-After, while another
// client is unaffected.
func TestQuotaPerClient(t *testing.T) {
	ts := newTS(t, server.Config{Workers: 1, QueueDepth: 8, QuotaPerClient: 2})
	submit := func(client string, seed int64) (int, server.SubmitResponse) {
		t.Helper()
		var sub server.SubmitResponse
		code := callAs(t, client, http.MethodPost, ts.URL+"/v1/plans", slowBody(seed), &sub)
		return code, sub
	}
	var ids []string
	for seed := int64(80); seed < 82; seed++ {
		code, sub := submit("alice", seed)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d as alice: status %d", seed, code)
		}
		ids = append(ids, sub.Job.ID)
	}

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/plans", strings.NewReader(slowBody(82)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Client-ID", "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var denial struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&denial); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || denial.Code != "quota_exceeded" {
		t.Fatalf("third live job: status %d code %q, want 429 quota_exceeded", resp.StatusCode, denial.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}

	// Another client's identical quota is untouched.
	code, sub := submit("bob", 82)
	if code != http.StatusAccepted {
		t.Fatalf("submit as bob: status %d, want 202", code)
	}
	ids = append(ids, sub.Job.ID)

	// A finished job stops counting: cancel one of alice's and resubmit.
	if code := call(t, http.MethodDelete, ts.URL+"/v1/jobs/"+ids[0], "", nil); code != http.StatusOK {
		t.Fatalf("cancel status %d", code)
	}
	pollJob(t, ts.URL, ids[0], server.StateCancelled)
	code, sub = submit("alice", 83)
	if code != http.StatusAccepted {
		t.Fatalf("submit after freeing quota: status %d, want 202", code)
	}
	ids = append(ids, sub.Job.ID)

	for _, id := range ids[1:] {
		_ = call(t, http.MethodDelete, ts.URL+"/v1/jobs/"+id, "", nil)
	}
}

// TestJobsListPagination covers the operator list endpoint: submission
// order, page tokens, the status filter, and the 400 on a bogus filter.
func TestJobsListPagination(t *testing.T) {
	ts := newTS(t, server.Config{Workers: 2})
	var want []string
	for seed := int64(90); seed < 95; seed++ {
		var sub server.SubmitResponse
		if code := call(t, http.MethodPost, ts.URL+"/v1/plans", fastBody(seed), &sub); code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", seed, code)
		}
		want = append(want, sub.Job.ID)
	}
	for _, id := range want {
		pollJob(t, ts.URL, id, server.StateDone)
	}

	var got []string
	token := ""
	pages := 0
	for {
		url := ts.URL + "/v1/jobs?limit=2"
		if token != "" {
			url += "&page_token=" + token
		}
		var page server.JobsResponse
		if code := call(t, http.MethodGet, url, "", &page); code != http.StatusOK {
			t.Fatalf("list page %d: status %d", pages, code)
		}
		if len(page.Jobs) > 2 {
			t.Fatalf("page %d has %d jobs, limit was 2", pages, len(page.Jobs))
		}
		for _, v := range page.Jobs {
			got = append(got, v.ID)
		}
		pages++
		if page.NextPageToken == "" {
			break
		}
		token = page.NextPageToken
	}
	if pages != 3 {
		t.Fatalf("5 jobs at limit=2 took %d pages, want 3", pages)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("paged list %v != submission order %v", got, want)
	}

	var done server.JobsResponse
	if code := call(t, http.MethodGet, ts.URL+"/v1/jobs?status=done", "", &done); code != http.StatusOK {
		t.Fatalf("status filter: %d", code)
	}
	if len(done.Jobs) != 5 {
		t.Fatalf("status=done returned %d jobs, want 5", len(done.Jobs))
	}
	var running server.JobsResponse
	if code := call(t, http.MethodGet, ts.URL+"/v1/jobs?status=running", "", &running); code != http.StatusOK {
		t.Fatalf("status filter: %d", code)
	}
	if len(running.Jobs) != 0 {
		t.Fatalf("status=running returned %d jobs, want 0", len(running.Jobs))
	}
	var bad struct {
		Code string `json:"code"`
	}
	if code := call(t, http.MethodGet, ts.URL+"/v1/jobs?status=bogus", "", &bad); code != http.StatusBadRequest || bad.Code != "invalid_argument" {
		t.Fatalf("bogus status filter: %d %q, want 400 invalid_argument", code, bad.Code)
	}
}

// TestRecoveryRetryBudget seeds the store with a job that a crash left
// running and boots a manager on it: recovery re-runs the job while its
// persisted attempts are within MaxRetries and fails it, unclaimed, with
// retries_exhausted once they exceed it. MaxRetries -1 allows no re-run.
func TestRecoveryRetryBudget(t *testing.T) {
	cases := []struct {
		name       string
		maxRetries int
		attempts   int
		want       server.State
	}{
		{"over budget", 1, 2, server.StateFailed},
		{"at budget", 1, 1, server.StateDone},
		{"no retries", -1, 1, server.StateFailed},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := fastRequest(int64(300 + i))
			opts, err := req.Options.Normalized()
			if err != nil {
				t.Fatal(err)
			}
			req.Options = opts
			var logs bytes.Buffer
			cfg := storeCfg(t, server.Config{
				Workers: 1, MaxRetries: tc.maxRetries,
				Logger: slog.New(slog.NewTextHandler(&logs, nil)),
			})
			if cfg.Store == nil {
				cfg.Store = server.NewMemoryStore()
			}
			crashed := server.JobRecord{
				ID: "job-1", Seq: 1, Request: req, State: server.StateRunning,
				Attempts: tc.attempts, Created: time.Now(), Started: time.Now(),
			}
			if err := cfg.Store.PutJob(crashed); err != nil {
				t.Fatal(err)
			}

			srv := server.New(cfg)
			// Recovery logs inside New. A failed job leaves the worker idle,
			// so nothing else writes to logs while it is read here.
			var bootLog string
			if tc.want == server.StateFailed {
				bootLog = logs.String()
			}
			ts := httptest.NewServer(srv.Handler())
			defer func() {
				ts.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				_ = srv.Shutdown(ctx)
			}()
			m := srv.Manager()
			got := pollMgr(t, m, crashed.ID, tc.want)
			evs, _, _, err := m.Events(crashed.ID, 0)
			if err != nil {
				t.Fatal(err)
			}
			claims := 0
			for _, ev := range evs {
				if ev.Type == server.EventState && ev.State == server.StateRunning {
					claims++
					if ev.Attempt != tc.attempts+1 {
						t.Errorf("re-run claimed as attempt %d, want %d", ev.Attempt, tc.attempts+1)
					}
				}
			}

			if tc.want == server.StateDone {
				if got.Attempts != tc.attempts+1 || claims != 1 {
					t.Fatalf("re-run job: attempts=%d claims=%d, want %d and 1", got.Attempts, claims, tc.attempts+1)
				}
				if n := m.Stats().Recovered; n != 1 {
					t.Fatalf("Stats.Recovered = %d, want 1", n)
				}
				return
			}
			if got.Attempts != tc.attempts || claims != 0 {
				t.Fatalf("over-budget job: attempts=%d claims=%d, want %d and 0 (never claimed)", got.Attempts, claims, tc.attempts)
			}
			if n := m.Stats().Recovered; n != 0 {
				t.Fatalf("Stats.Recovered = %d, want 0", n)
			}
			want := fmt.Sprintf(`level=WARN msg="recovered job over retry budget" job=%s attempts=%d`, crashed.ID, tc.attempts)
			if !strings.Contains(bootLog, want) {
				t.Fatalf("boot log does not name the over-budget job:\n%s\nwant a line with %s", bootLog, want)
			}
			var body struct {
				Code string `json:"code"`
			}
			code := call(t, http.MethodGet, ts.URL+"/v1/jobs/"+crashed.ID+"/result", "", &body)
			if code != http.StatusInternalServerError || body.Code != "retries_exhausted" {
				t.Fatalf("result of over-budget job: status %d code %q, want 500 retries_exhausted", code, body.Code)
			}
		})
	}
}
