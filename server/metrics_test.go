package server_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"qplacer/server"
	"qplacer/server/journal"
)

// newObsTS is newTS plus access to the manager, for tests that cross-check
// the HTTP metrics surface against the registry.
func newObsTS(t *testing.T, cfg server.Config) (*httptest.Server, *server.Manager) {
	t.Helper()
	srv := server.New(storeCfg(t, cfg))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return ts, srv.Manager()
}

// parseProm is a minimal Prometheus text-format scanner: it maps every
// sample series (name plus label set, verbatim) to its value and fails the
// test on any line that is neither a comment nor a well-formed sample.
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		if _, dup := samples[line[:i]]; dup {
			t.Fatalf("duplicate series %q", line[:i])
		}
		samples[line[:i]] = v
	}
	return samples
}

// scrapeProm fetches /metrics as a Prometheus scraper would and parses it.
func scrapeProm(t *testing.T, base string) (map[string]float64, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prometheus scrape status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseProm(t, string(body)), resp.Header.Get("Content-Type")
}

// TestPrometheusExposition walks a job lifecycle and asserts the Prometheus
// view tracks it: counters start at zero, move with the lifecycle, and never
// decrease.
func TestPrometheusExposition(t *testing.T) {
	ts, _ := newObsTS(t, server.Config{Workers: 1})

	before, ct := scrapeProm(t, ts.URL)
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("prometheus Content-Type %q", ct)
	}
	for _, name := range []string{
		"qplacerd_jobs_submitted_total", "qplacerd_jobs_done_total",
		"qplacerd_jobs_failed_total", "qplacerd_queue_depth",
		"qplacerd_jobs_running", "qplacerd_sse_subscribers",
		"qplacerd_engine_plan_cache_hits_total",
	} {
		if v, ok := before[name]; !ok || v != 0 {
			t.Fatalf("pre-job %s = %v (present %v), want 0", name, v, ok)
		}
	}

	var sub server.SubmitResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/plans", fastBody(310), &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	pollJob(t, ts.URL, sub.Job.ID, server.StateDone)
	// Duplicate submit: cache hit, no new job.
	if code := call(t, http.MethodPost, ts.URL+"/v1/plans", fastBody(310), nil); code != http.StatusOK {
		t.Fatalf("dup submit status %d", code)
	}

	after, _ := scrapeProm(t, ts.URL)
	want := map[string]float64{
		"qplacerd_jobs_submitted_total":           1,
		"qplacerd_jobs_done_total":                1,
		"qplacerd_jobs_failed_total":              0,
		"qplacerd_cache_hits_total":               1,
		"qplacerd_queue_depth":                    0,
		"qplacerd_jobs_running":                   0,
		"qplacerd_engine_plan_cache_misses_total": 1,
	}
	for name, v := range want {
		if after[name] != v {
			t.Errorf("%s = %v, want %v", name, after[name], v)
		}
	}
	// Monotonicity: no counter moved backwards across the lifecycle.
	for series, v := range before {
		if strings.Contains(series, "_total") && after[series] < v {
			t.Errorf("counter %s went backwards: %v -> %v", series, v, after[series])
		}
	}
	// The plan latency histogram saw exactly the one successful plan.
	histCount := 0.0
	for series, v := range after {
		if strings.HasPrefix(series, "qplacerd_plan_seconds_count{") {
			histCount += v
			if !strings.Contains(series, `topology="grid"`) {
				t.Errorf("plan histogram labels wrong: %s", series)
			}
		}
	}
	if histCount != 1 {
		t.Errorf("qplacerd_plan_seconds count = %v, want 1", histCount)
	}
	// HTTP request counters labeled the submit route with its pattern.
	found := false
	for series := range after {
		if strings.HasPrefix(series, "qplacerd_http_requests_total{") &&
			strings.Contains(series, "POST /v1/plans") {
			found = true
		}
	}
	if !found {
		t.Error("no qplacerd_http_requests_total series for POST /v1/plans")
	}
}

// TestMetricNamesLint asserts every exposed series belongs to a registered
// family — the same check CI runs against a live daemon, so a metric that is
// exposed but never registered (or renamed in one place only) fails here.
func TestMetricNamesLint(t *testing.T) {
	ts, mgr := newObsTS(t, server.Config{Workers: 1})
	var sub server.SubmitResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/plans", fastBody(311), &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	pollJob(t, ts.URL, sub.Job.ID, server.StateDone)

	registered := map[string]bool{}
	for _, n := range mgr.MetricNames() {
		registered[n] = true
	}
	samples, _ := scrapeProm(t, ts.URL)
	for series := range samples {
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if registered[name] {
			continue
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base = strings.TrimSuffix(base, suf)
		}
		if !registered[base] {
			t.Errorf("series %q has no registered family", series)
		}
	}
	if len(samples) == 0 {
		t.Fatal("empty exposition")
	}
}

// TestRequestIDPropagation covers the correlation path end to end: a
// client-supplied X-Request-ID is echoed on the response and lands in the
// job record; a request without one gets a generated ID.
func TestRequestIDPropagation(t *testing.T) {
	ts, _ := newObsTS(t, server.Config{Workers: 1})

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/plans", strings.NewReader(fastBody(312)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "trace-me-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "trace-me-42" {
		t.Fatalf("response X-Request-ID = %q, want echo", got)
	}
	var sub server.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	if sub.Job.Request.RequestID != "trace-me-42" {
		t.Fatalf("job record request_id = %q", sub.Job.Request.RequestID)
	}
	// The ID survives a later poll of the job.
	var view server.JobView
	if code := call(t, http.MethodGet, ts.URL+"/v1/jobs/"+sub.Job.ID, "", &view); code != http.StatusOK {
		t.Fatalf("poll status %d", code)
	}
	if view.Request.RequestID != "trace-me-42" {
		t.Fatalf("polled request_id = %q", view.Request.RequestID)
	}

	// No header: one is generated (16 hex chars) and echoed.
	resp2, err := http.Post(ts.URL+"/v1/jobs-nope", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	gen := resp2.Header.Get("X-Request-ID")
	if len(gen) != 16 {
		t.Fatalf("generated X-Request-ID = %q, want 16 hex chars", gen)
	}
	if _, err := strconv.ParseUint(gen, 16, 64); err != nil {
		t.Fatalf("generated X-Request-ID %q not hex: %v", gen, err)
	}
}

// TestSSEKeepaliveSeq pins the keepalive format: an idle stream (here, a job
// parked behind a busy worker) emits comments advertising the job's latest
// event seq.
func TestSSEKeepaliveSeq(t *testing.T) {
	cfg := server.ConfigWithKeepalive(server.Config{Workers: 1}, 50*time.Millisecond)
	ts, _ := newObsTS(t, cfg)

	// Occupy the only worker, then park a second job in the queue: its
	// stream replays the queued event and then idles.
	var slow, parked server.SubmitResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/plans", slowBody(313), &slow); code != http.StatusAccepted {
		t.Fatalf("slow submit status %d", code)
	}
	if code := call(t, http.MethodPost, ts.URL+"/v1/plans", fastBody(314), &parked); code != http.StatusAccepted {
		t.Fatalf("parked submit status %d", code)
	}

	_, br := openStream(t, ts.URL, parked.Job.ID, "")
	deadline := time.After(10 * time.Second)
	lines := make(chan string)
	go func() {
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				close(lines)
				return
			}
			lines <- strings.TrimRight(line, "\n")
		}
	}()
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("stream closed before any keepalive")
			}
			if !strings.HasPrefix(line, ": keepalive") {
				continue
			}
			rest := strings.TrimPrefix(line, ": keepalive seq=")
			seq, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				t.Fatalf("keepalive line %q: %v", line, err)
			}
			if seq < 1 {
				t.Fatalf("keepalive seq = %d, want >= 1 (queued event)", seq)
			}
			// Unpark the worker so cleanup does not wait out the slow job.
			call(t, http.MethodDelete, ts.URL+"/v1/jobs/"+slow.Job.ID, "", nil)
			return
		case <-deadline:
			t.Fatal("no keepalive within 10s at a 50ms interval")
		}
	}
}

// TestDoneEventCarriesTimings asserts the terminal SSE event of a finished
// job includes the plan's span breakdown.
func TestDoneEventCarriesTimings(t *testing.T) {
	ts, _ := newObsTS(t, server.Config{Workers: 1})
	var sub server.SubmitResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/plans", fastBody(315), &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	pollJob(t, ts.URL, sub.Job.ID, server.StateDone)
	_, br := openStream(t, ts.URL, sub.Job.ID, "")
	frames := drainStream(t, br)
	if len(frames) == 0 {
		t.Fatal("no frames replayed")
	}
	last := frames[len(frames)-1].Event
	if last.State != server.StateDone {
		t.Fatalf("last frame state %q, want done", last.State)
	}
	if last.Timings == nil || last.Timings.Name != "plan" {
		t.Fatalf("done event timings = %+v, want plan span tree", last.Timings)
	}
	if last.Timings.Find("place") == nil {
		t.Fatal("done event timings missing place child")
	}
}

// TestMetricsScrapeUnderLoad hammers both /metrics formats while jobs run
// concurrently — the registry's race test at the service level (run with
// -race in CI).
func TestMetricsScrapeUnderLoad(t *testing.T) {
	ts, _ := newObsTS(t, server.Config{Workers: 2})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			var sub server.SubmitResponse
			if code := call(t, http.MethodPost, ts.URL+"/v1/plans",
				fastBody(seed), &sub); code != http.StatusAccepted && code != http.StatusOK {
				t.Errorf("submit status %d", code)
				return
			}
			pollJob(t, ts.URL, sub.Job.ID, server.StateDone)
		}(int64(320 + i))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			scrapeProm(t, ts.URL)
		}
	}()
	wg.Wait()
	samples, _ := scrapeProm(t, ts.URL)
	if got := samples["qplacerd_jobs_done_total"]; got != 4 {
		t.Fatalf("done_total = %v, want 4", got)
	}
}

// TestHealthzBuildInfo asserts /healthz now reports how the binary was
// built.
func TestHealthzBuildInfo(t *testing.T) {
	ts, _ := newObsTS(t, server.Config{Workers: 1})
	var health struct {
		Status string `json:"status"`
		Build  struct {
			GoVersion string `json:"go_version"`
		} `json:"build"`
	}
	if code := call(t, http.MethodGet, ts.URL+"/healthz", "", &health); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if health.Status != "ok" || health.Build.GoVersion == "" {
		t.Fatalf("healthz: %+v", health)
	}
}

// TestJournalFsyncObserver covers the store-side hook directly: every
// durable put reports its fsync latency.
func TestJournalFsyncObserver(t *testing.T) {
	js, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer js.Close()
	var count int
	js.SetFsyncObserver(func(d time.Duration) {
		if d < 0 {
			t.Errorf("negative fsync duration %v", d)
		}
		count++
	})
	if err := js.PutJob(server.JobRecord{ID: "job-1", Seq: 1, State: server.StateQueued}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("fsync observations after PutJob = %d, want 1", count)
	}
	if err := js.DeleteJob("job-1"); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("fsync observations after DeleteJob = %d, want 2", count)
	}
}

// TestJournalFsyncHistogramWired asserts the manager connects a journal
// store to the qplacerd_journal_fsync_seconds histogram.
func TestJournalFsyncHistogramWired(t *testing.T) {
	js, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := newObsTS(t, server.Config{Workers: 1, Store: js})
	var sub server.SubmitResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/plans", fastBody(330), &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	pollJob(t, ts.URL, sub.Job.ID, server.StateDone)
	samples, _ := scrapeProm(t, ts.URL)
	if got := samples["qplacerd_journal_fsync_seconds_count"]; got < 2 {
		t.Fatalf("fsync count = %v, want >= 2 (submit + done puts)", got)
	}
}
