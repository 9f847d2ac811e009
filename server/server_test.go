package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"os"

	"qplacer"
	"qplacer/server"
	"qplacer/server/journal"
)

// fastBody is a placement request that completes in tens of milliseconds:
// few iterations, no legalization, one small benchmark.
func fastBody(seed int64) string {
	return fmt.Sprintf(`{"topology":"grid","seed":%d,"max_iters":5,"skip_legalize":true,"benchmarks":["bv-4"],"mappings":3}`, seed)
}

// slowBody is a full eagle run (~10s of placement): long enough to observe
// and cancel mid-flight.
func slowBody(seed int64) string {
	return fmt.Sprintf(`{"topology":"eagle","seed":%d,"benchmarks":["bv-4"],"mappings":2}`, seed)
}

func fastRequest(seed int64) server.Request {
	return server.Request{
		Options: qplacer.Options{
			Topology: "grid", Seed: seed, MaxIters: 5, SkipLegalize: true,
		},
		Benchmarks: []string{"bv-4"},
		Mappings:   2,
	}
}

// storeCfg applies the store backend selected by the QPLACER_TEST_STORE
// environment variable ("journal" = durable store on a test temp dir;
// anything else keeps the in-memory default), so CI can run the whole suite
// once per backend.
func storeCfg(t *testing.T, cfg server.Config) server.Config {
	t.Helper()
	if os.Getenv("QPLACER_TEST_STORE") == "journal" {
		js, err := journal.Open(t.TempDir())
		if err != nil {
			t.Fatalf("opening journal store: %v", err)
		}
		cfg.Store = js // closed by Manager.Shutdown
	}
	return cfg
}

// newMgr builds a manager on the env-selected store backend.
func newMgr(t *testing.T, cfg server.Config) *server.Manager {
	t.Helper()
	return server.NewManager(storeCfg(t, cfg))
}

// newTS starts a handler-level test server whose manager is drained (with a
// cancellation deadline, so stray slow jobs cannot stall the suite) at
// cleanup.
func newTS(t *testing.T, cfg server.Config) *httptest.Server {
	t.Helper()
	srv := server.New(storeCfg(t, cfg))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return ts
}

// call issues one request and decodes the JSON response into out (if
// non-nil), returning the status code.
func call(t *testing.T, method, url, body string, out any) int {
	t.Helper()
	var req *http.Request
	var err error
	if body == "" {
		req, err = http.NewRequest(method, url, nil)
	} else {
		req, err = http.NewRequest(method, url, strings.NewReader(body))
	}
	if err != nil {
		t.Fatal(err)
	}
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

// pollJob polls the status endpoint until the job reaches want or a
// different terminal state (fatal), with a generous deadline.
func pollJob(t *testing.T, base, id string, want server.State) server.JobView {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for {
		var view server.JobView
		if code := call(t, http.MethodGet, base+"/v1/jobs/"+id, "", &view); code != http.StatusOK {
			t.Fatalf("poll %s: status %d", id, code)
		}
		if view.State == want {
			return view
		}
		if view.State == server.StateDone || view.State == server.StateFailed ||
			view.State == server.StateCancelled {
			t.Fatalf("job %s reached %s (error %q), want %s", id, view.State, view.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, view.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

type resultDoc struct {
	Plan struct {
		Options qplacer.Options `json:"options"`
		Device  struct {
			Name      string `json:"name"`
			NumQubits int    `json:"num_qubits"`
		} `json:"device"`
		Placement []json.RawMessage `json:"placement"`
		NumCells  int               `json:"num_cells"`
	} `json:"plan"`
	Batch *qplacer.BatchResult `json:"batch"`
}

func TestJobLifecycle(t *testing.T) {
	ts := newTS(t, server.Config{Workers: 2})

	var sub server.SubmitResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/plans", fastBody(1), &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	if sub.Cached || sub.Job.ID == "" {
		t.Fatalf("fresh submit = %+v", sub)
	}
	if sub.Links["status"] != "/v1/jobs/"+sub.Job.ID {
		t.Fatalf("links = %v", sub.Links)
	}

	view := pollJob(t, ts.URL, sub.Job.ID, server.StateDone)
	if view.StartedAt == nil || view.FinishedAt == nil || view.Error != "" {
		t.Fatalf("done view incomplete: %+v", view)
	}

	var doc resultDoc
	if code := call(t, http.MethodGet, ts.URL+"/v1/jobs/"+sub.Job.ID+"/result", "", &doc); code != http.StatusOK {
		t.Fatalf("result status %d, want 200", code)
	}
	if doc.Plan.Device.Name != "grid" || doc.Plan.NumCells == 0 ||
		len(doc.Plan.Placement) != doc.Plan.NumCells {
		t.Fatalf("plan document degenerate: %+v", doc.Plan)
	}
	if doc.Plan.Options.Seed != 1 || doc.Plan.Options.LB != 0.3 {
		t.Fatalf("options not normalized on the wire: %+v", doc.Plan.Options)
	}
	if doc.Batch == nil || len(doc.Batch.Results) != 1 {
		t.Fatalf("batch missing: %+v", doc.Batch)
	}
	ev := doc.Batch.Results[0]
	if ev.Benchmark != "bv-4" || ev.NumMappings != 3 ||
		ev.MeanFidelity <= 0 || ev.MeanFidelity > 1 {
		t.Fatalf("fidelity fields not populated: %+v", ev)
	}
}

func TestSubmitValidation(t *testing.T) {
	ts := newTS(t, server.Config{Workers: 1})

	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"unknown topology", `{"topology":"warbler"}`, http.StatusNotFound, "unknown_topology"},
		{"unknown benchmark", `{"topology":"grid","benchmarks":["nope-3"]}`, http.StatusNotFound, "unknown_benchmark"},
		{"unknown scheme", `{"topology":"grid","scheme":"quantum"}`, http.StatusBadRequest, "unknown_scheme"},
		{"scheme as int", `{"topology":"grid","scheme":1}`, http.StatusBadRequest, "unknown_scheme"},
		{"unknown placer", `{"topology":"grid","placer":"ouija"}`, http.StatusBadRequest, "unknown_placer"},
		{"unknown legalizer", `{"topology":"grid","legalizer":"ouija"}`, http.StatusBadRequest, "unknown_legalizer"},
		{"unknown detailed placer", `{"topology":"grid","detailed_placer":"ouija"}`, http.StatusBadRequest, "unknown_detailed_placer"},
		{"negative delta_c", `{"topology":"grid","delta_c":-0.1}`, http.StatusBadRequest, "invalid_options"},
		{"negative lb", `{"topology":"grid","lb":-0.3}`, http.StatusBadRequest, "invalid_options"},
		{"tiny lb", `{"topology":"grid","lb":1e-6}`, http.StatusBadRequest, "invalid_options"},
		{"malformed JSON", `{"topology":`, http.StatusBadRequest, "bad_request"},
		{"malformed parametric name", `{"topology":"grid-0"}`, http.StatusNotFound, "unknown_topology"},
		{"out-of-series xtree", `{"topology":"xtree-21"}`, http.StatusNotFound, "unknown_topology"},
		{"grid r·c overflows int", `{"topology":"grid-3x6148914691236517206"}`, http.StatusNotFound, "unknown_topology"},
		{"octagon 8·r·c overflows int", `{"topology":"octagon-1x2305843009213693952"}`, http.StatusNotFound, "unknown_topology"},
	}
	for _, tc := range cases {
		var errResp struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		code := call(t, http.MethodPost, ts.URL+"/v1/plans", tc.body, &errResp)
		if code != tc.status || errResp.Code != tc.code {
			t.Fatalf("%s: status %d code %q, want %d %q (error %q)",
				tc.name, code, errResp.Code, tc.status, tc.code, errResp.Error)
		}
	}

	for _, url := range []string{"/v1/jobs/job-999", "/v1/jobs/job-999/result"} {
		var errResp struct {
			Code string `json:"code"`
		}
		if code := call(t, http.MethodGet, ts.URL+url, "", &errResp); code != http.StatusNotFound || errResp.Code != "unknown_job" {
			t.Fatalf("GET %s: status %d code %q, want 404 unknown_job", url, code, errResp.Code)
		}
	}
}

// TestSubmitParametricTopology pins that POST /v1/plans resolves parametric
// family names (no prior registration) end to end.
func TestSubmitParametricTopology(t *testing.T) {
	ts := newTS(t, server.Config{Workers: 1})

	body := `{"topology":"grid-9","max_iters":5,"skip_legalize":true,"benchmarks":["bv-4"],"mappings":2}`
	var sub server.SubmitResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/plans", body, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	view := pollJob(t, ts.URL, sub.Job.ID, server.StateDone)
	if view.Error != "" {
		t.Fatalf("parametric job failed: %q", view.Error)
	}
	var doc resultDoc
	if code := call(t, http.MethodGet, ts.URL+"/v1/jobs/"+sub.Job.ID+"/result", "", &doc); code != http.StatusOK {
		t.Fatalf("result status %d, want 200", code)
	}
	if doc.Plan.Device.Name != "grid-9" || doc.Plan.NumCells == 0 {
		t.Fatalf("parametric plan degenerate: %+v", doc.Plan)
	}
}

func TestDuplicateSubmitHitsResultCache(t *testing.T) {
	ts := newTS(t, server.Config{Workers: 1})

	var first server.SubmitResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/plans", fastBody(2), &first); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	pollJob(t, ts.URL, first.Job.ID, server.StateDone)

	var dup server.SubmitResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/plans", fastBody(2), &dup); code != http.StatusOK {
		t.Fatalf("duplicate submit status %d, want 200", code)
	}
	if !dup.Cached || dup.Job.ID != first.Job.ID || dup.Job.State != server.StateDone {
		t.Fatalf("duplicate not served from cache: %+v", dup)
	}

	samples, _ := scrapeProm(t, ts.URL)
	submitted, hits := samples["qplacerd_jobs_submitted_total"], samples["qplacerd_cache_hits_total"]
	if submitted != 1 || hits != 1 || samples["qplacerd_jobs_done_total"] != 1 {
		t.Fatalf("counters after duplicate: submitted %v, cache hits %v, done %v",
			submitted, hits, samples["qplacerd_jobs_done_total"])
	}
	if rate := hits / (submitted + hits); rate != 0.5 {
		t.Fatalf("cache hit rate %v, want 0.5", rate)
	}
}

func TestCancelMidRunAndResultConflicts(t *testing.T) {
	// The eagle placement runs ~10s uncancelled, but the cancel lands within
	// one iteration, so this test stays fast even under -race.
	ts := newTS(t, server.Config{Workers: 1})

	var sub server.SubmitResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/plans", slowBody(3), &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	pollJob(t, ts.URL, sub.Job.ID, server.StateRunning)

	// Result of a running job is a 409, not a hang or a 200.
	var errResp struct {
		Code string `json:"code"`
	}
	if code := call(t, http.MethodGet, ts.URL+"/v1/jobs/"+sub.Job.ID+"/result", "", &errResp); code != http.StatusConflict || errResp.Code != "not_done" {
		t.Fatalf("result while running: status %d code %q, want 409 not_done", code, errResp.Code)
	}

	if code := call(t, http.MethodDelete, ts.URL+"/v1/jobs/"+sub.Job.ID, "", nil); code != http.StatusOK {
		t.Fatalf("cancel status %d", code)
	}
	view := pollJob(t, ts.URL, sub.Job.ID, server.StateCancelled)
	if view.Error == "" {
		t.Fatalf("cancelled job should carry its error: %+v", view)
	}

	if code := call(t, http.MethodGet, ts.URL+"/v1/jobs/"+sub.Job.ID+"/result", "", &errResp); code != http.StatusConflict || errResp.Code != "cancelled" {
		t.Fatalf("result of cancelled job: status %d code %q, want 409 cancelled", code, errResp.Code)
	}
}

func TestQueueFullRejectsWith429(t *testing.T) {
	ts := newTS(t, server.Config{Workers: 1, QueueDepth: 1})

	var running server.SubmitResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/plans", slowBody(11), &running); code != http.StatusAccepted {
		t.Fatalf("first submit status %d", code)
	}
	pollJob(t, ts.URL, running.Job.ID, server.StateRunning)

	var queued server.SubmitResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/plans", slowBody(12), &queued); code != http.StatusAccepted {
		t.Fatalf("second submit status %d", code)
	}
	if queued.Job.QueuePosition == nil || *queued.Job.QueuePosition != 0 {
		t.Fatalf("queued job position = %+v, want 0", queued.Job.QueuePosition)
	}

	var errResp struct {
		Code string `json:"code"`
	}
	if code := call(t, http.MethodPost, ts.URL+"/v1/plans", slowBody(13), &errResp); code != http.StatusTooManyRequests || errResp.Code != "queue_full" {
		t.Fatalf("overflow submit: status %d code %q, want 429 queue_full", code, errResp.Code)
	}

	// Unblock cleanup quickly.
	call(t, http.MethodDelete, ts.URL+"/v1/jobs/"+queued.Job.ID, "", nil)
	call(t, http.MethodDelete, ts.URL+"/v1/jobs/"+running.Job.ID, "", nil)
	pollJob(t, ts.URL, running.Job.ID, server.StateCancelled)
}

func TestRegistriesHealthAndMetrics(t *testing.T) {
	ts := newTS(t, server.Config{})

	var topos struct {
		Topologies []string `json:"topologies"`
		Catalog    []struct {
			Name      string `json:"name"`
			Canonical string `json:"canonical"`
			Qubits    int    `json:"qubits"`
			Edges     int    `json:"edges"`
		} `json:"catalog"`
		Families []struct {
			Name     string   `json:"name"`
			Schema   string   `json:"schema"`
			Examples []string `json:"examples"`
		} `json:"families"`
	}
	if code := call(t, http.MethodGet, ts.URL+"/v1/topologies", "", &topos); code != http.StatusOK {
		t.Fatalf("topologies status %d", code)
	}
	var benches struct {
		Benchmarks []string `json:"benchmarks"`
		Catalog    []struct {
			Name   string `json:"name"`
			Qubits int    `json:"qubits"`
		} `json:"catalog"`
	}
	if code := call(t, http.MethodGet, ts.URL+"/v1/benchmarks", "", &benches); code != http.StatusOK {
		t.Fatalf("benchmarks status %d", code)
	}
	if !contains(topos.Topologies, "grid") || !contains(benches.Benchmarks, "bv-4") {
		t.Fatalf("registries missing built-ins: %v / %v", topos.Topologies, benches.Benchmarks)
	}
	// The catalog carries counts and alias cross-references for every
	// registered name, and the family schemas for parametric resolution.
	catalog := map[string]struct {
		canonical     string
		qubits, edges int
	}{}
	for _, in := range topos.Catalog {
		catalog[in.Name] = struct {
			canonical     string
			qubits, edges int
		}{in.Canonical, in.Qubits, in.Edges}
	}
	if g := catalog["grid"]; g.qubits != 25 || g.edges != 40 || g.canonical != "grid-25" {
		t.Fatalf("grid catalog entry = %+v", g)
	}
	if hb := catalog["hummingbird-65"]; hb.qubits != 65 || hb.edges != 72 {
		t.Fatalf("hummingbird-65 catalog entry = %+v", hb)
	}
	famNames := map[string]bool{}
	for _, f := range topos.Families {
		if f.Schema == "" || len(f.Examples) == 0 {
			t.Fatalf("family %q underspecified: %+v", f.Name, f)
		}
		famNames[f.Name] = true
	}
	for _, want := range []string{"grid", "octagon", "xtree", "hummingbird"} {
		if !famNames[want] {
			t.Fatalf("families missing %q: %v", want, famNames)
		}
	}
	benchQubits := map[string]int{}
	for _, b := range benches.Catalog {
		benchQubits[b.Name] = b.Qubits
	}
	if benchQubits["bv-4"] != 4 {
		t.Fatalf("bv-4 catalog qubits = %d", benchQubits["bv-4"])
	}

	var health struct {
		Status string `json:"status"`
	}
	if code := call(t, http.MethodGet, ts.URL+"/healthz", "", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz: %d %+v", code, health)
	}
	samples, _ := scrapeProm(t, ts.URL)
	if samples["qplacerd_jobs_submitted_total"] != 0 || samples["qplacerd_jobs_running"] != 0 {
		t.Fatalf("fresh server counters: submitted %v, running %v",
			samples["qplacerd_jobs_submitted_total"], samples["qplacerd_jobs_running"])
	}
}

func contains(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

func TestBackendRegistryEndpoints(t *testing.T) {
	ts := newTS(t, server.Config{})

	var placers struct {
		Placers []string `json:"placers"`
	}
	if code := call(t, http.MethodGet, ts.URL+"/v1/placers", "", &placers); code != http.StatusOK {
		t.Fatalf("placers status %d", code)
	}
	if !contains(placers.Placers, "nesterov") || !contains(placers.Placers, "anneal") {
		t.Fatalf("placers missing built-ins: %v", placers.Placers)
	}
	var legalizers struct {
		Legalizers []string `json:"legalizers"`
	}
	if code := call(t, http.MethodGet, ts.URL+"/v1/legalizers", "", &legalizers); code != http.StatusOK {
		t.Fatalf("legalizers status %d", code)
	}
	if !contains(legalizers.Legalizers, "shelf") || !contains(legalizers.Legalizers, "greedy") {
		t.Fatalf("legalizers missing built-ins: %v", legalizers.Legalizers)
	}
	var detaileds struct {
		DetailedPlacers []string `json:"detailed_placers"`
	}
	if code := call(t, http.MethodGet, ts.URL+"/v1/detailed-placers", "", &detaileds); code != http.StatusOK {
		t.Fatalf("detailed-placers status %d", code)
	}
	for _, want := range []string{"none", "mcmf", "swap"} {
		if !contains(detaileds.DetailedPlacers, want) {
			t.Fatalf("detailed placers missing %q: %v", want, detaileds.DetailedPlacers)
		}
	}
}

// TestJobProgressVisibleMidRun submits the slow eagle job and asserts the
// status endpoint exposes a live progress block — stage, backend, iteration —
// while the job runs, then cancels it.
func TestJobProgressVisibleMidRun(t *testing.T) {
	ts := newTS(t, server.Config{Workers: 1})

	var sub server.SubmitResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/plans", slowBody(41), &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	pollJob(t, ts.URL, sub.Job.ID, server.StateRunning)

	deadline := time.Now().Add(90 * time.Second)
	var view server.JobView
	for {
		if code := call(t, http.MethodGet, ts.URL+"/v1/jobs/"+sub.Job.ID, "", &view); code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
		if view.State != server.StateRunning {
			t.Fatalf("job left running state early: %+v", view)
		}
		if view.Progress != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress reported while running")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if view.Progress.Stage != "place" || view.Progress.Backend != "nesterov" ||
		view.Progress.Iteration < 1 {
		t.Fatalf("degenerate progress: %+v", view.Progress)
	}

	call(t, http.MethodDelete, ts.URL+"/v1/jobs/"+sub.Job.ID, "", nil)
	done := pollJob(t, ts.URL, sub.Job.ID, server.StateCancelled)
	if done.Progress != nil {
		t.Fatalf("terminal job still carries progress: %+v", done.Progress)
	}
}

// TestBackendSelectionKeysResultCache submits the same fast request under two
// placers: they must be distinct jobs (the result cache keys on the backend),
// and the selected backends must surface in each job's normalized options.
func TestBackendSelectionKeysResultCache(t *testing.T) {
	mgr := newMgr(t, server.Config{Workers: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
	}()

	reqA := fastRequest(51)
	reqA.Options.Placer = "nesterov"
	reqB := fastRequest(51)
	reqB.Options.Placer = "anneal"

	a, cachedA, err := mgr.Submit(reqA)
	if err != nil || cachedA {
		t.Fatalf("submit A: %+v %v %v", a, cachedA, err)
	}
	b, cachedB, err := mgr.Submit(reqB)
	if err != nil || cachedB {
		t.Fatalf("submit B: %+v %v %v", b, cachedB, err)
	}
	if a.ID == b.ID {
		t.Fatal("different placers deduplicated into one job")
	}
	if a.Request.Options.Placer != "nesterov" || b.Request.Options.Placer != "anneal" {
		t.Fatalf("backends not in normalized requests: %+v / %+v",
			a.Request.Options, b.Request.Options)
	}
	// Same backend resubmitted IS a cache hit.
	dup, cached, err := mgr.Submit(reqB)
	if err != nil || !cached || dup.ID != b.ID {
		t.Fatalf("same-backend resubmit: %+v %v %v", dup, cached, err)
	}
}

// TestManagerDefaultBackends checks the daemon-level -placer/-legalizer
// defaults flow into requests that leave the backend unset, without
// overriding explicit choices.
func TestManagerDefaultBackends(t *testing.T) {
	mgr := newMgr(t, server.Config{Workers: 1, DefaultLegalizer: "greedy", DefaultDetailedPlacer: "swap"})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
	}()

	view, _, err := mgr.Submit(fastRequest(61))
	if err != nil {
		t.Fatal(err)
	}
	if view.Request.Options.Legalizer != "greedy" {
		t.Fatalf("manager default not applied: %+v", view.Request.Options)
	}
	if view.Request.Options.DetailedPlacer != "swap" {
		t.Fatalf("manager detailed default not applied: %+v", view.Request.Options)
	}
	explicit := fastRequest(62)
	explicit.Options.Legalizer = "shelf"
	explicit.Options.DetailedPlacer = "none"
	view2, _, err := mgr.Submit(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if view2.Request.Options.Legalizer != "shelf" {
		t.Fatalf("explicit backend overridden: %+v", view2.Request.Options)
	}
	if view2.Request.Options.DetailedPlacer != "none" {
		t.Fatalf("explicit detailed backend overridden: %+v", view2.Request.Options)
	}
}

// TestManagerConcurrentSubmitStress hammers one manager with duplicate
// submits from many goroutines; under -race this is the data-race check for
// the store, the result cache, and the shared engine.
func TestManagerConcurrentSubmitStress(t *testing.T) {
	mgr := newMgr(t, server.Config{Workers: 4, QueueDepth: 16})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
	}()

	const goroutines = 8
	const perG = 5
	const distinct = 4 // seeds 1..4 -> 4 distinct normalized requests

	var wg sync.WaitGroup
	var mu sync.Mutex
	ids := map[string]bool{}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				seed := int64((g+i)%distinct + 1)
				view, _, err := mgr.Submit(fastRequest(seed))
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				ids[view.ID] = true
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if len(ids) != distinct {
		t.Fatalf("distinct jobs = %d, want %d", len(ids), distinct)
	}

	deadline := time.Now().Add(90 * time.Second)
	for {
		stats := mgr.Stats()
		if stats.Done == distinct && stats.Queued == 0 && stats.Running == 0 {
			if stats.Submitted != distinct ||
				stats.CacheHits != goroutines*perG-distinct {
				t.Fatalf("counters after stress: %+v", stats)
			}
			break
		}
		if stats.Failed > 0 || stats.Cancelled > 0 {
			t.Fatalf("stress produced failures: %+v", stats)
		}
		if time.Now().After(deadline) {
			t.Fatalf("stress did not drain: %+v", stats)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Every job is done and serves the same result on repeated fetches.
	for id := range ids {
		raw, err := mgr.ResultJSON(id)
		if err != nil {
			t.Fatalf("result %s: %v", id, err)
		}
		var doc resultDoc
		if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Plan.Placement) == 0 || doc.Batch == nil {
			t.Fatalf("result %s: %v %+v", id, err, doc)
		}
	}
}

func TestShutdownDrainsAndRefusesNewJobs(t *testing.T) {
	mgr := newMgr(t, server.Config{Workers: 1})
	view, _, err := mgr.Submit(fastRequest(21))
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Shutdown(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	done, err := mgr.Job(view.ID)
	if err != nil || done.State != server.StateDone {
		t.Fatalf("job after drain: %+v, %v", done, err)
	}
	// The drained job still serves as a cache hit...
	hit, cached, err := mgr.Submit(fastRequest(21))
	if err != nil || !cached || hit.ID != view.ID {
		t.Fatalf("cache after shutdown: %+v %v %v", hit, cached, err)
	}
	// ...but new work is refused.
	if _, _, err := mgr.Submit(fastRequest(22)); !errors.Is(err, server.ErrShuttingDown) {
		t.Fatalf("submit after shutdown err = %v, want ErrShuttingDown", err)
	}
}

func TestTTLEvictsFinishedJobs(t *testing.T) {
	mgr := newMgr(t, server.Config{Workers: 1, JobTTL: 50 * time.Millisecond})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
	}()

	view, _, err := mgr.Submit(fastRequest(31))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		v, err := mgr.Job(view.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.State == server.StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", v)
		}
		time.Sleep(5 * time.Millisecond)
	}

	time.Sleep(120 * time.Millisecond)
	if _, err := mgr.Job(view.ID); !errors.Is(err, server.ErrUnknownJob) {
		t.Fatalf("job after TTL err = %v, want ErrUnknownJob", err)
	}
	// The evicted result no longer serves cache hits; the job re-runs.
	fresh, cached, err := mgr.Submit(fastRequest(31))
	if err != nil || cached || fresh.ID == view.ID {
		t.Fatalf("resubmit after eviction: %+v %v %v", fresh, cached, err)
	}
}
