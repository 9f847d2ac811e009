package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"qplacer/server"
)

// TestEndToEndDaemon exercises the acceptance path against a real TCP
// listener on an ephemeral port: submit a small grid job over HTTP, poll it
// to completion, fetch the JSON result, cancel a long-running job mid-run,
// and observe a repeated identical submit served from the result cache —
// then shut the daemon down gracefully.
func TestEndToEndDaemon(t *testing.T) {
	srv := server.New(server.Config{Workers: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// Liveness first: the daemon answers before any job exists.
	var health struct {
		Status string `json:"status"`
	}
	if code := call(t, http.MethodGet, base+"/healthz", "", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz: %d %+v", code, health)
	}

	// Submit a small grid plan job and poll it to completion.
	var sub server.SubmitResponse
	if code := call(t, http.MethodPost, base+"/v1/plans", fastBody(100), &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	pollJob(t, base, sub.Job.ID, server.StateDone)

	var doc resultDoc
	if code := call(t, http.MethodGet, base+"/v1/jobs/"+sub.Job.ID+"/result", "", &doc); code != http.StatusOK {
		t.Fatalf("result status %d, want 200", code)
	}
	if doc.Plan.Device.Name != "grid" || len(doc.Plan.Placement) == 0 {
		t.Fatalf("result missing layout: %+v", doc.Plan)
	}
	if doc.Batch == nil || len(doc.Batch.Results) != 1 ||
		doc.Batch.Results[0].MeanFidelity <= 0 || doc.Batch.Results[0].MeanFidelity > 1 {
		t.Fatalf("fidelity fields not populated: %+v", doc.Batch)
	}

	// Cancel a second, long-running job mid-run and observe it report so.
	var slow server.SubmitResponse
	if code := call(t, http.MethodPost, base+"/v1/plans", slowBody(101), &slow); code != http.StatusAccepted {
		t.Fatalf("slow submit status %d", code)
	}
	pollJob(t, base, slow.Job.ID, server.StateRunning)
	if code := call(t, http.MethodDelete, base+"/v1/jobs/"+slow.Job.ID, "", nil); code != http.StatusOK {
		t.Fatalf("cancel status %d", code)
	}
	pollJob(t, base, slow.Job.ID, server.StateCancelled)

	// A repeated identical submit is a cache hit: same job, no re-run.
	var dup server.SubmitResponse
	if code := call(t, http.MethodPost, base+"/v1/plans", fastBody(100), &dup); code != http.StatusOK {
		t.Fatalf("duplicate submit status %d, want 200", code)
	}
	if !dup.Cached || dup.Job.ID != sub.Job.ID {
		t.Fatalf("duplicate submit not cached: %+v", dup)
	}
	samples, _ := scrapeProm(t, base)
	if samples["qplacerd_cache_hits_total"] != 1 || samples["qplacerd_jobs_done_total"] != 1 ||
		samples["qplacerd_jobs_cancelled_total"] != 1 {
		t.Fatalf("daemon counters: cache hits %v, done %v, cancelled %v", samples["qplacerd_cache_hits_total"],
			samples["qplacerd_jobs_done_total"], samples["qplacerd_jobs_cancelled_total"])
	}

	// Graceful shutdown: Serve unwinds with ErrServerClosed, jobs drained.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			t.Fatalf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not unwind after Shutdown")
	}
}

// startDaemon launches a qplacerd subprocess on an ephemeral port and
// returns the process plus its base URL, parsed from the startup log line.
func startDaemon(t *testing.T, bin, dataDir string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir, "-workers", "1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrc <- addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrc:
		return cmd, "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not report a listen address")
		return nil, ""
	}
}

// stripVolatile removes the wall-clock fields from a decoded result
// document; everything that remains is deterministic for a given request.
func stripVolatile(doc map[string]any) {
	if plan, ok := doc["plan"].(map[string]any); ok {
		delete(plan, "place_runtime_ms")
		delete(plan, "avg_iter_ms")
		delete(plan, "timings") // span wall/cpu times differ run to run
	}
	if batch, ok := doc["batch"].(map[string]any); ok {
		delete(batch, "elapsed_ns")
	}
}

// TestCrashRecoveryE2E is the acceptance test for the durable subsystem:
// SIGKILL a real qplacerd mid-placement, restart it on the same -data-dir,
// and require the recovered daemon to re-claim, finish, and serve a result
// identical (minus wall-clock fields) to a run that was never interrupted.
func TestCrashRecoveryE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real daemon; skipped in -short")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "qplacerd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/qplacerd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building qplacerd: %v\n%s", err, out)
	}
	dataDir := filepath.Join(tmp, "data")

	// Boot #1: submit a long eagle job and let it make real progress.
	cmd, base := startDaemon(t, bin, dataDir)
	var sub server.SubmitResponse
	if code := call(t, http.MethodPost, base+"/v1/plans", slowBody(200), &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var view server.JobView
		if code := call(t, http.MethodGet, base+"/v1/jobs/"+sub.Job.ID, "", &view); code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
		if view.State == server.StateRunning && view.Progress != nil && view.Progress.Iteration >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached iteration 3: %+v", view)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Kill it mid-run: no drain, no flush — the crash the journal exists for.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	// Boot #2 on the same data-dir: the job must come back via the list
	// endpoint, get re-claimed (a second attempt), and complete.
	_, base2 := startDaemon(t, bin, dataDir)
	var page server.JobsResponse
	if code := call(t, http.MethodGet, base2+"/v1/jobs", "", &page); code != http.StatusOK {
		t.Fatalf("list after restart: status %d", code)
	}
	if len(page.Jobs) != 1 || page.Jobs[0].ID != sub.Job.ID {
		t.Fatalf("list after restart: %+v, want just %s", page.Jobs, sub.Job.ID)
	}
	if s := page.Jobs[0].State; s != server.StateQueued && s != server.StateRunning {
		t.Fatalf("recovered job state %q, want queued or running", s)
	}
	final := pollJob(t, base2, sub.Job.ID, server.StateDone)
	if final.Attempts != 2 {
		t.Fatalf("recovered job attempts = %d, want 2 (crashed attempt + re-claim)", final.Attempts)
	}
	var recovered map[string]any
	if code := call(t, http.MethodGet, base2+"/v1/jobs/"+sub.Job.ID+"/result", "", &recovered); code != http.StatusOK {
		t.Fatalf("result after recovery: status %d", code)
	}

	// The uninterrupted reference run, in-process on a fresh manager.
	m := server.NewManager(server.Config{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = m.Shutdown(ctx)
	}()
	ref, _, err := m.Submit(slowRequest(200))
	if err != nil {
		t.Fatal(err)
	}
	pollMgr(t, m, ref.ID, server.StateDone)
	raw, err := m.ResultJSON(ref.ID)
	if err != nil {
		t.Fatal(err)
	}
	var reference map[string]any
	if err := json.Unmarshal(raw, &reference); err != nil {
		t.Fatal(err)
	}

	stripVolatile(recovered)
	stripVolatile(reference)
	if plan, ok := recovered["plan"].(map[string]any); !ok || plan["placement"] == nil {
		t.Fatalf("recovered result has no placement: %v", recovered)
	}
	if !reflect.DeepEqual(recovered, reference) {
		t.Fatal("recovered result differs from an uninterrupted run of the same request")
	}
}
