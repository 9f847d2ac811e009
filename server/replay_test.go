package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"
	"time"

	"qplacer"
	"qplacer/server"
	"qplacer/server/journal"
)

// referenceStream is the stream handleEvents wrote for a finished job's
// retained events after `after` before frames were built by append: its
// frame loop, kept verbatim over Store.EventsSince, writing into a buffer
// and stopping at the first event that does not encode.
func referenceStream(t *testing.T, st server.Store, id string, after uint64) []byte {
	t.Helper()
	evs, err := st.EventsSince(id, after)
	if err != nil {
		t.Fatal(err)
	}
	var w bytes.Buffer
	for _, ev := range evs {
		data, err := json.Marshal(ev)
		if err != nil {
			break
		}
		if _, err := fmt.Fprintf(&w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); err != nil {
			break
		}
	}
	return w.Bytes()
}

// fetchStream reads a finished job's whole event stream, optionally
// resuming after lastEventID.
func fetchStream(t *testing.T, base, id, lastEventID string) []byte {
	t.Helper()
	resp, br := openStream(t, base, id, lastEventID)
	defer resp.Body.Close()
	body, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// jobRecord returns the store's record of job id.
func jobRecord(t *testing.T, st server.Store, id string) server.JobRecord {
	t.Helper()
	recs, err := st.LoadJobs()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.ID == id {
			return rec
		}
	}
	t.Fatalf("store holds no record of %s", id)
	return server.JobRecord{}
}

// copyJob puts job id's record and retained events from src into dst.
func copyJob(t *testing.T, src, dst server.Store, id string) {
	t.Helper()
	if err := dst.PutJob(jobRecord(t, src, id)); err != nil {
		t.Fatal(err)
	}
	evs, err := src.EventsSince(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if err := dst.AppendEvent(id, ev); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSSEStreamMatchesReference holds the events endpoint to the frame loop
// it replaced, byte for byte: a finished job's full replay, a Last-Event-ID
// resume from the middle, the replay after a journal reopen, and a history
// holding a progress event that does not encode (a NaN objective), whose
// stream ends after the frames before it.
func TestSSEStreamMatchesReference(t *testing.T) {
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
	same := func(what string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs from the reference stream (%d vs %d bytes):\ngot  %.400q\nwant %.400q", what, len(got), len(want), got, want)
		}
	}

	srv, ts := serve(store)
	var sub server.SubmitResponse
	body := `{"topology":"grid","seed":95,"benchmarks":["bv-4"],"mappings":2}`
	if code := call(t, http.MethodPost, ts.URL+"/v1/plans", body, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	id := sub.Job.ID
	pollJob(t, ts.URL, id, server.StateDone)

	evs, err := store.EventsSince(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	progress := 0
	for _, ev := range evs {
		if ev.Progress != nil {
			progress++
		}
	}
	if progress < 10 || evs[len(evs)-1].Timings == nil {
		t.Fatalf("history of %d events holds %d progress events and a terminal event without timings; want real progress and a timed terminal event", len(evs), progress)
	}
	full := referenceStream(t, store, id, 0)
	same("full replay", fetchStream(t, ts.URL, id, ""), full)
	mid := evs[len(evs)/2].Seq
	same("resume from the middle", fetchStream(t, ts.URL, id, strconv.FormatUint(mid, 10)), referenceStream(t, store, id, mid))
	stop(srv, ts)

	if !durable {
		// The in-memory store is gone with its manager: carry the job into a
		// journal so the reopened path is checked on this setting too.
		js, err := journal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		copyJob(t, store, js, id)
		if err := js.Close(); err != nil {
			t.Fatal(err)
		}
	}
	js, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, ts = serve(js)
	same("replay after a journal reopen", fetchStream(t, ts.URL, id, ""), referenceStream(t, js, id, 0))
	same("reopened journal's history", referenceStream(t, js, id, 0), full)
	stop(srv, ts)

	// A NaN objective does not encode. The journal cannot log such an event
	// either, so the broken history is held in memory: the stream must end
	// after the frames before the NaN event, as the reference loop does.
	js, err = journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ms := server.NewMemoryStore()
	copyJob(t, js, ms, id)
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}
	last := evs[len(evs)-1]
	for i, obj := range []float64{math.NaN(), 1} {
		ev := server.Event{
			Seq: last.Seq + 1 + uint64(i), Time: last.Time, Type: server.EventProgress,
			Progress: &server.ProgressView{Stage: string(qplacer.StagePlace), Backend: "nesterov", Iteration: i, Objective: obj},
		}
		if err := ms.AppendEvent(id, ev); err != nil {
			t.Fatal(err)
		}
	}
	srv, ts = serve(ms)
	same("replay of a history with a NaN objective", fetchStream(t, ts.URL, id, ""), referenceStream(t, ms, id, 0))
	same("history cut at its NaN objective", referenceStream(t, ms, id, 0), full)
	same("resume before a NaN objective", fetchStream(t, ts.URL, id, strconv.FormatUint(mid, 10)), referenceStream(t, ms, id, mid))
	stop(srv, ts)
}

// discardStream is a flushable ResponseWriter that counts and drops the
// body, so BenchmarkSSEReplay times the handler and not a recorder.
type discardStream struct {
	h http.Header
	n int
}

func (d *discardStream) Header() http.Header         { return d.h }
func (d *discardStream) WriteHeader(int)             {}
func (d *discardStream) Flush()                      {}
func (d *discardStream) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// BenchmarkSSEReplay replays a finished job's 310-event history, the size
// of a falcon plan's (queued, running, 307 progress events, a done event
// with its span breakdown), through Server.Handler().
func BenchmarkSSEReplay(b *testing.B) {
	st := server.NewMemoryStore()
	const id = "job-1"
	t0 := time.Date(2026, 10, 19, 12, 0, 0, 0, time.UTC)
	rec := server.JobRecord{
		ID: id, Seq: 1, State: server.StateDone, Attempts: 1, Result: json.RawMessage(`{}`),
		Created: t0, Started: t0, Finished: t0.Add(time.Second),
	}
	if err := st.PutJob(rec); err != nil {
		b.Fatal(err)
	}
	seq := uint64(0)
	at := t0
	add := func(ev server.Event) {
		seq++
		at = at.Add(3*time.Millisecond + 217*time.Microsecond + 31*time.Nanosecond)
		ev.Seq, ev.Time = seq, at
		if err := st.AppendEvent(id, ev); err != nil {
			b.Fatal(err)
		}
	}
	add(server.Event{Type: server.EventState, State: server.StateQueued})
	add(server.Event{Type: server.EventState, State: server.StateRunning, Attempt: 1})
	for i := range 307 {
		add(server.Event{Type: server.EventProgress, Progress: &server.ProgressView{
			Stage: string(qplacer.StagePlace), Backend: "nesterov", Iteration: i,
			Objective: 48213.77 * math.Exp(-float64(i)/61) / (1 + float64(i%7)/13),
		}})
	}
	timings := &qplacer.SpanTiming{Name: "plan", Count: 1, WallMS: 812.4, CPUMS: 806.9}
	for _, stage := range []string{"place", "legalize", "detail", "metrics", "validate"} {
		timings.Children = append(timings.Children, &qplacer.SpanTiming{
			Name: stage, Count: 1, WallMS: 101.25, Notes: []string{stage + ": 0 guard fallbacks"},
		})
	}
	add(server.Event{Type: server.EventState, State: server.StateDone, Timings: timings})

	// A TTL long enough that the fixed-date history is never swept.
	srv := server.New(server.Config{Workers: 1, Store: st, JobTTL: 100 * 365 * 24 * time.Hour})
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	w := &discardStream{h: http.Header{}}
	h.ServeHTTP(w, req)
	if w.n < 310*150 {
		b.Fatalf("replay wrote %d bytes, want the 310-event history", w.n)
	}
	b.SetBytes(int64(w.n))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		clear(w.h)
		h.ServeHTTP(w, req)
	}
}
