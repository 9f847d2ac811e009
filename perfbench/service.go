package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"qplacer"
	"qplacer/internal/component"
	"qplacer/internal/place"
	"qplacer/server"
	"qplacer/server/journal"
)

const (
	// serviceClients is 1 so that at most one job is in flight: with two,
	// a repeat op waited for the CPU behind the other client's fresh plan,
	// and its latency measured how the two happened to overlap.
	serviceClients  = 1
	serviceMappings = 20
	// serviceOpsPerS is the nominal closed-loop rate; the op count is
	// --seconds × serviceOpsPerS, rounded to whole rounds of
	// serviceClients × freshEvery ops.
	serviceOpsPerS = 30
	freshEvery     = 4
	// historyJobs is the size of the journal history every set-up replays.
	historyJobs         = 48
	serviceWorkloadSeed = 0x5e41ce
)

// svcRequest is the body of POST /v1/plans.
type svcRequest struct {
	Topology       string `json:"topology"`
	Scheme         string `json:"scheme"`
	Seed           int64  `json:"seed"`
	Placer         string `json:"placer,omitempty"`
	Legalizer      string `json:"legalizer,omitempty"`
	DetailedPlacer string `json:"detailed_placer,omitempty"`
	Mappings       int    `json:"mappings"`
}

func (r svcRequest) key() string {
	return fmt.Sprintf("%s/%s/%s/seed=%d/m=%d", r.Topology, r.Scheme, r.DetailedPlacer, r.Seed, r.Mappings)
}

// tracedBackends names the timing wrappers instead of the built-ins.
func (r svcRequest) tracedBackends() svcRequest {
	r.Placer = traced(qplacer.DefaultPlacerName)
	r.Legalizer = traced(r.Legalizer)
	r.DetailedPlacer = traced(r.DetailedPlacer)
	return r
}

// svcOp is one op of a client: a fresh request, or a repeat of the client's
// earlier fresh op at index repeatOf.
type svcOp struct {
	req      svcRequest
	repeatOf int // -1 for fresh ops
}

// freshPool is the workload's fixed set of fresh requests: every mix of
// topology, scheme and detailed placer, cycled over plan seeds.
func freshPool(n int) []svcRequest {
	topos := []string{"falcon", "grid-16", "xtree-17"}
	schemes := []string{"qplacer", "classic", "human"}
	detailed := []string{"none", "mcmf"}
	combos := len(topos) * len(schemes) * len(detailed)
	out := make([]svcRequest, n)
	for i := range out {
		c := i % combos
		out[i] = svcRequest{
			Topology:       topos[c%len(topos)],
			Scheme:         schemes[c/len(topos)%len(schemes)],
			DetailedPlacer: detailed[c/(len(topos)*len(schemes))],
			Legalizer:      "greedy",
			Seed:           int64(1 + i/combos),
			Mappings:       serviceMappings,
		}
	}
	return out
}

// serviceOps deals the fixed fresh pool to the clients in the order --seed
// gives, and fills each client's sequence with repeats. Every client starts
// with a fresh op, one op in freshEvery is fresh, and every fresh request is
// resent exactly freshEvery-1 times later by the same client, which a closed
// loop has by then seen complete. So the multiset of ops, repeats included,
// is the same for every seed; only the order differs.
func serviceOps(n int, seed uint64) [][]svcOp {
	perClient := n / serviceClients
	freshPer := perClient / freshEvery
	pool := freshPool(freshPer * serviceClients)
	rng := rand.New(rand.NewPCG(seed, serviceWorkloadSeed))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	seqs := make([][]svcOp, serviceClients)
	for c := range seqs {
		mine := pool[c*freshPer : (c+1)*freshPer]
		var open []int // indices of fresh ops with repeats left
		left := map[int]int{}
		freshLeft, repeatsLeft := freshPer, freshPer*(freshEvery-1)
		for freshLeft+repeatsLeft > 0 {
			// A repeat needs an earlier fresh op with repeats left; among
			// the allowed kinds, draw in proportion to what remains.
			if len(open) == 0 || (freshLeft > 0 && rng.IntN(freshLeft+repeatsLeft) < freshLeft) {
				i := len(seqs[c])
				seqs[c] = append(seqs[c], svcOp{req: mine[freshPer-freshLeft], repeatOf: -1})
				open = append(open, i)
				left[i] = freshEvery - 1
				freshLeft--
				continue
			}
			k := rng.IntN(len(open))
			at := open[k]
			seqs[c] = append(seqs[c], svcOp{req: seqs[c][at].req, repeatOf: at})
			repeatsLeft--
			if left[at]--; left[at] == 0 {
				open = append(open[:k], open[k+1:]...)
			}
		}
	}
	return seqs
}

// svc is one running in-process qplacerd.
type svc struct {
	srv    *server.Server
	base   string
	store  *timedStore // nil when untraced
	served chan error
	// Traced only: the server's handler is served behind a timer by an
	// http.Server of the benchmark's own.
	timer *handlerTimer
	http  *http.Server
}

// startService is the service's cold start: open the journal (replaying
// its history), build the server (rebuilding the dedup cache from the
// replayed jobs) and serve until /healthz answers. It returns the total
// time and the time journal.Open took.
func startService(dir string, client *http.Client, wrap bool) (*svc, time.Duration, time.Duration, error) {
	start := time.Now()
	j, err := journal.Open(dir)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("opening journal: %w", err)
	}
	replay := time.Since(start)
	s := &svc{served: make(chan error, 1)}
	var store server.Store = j
	if wrap {
		s.store = &timedStore{inner: j}
		store = s.store
	}
	s.srv = server.New(server.Config{Store: store})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.srv.Shutdown(context.Background())
		return nil, 0, 0, err
	}
	s.base = "http://" + ln.Addr().String()
	if wrap {
		s.timer = newHandlerTimer(s.srv.Handler())
		s.http = &http.Server{Handler: s.timer}
		go func() { s.served <- s.http.Serve(ln) }()
	} else {
		go func() { s.served <- s.srv.Serve(ln) }()
	}
	resp, err := client.Get(s.base + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		s.close()
		return nil, 0, 0, err
	}
	return s, time.Since(start), replay, nil
}

// close drains the server, which closes its store, and waits for Serve to
// return. Every handler has returned when it does.
func (s *svc) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var err error
	if s.http != nil {
		err = s.http.Shutdown(ctx)
	}
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-s.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// svcRecord is one service op's measurements.
type svcRecord struct {
	opRecord
	req   svcRequest
	fresh bool
	// Traced only: server-side handler time of the op's three requests.
	submitMS, eventsMS, resultMS float64
	cached                       bool
	rejected                     bool
	body                         string // sha256 of the result document
	// Fresh ops: timestamps of the job's state events and its span tree.
	queueWaitMS, runMS float64
	timings            *qplacer.SpanTiming
	points             [][3]float64 // instance id, x, y
}

// stateEvent is the part of a state event the op reads.
type stateEvent struct {
	State   string              `json:"state"`
	Time    time.Time           `json:"time"`
	Error   string              `json:"error"`
	Timings *qplacer.SpanTiming `json:"timings"`
}

// doServiceOp runs one op: submit, follow the job's SSE stream to its
// terminal event, fetch the result. The latency covers exactly those three
// calls; checking the result happens after the clock stops. A traced op
// tags its requests with tag, so the server-side timer can attribute them.
func doServiceOp(client *http.Client, base string, op svcOp, tag string) (rec svcRecord, err error) {
	rec.key = op.req.key()
	rec.req = op.req
	rec.fresh = op.repeatOf < 0
	req := op.req
	if tag != "" {
		req = req.tracedBackends()
	}
	body, err := json.Marshal(req)
	if err != nil {
		return rec, err
	}
	start := time.Now()
	defer func() {
		if rec.latencyMS == 0 { // an error cut the op short
			rec.latencyMS = ms(time.Since(start))
		}
	}()

	resp, err := send(client, http.MethodPost, base+"/v1/plans", body, tagged(tag, "submit"))
	if err != nil {
		return rec, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return rec, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		rec.rejected = true
	}
	want := http.StatusAccepted
	if !rec.fresh {
		want = http.StatusOK
	}
	if resp.StatusCode != want {
		return rec, fmt.Errorf("submit: status %d, want %d: %s", resp.StatusCode, want, raw)
	}
	var sub struct {
		Job    struct{ ID string } `json:"job"`
		Cached bool                `json:"cached"`
	}
	if err := json.Unmarshal(raw, &sub); err != nil {
		return rec, fmt.Errorf("submit response: %w", err)
	}
	rec.cached = sub.Cached
	if sub.Cached == rec.fresh {
		return rec, fmt.Errorf("submit: cached=%v on a %s request", sub.Cached, map[bool]string{true: "fresh", false: "repeat"}[rec.fresh])
	}

	states, err := followEvents(client, base+"/v1/jobs/"+sub.Job.ID+"/events", tagged(tag, "events"))
	if err != nil {
		return rec, err
	}
	last := states[len(states)-1]
	if last.State != string(server.StateDone) {
		return rec, fmt.Errorf("job %s ended %s: %s", sub.Job.ID, last.State, last.Error)
	}
	if rec.fresh {
		var queued, running time.Time
		for _, ev := range states {
			switch ev.State {
			case string(server.StateQueued):
				queued = ev.Time
			case string(server.StateRunning):
				running = ev.Time
			}
		}
		rec.queueWaitMS = ms(running.Sub(queued))
		rec.runMS = ms(last.Time.Sub(running))
		rec.timings = last.Timings
	}

	resp, err = send(client, http.MethodGet, base+"/v1/jobs/"+sub.Job.ID+"/result", nil, tagged(tag, "result"))
	if err != nil {
		return rec, err
	}
	raw, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.latencyMS = ms(time.Since(start))
	if err != nil {
		return rec, err
	}
	if resp.StatusCode != http.StatusOK {
		return rec, fmt.Errorf("result: status %d: %s", resp.StatusCode, raw)
	}
	sum := sha256.Sum256(raw)
	rec.body = hex.EncodeToString(sum[:])
	if rec.fresh {
		return rec, checkServiceResult(raw, &rec)
	}
	return rec, nil
}

// send makes one request, with the timer tag header when tag is set.
func send(client *http.Client, method, url string, body []byte, tag string) (*http.Response, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tag != "" {
		req.Header.Set(opTagHeader, tag)
	}
	return client.Do(req)
}

// opTag names client c's op i for the handler timer.
func opTag(c, i int) string { return fmt.Sprintf("%d/%d", c, i) }

// tagged is an op's tag for one of its requests, or "" when untraced.
func tagged(tag, call string) string {
	if tag == "" {
		return ""
	}
	return tag + "/" + call
}

// followEvents reads an SSE stream to its end and returns its state events.
// Progress events are skipped without decoding.
func followEvents(client *http.Client, url, tag string) ([]stateEvent, error) {
	resp, err := send(client, http.MethodGet, url, nil, tag)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	var states []stateEvent
	r := bufio.NewReader(resp.Body)
	isState := false
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			isState = bytes.Equal(bytes.TrimSpace(line[len("event: "):]), []byte(server.EventState))
		case isState && bytes.HasPrefix(line, []byte("data: ")):
			var ev stateEvent
			if err := json.Unmarshal(line[len("data: "):], &ev); err != nil {
				return nil, fmt.Errorf("events: %w", err)
			}
			states = append(states, ev)
			isState = false
		}
	}
	if len(states) == 0 {
		return nil, fmt.Errorf("events: stream ended without a state event")
	}
	return states, nil
}

// checkServiceResult verifies a fresh op's result document — Validate
// verdict present and clean, every Table I benchmark evaluated — and records
// its quality.
func checkServiceResult(raw []byte, rec *svcRecord) error {
	var doc struct {
		Plan struct {
			Metrics *struct {
				Amer float64 `json:"amer_mm2"`
				Ph   float64 `json:"ph_percent"`
			} `json:"metrics"`
			Placement []struct {
				ID int     `json:"id"`
				X  float64 `json:"x"`
				Y  float64 `json:"y"`
			} `json:"placement"`
		} `json:"plan"`
		Batch      *qplacer.BatchResult      `json:"batch"`
		Validation *qplacer.ValidationReport `json:"validation"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("result document: %w", err)
	}
	// Every result must carry the verifier's verdict. The optimizing schemes
	// must be valid; the human baseline's hand layout overlaps on every
	// device, which the verdict reports without failing the job.
	if doc.Validation == nil {
		return fmt.Errorf("result document carries no validation report")
	}
	if rec.req.Scheme != "human" {
		if !doc.Validation.Valid {
			return fmt.Errorf("result document reports validation.valid=false (%d errors)", doc.Validation.Errors)
		}
		rec.validateErrors = doc.Validation.Errors
	}
	if doc.Plan.Metrics == nil || len(doc.Plan.Placement) == 0 {
		return fmt.Errorf("result document has no metrics or placement")
	}
	// A classic layout on a small device can score a mean fidelity of
	// exactly 0 on a benchmark that fills it.
	if err := checkBatch(doc.Batch, rec.req.Mappings, false); err != nil {
		return err
	}
	pts := make([][3]float64, len(doc.Plan.Placement))
	for i, p := range doc.Plan.Placement {
		pts[i] = [3]float64{float64(p.ID), p.X, p.Y}
	}
	rec.layout = digestPoints(pts)
	rec.amer = doc.Plan.Metrics.Amer
	rec.ph = doc.Plan.Metrics.Ph
	rec.fidelity = doc.Batch.MeanFidelity
	rec.points = pts
	return nil
}

// svcPass is one pass of every client over its op sequence.
type svcPass struct {
	phase
	recs     [][]svcRecord
	failures []string
}

func (p *svcPass) all() []svcRecord {
	var out []svcRecord
	for _, r := range p.recs {
		out = append(out, r...)
	}
	return out
}

// ops returns every op's record, or with fresh only the fresh ops'.
func (p *svcPass) ops(fresh bool) []opRecord {
	var out []opRecord
	for _, r := range p.all() {
		if r.fresh || !fresh {
			out = append(out, r.opRecord)
		}
	}
	return out
}

// servicePass runs the clients concurrently, each in a closed loop.
func servicePass(s *svc, client *http.Client, seqs [][]svcOp, trace bool) *svcPass {
	p := &svcPass{recs: make([][]svcRecord, len(seqs))}
	var mu sync.Mutex
	p.phase = measure(func() {
		var wg sync.WaitGroup
		for c, seq := range seqs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, op := range seq {
					tag := ""
					if trace {
						tag = opTag(c, i)
					}
					cpu0 := cpuSeconds()
					rec, err := doServiceOp(client, s.base, op, tag)
					rec.cpuS = cpuSeconds() - cpu0
					if err == nil && op.repeatOf >= 0 {
						if orig := p.recs[c][op.repeatOf]; !orig.failed && orig.body != rec.body {
							err = fmt.Errorf("repeat returned a different result document than the original job")
						}
					}
					if err != nil {
						rec.failed = true
						mu.Lock()
						p.failures = append(p.failures, fmt.Sprintf("client %d %s: %v", c, rec.key, err))
						mu.Unlock()
					}
					p.recs[c] = append(p.recs[c], rec)
				}
			}()
		}
		wg.Wait()
	})
	return p
}

// writeHistory fills a fresh data directory with the fixed job history
// every service set-up replays: finished jobs of every scheme on a small
// grid, submitted through the service itself.
func writeHistory(dir string, client *http.Client) error {
	s, _, _, err := startService(dir, client, false)
	if err != nil {
		return err
	}
	seqs := make([][]svcOp, serviceClients)
	schemes := []string{"qplacer", "classic", "human"}
	for i := range historyJobs {
		req := svcRequest{Topology: "grid-16", Scheme: schemes[i%3], Seed: int64(1000 + i),
			Legalizer: "greedy", DetailedPlacer: "none", Mappings: 5}
		seqs[i%serviceClients] = append(seqs[i%serviceClients], svcOp{req: req, repeatOf: -1})
	}
	p := servicePass(s, client, seqs, false)
	if err := s.close(); err != nil {
		return err
	}
	if len(p.failures) > 0 {
		return fmt.Errorf("writing history: %s", p.failures[0])
	}
	return nil
}

// serviceResult is one service pass with its set-ups.
type serviceResult struct {
	pass    *svcPass
	setups  []float64 // s
	replays []float64 // journal.Open, ms
	// Traced only: the /metrics counters before and after the pass, and
	// the journal's timing wrapper.
	before, after map[string]float64
	store         *timedStore
}

// serviceRun writes a history, times setupRepeats cold starts on it, and
// runs the op sequence on the last one.
func serviceRun(dir string, client *http.Client, seqs [][]svcOp, trace bool) (*serviceResult, error) {
	if err := writeHistory(dir, client); err != nil {
		return nil, err
	}
	res := &serviceResult{}
	var s *svc
	for i := range setupRepeats {
		var d, replay time.Duration
		var err error
		if s, d, replay, err = startService(dir, client, trace); err != nil {
			return nil, err
		}
		res.setups = append(res.setups, d.Seconds())
		res.replays = append(res.replays, ms(replay))
		if i < setupRepeats-1 {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
	}
	var err error
	if trace {
		tally.reset()
		s.store.reset()
		res.store = s.store
		res.before, err = scrapeMetrics(client, s.base)
	}
	if err == nil {
		res.pass = servicePass(s, client, seqs, trace)
		if trace {
			res.after, err = scrapeMetrics(client, s.base)
		}
	}
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if trace && res.pass != nil {
		// Read after close: every handler has returned and been timed.
		for c := range res.pass.recs {
			for i := range res.pass.recs[c] {
				r, tag := &res.pass.recs[c][i], opTag(c, i)
				r.submitMS = s.timer.get(tagged(tag, "submit"))
				r.eventsMS = s.timer.get(tagged(tag, "events"))
				r.resultMS = s.timer.get(tagged(tag, "result"))
			}
		}
	}
	return res, err
}

// scrapeMetrics reads the service's Prometheus counters.
func scrapeMetrics(client *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

func serviceOpCount(seconds float64) int {
	round := serviceClients * freshEvery
	return max(2, int(math.Round(seconds*serviceOpsPerS/float64(round)))) * round
}

func runService(cfg config) (*outcome, error) {
	n := serviceOpCount(cfg.seconds)
	seqs := serviceOps(n, cfg.seed)
	out := &outcome{metrics: map[string]float64{}, info: map[string]any{"ops": n, "clients": serviceClients}}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serviceClients}}
	defer client.CloseIdleConnections()
	tmpRoot := filepath.Join(cfg.state, "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(tmpRoot, "service-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	plainRun, err := serviceRun(filepath.Join(tmp, "plain"), client, seqs, false)
	if err != nil {
		return nil, err
	}
	plain := plainRun.pass
	if err := serviceHPWL(plain); err != nil {
		return nil, err
	}
	ops := plain.ops(false)
	out.info["input_digest"], out.info["input_set_digest"] = inputDigests(ops)
	out.info["fresh_ops"] = len(plain.ops(true))
	out.attempted, out.failed = len(ops), failedOps(ops)
	out.problems = append(out.problems, plain.failures...)
	out.quality = qualityOf(plain.ops(true))
	if !cfg.trace {
		endToEndMetrics(out, plain.phase, ops, plainRun.setups)
		return out, nil
	}

	if err := registerTraced(); err != nil {
		return nil, err
	}
	if err := layerSetupMetrics(out, []string{"falcon", "grid-16", "xtree-17"}, serviceMappings); err != nil {
		return nil, err
	}
	trRun, err := serviceRun(filepath.Join(tmp, "traced"), client, seqs, true)
	if err != nil {
		return nil, err
	}
	tr := trRun.pass
	if err := serviceHPWL(tr); err != nil {
		return nil, err
	}
	tall, all := tr.all(), plain.all()
	out.attempted += len(tall)
	out.failed += failedOps(tr.ops(false))
	out.problems = append(out.problems, tr.failures...)
	for i := range tall {
		a, b := tall[i], all[i]
		if a.fresh && !a.failed && !b.failed && a.layout != b.layout {
			out.problems = append(out.problems, fmt.Sprintf("%s: traced layout differs from the untraced one", a.key))
		}
	}

	nOps := float64(len(tall))
	placeMS, legalMS, detailMS := backendMetrics(out.metrics, tally.snapshot(), nOps)
	var submit, result, queue, run []float64
	var metricsMS, validateMS, planMS, fidelityMS, placeSpan, legalSpan float64
	var cached, rejected, vErrors float64
	var latAll, repeatLat, repeatServer, serverMS float64
	for _, r := range tall {
		submit = append(submit, r.submitMS)
		result = append(result, r.resultMS)
		handlers := r.submitMS + r.eventsMS + r.resultMS
		latAll += r.latencyMS
		serverMS += handlers
		if r.cached {
			cached++
		}
		if r.rejected {
			rejected++
		}
		if !r.fresh {
			repeatLat += r.latencyMS
			repeatServer += handlers
			continue
		}
		vErrors += float64(r.validateErrors)
		queue = append(queue, r.queueWaitMS)
		run = append(run, r.runMS)
		if r.timings != nil {
			planMS += r.timings.WallMS
			fidelityMS += r.runMS - r.timings.WallMS
			if v := r.timings.Find("metrics"); v != nil {
				metricsMS += v.WallMS
			}
			if v := r.timings.Find("validate"); v != nil {
				validateMS += v.WallMS
			}
			if r.req.Scheme != "human" { // the human baseline bypasses the backends
				placeSpan += r.timings.Find("place").WallMS
				legalSpan += r.timings.Find("legalize").WallMS
			}
		}
	}
	m := out.metrics
	m["metrics.ms_per_op"] = metricsMS / nOps
	m["validate.ms_per_op"] = validateMS / nOps
	m["validate.errors_per_op"] = vErrors / nOps
	m["fidelity.ms_per_op"] = fidelityMS / nOps
	m["fidelity.us_per_mapping"] = fidelityMS * 1000 / (float64(len(queue)) * float64(len(qplacer.Benchmarks())*serviceMappings))
	delta := func(name string) float64 { return trRun.after[name] - trRun.before[name] }
	m["engine.plan_cache_hit_ratio"] = ratio(delta("qplacerd_engine_plan_cache_hits_total"),
		delta("qplacerd_engine_plan_cache_hits_total")+delta("qplacerd_engine_plan_cache_misses_total"))
	m["engine.stage_cache_hit_ratio"] = ratio(delta("qplacerd_engine_stage_cache_hits_total"),
		delta("qplacerd_engine_stage_cache_hits_total")+delta("qplacerd_engine_stage_cache_misses_total"))
	m["engine.overhead_ms_per_op"] = (planMS - placeMS - legalMS - detailMS - metricsMS - validateMS) / nOps
	m["server.submit_ms_p50"] = median(submit)
	m["server.queue_wait_ms_p50"] = median(queue)
	m["server.run_ms_p50"] = median(run)
	m["server.result_ms_p50"] = median(result)
	m["server.dedup_hit_ratio"] = cached / nOps
	m["server.rejected_per_op"] = rejected / nOps
	store := trRun.store
	store.mu.Lock()
	m["journal.put_ms_p50"] = median(store.puts)
	m["journal.ms_per_op"] = ms(store.busy) / nOps
	m["journal.puts_per_op"] = float64(len(store.puts)) / nOps
	m["journal.appends_per_op"] = float64(store.appends) / nOps
	store.mu.Unlock()
	m["journal.replay_ms"] = median(trRun.replays)
	plainLat := sum(latencies(ops))
	m["trace.overhead_pct"] = (latAll/plainLat - 1) * 100
	// Server-side handler time of every op's three requests. On fresh ops
	// the event stream's handler waits out the job's queue wait and run,
	// which the engine layers and the evaluation split between them; the
	// rest of the latency is the client's HTTP stack and the loopback.
	m["trace.layer_sum_pct"] = serverMS / latAll * 100
	// Repeats do no engine work: their handler time is the server layer
	// plus the journal calls the handlers make.
	m["trace.server_journal_pct"] = repeatServer / repeatLat * 100
	gap := spanGap(placeMS+legalMS, placeSpan+legalSpan)
	m["trace.span_gap_pct"] = gap
	if gap > 10 {
		out.problems = append(out.problems, fmt.Sprintf("wrapper-timed place/legal differ from the engine's spans by %.1f%%", gap))
	}
	return out, nil
}

// serviceHPWL computes each fresh op's wirelength from its returned
// placement over the nets of its topology's netlist, after the pass.
func serviceHPWL(p *svcPass) error {
	templates := map[string]*component.Netlist{}
	for c := range p.recs {
		for i := range p.recs[c] {
			r := &p.recs[c][i]
			if !r.fresh || r.failed {
				continue
			}
			nl, ok := templates[r.req.Topology]
			if !ok {
				st, err := buildStages(r.req.Topology)
				if err != nil {
					return err
				}
				nl = st.nl
				templates[r.req.Topology] = nl
			}
			if len(r.points) != len(nl.Instances) {
				return fmt.Errorf("%s: %d placed instances, netlist has %d", r.key, len(r.points), len(nl.Instances))
			}
			for _, pt := range r.points {
				id := int(pt[0])
				if id < 0 || id >= len(nl.Instances) || nl.Instances[id].ID != id {
					return fmt.Errorf("%s: placed instance %d is not in the netlist", r.key, id)
				}
				nl.Instances[id].Pos.X, nl.Instances[id].Pos.Y = pt[1], pt[2]
			}
			r.hpwl = place.HPWL(nl)
			r.points = nil
		}
	}
	return nil
}
