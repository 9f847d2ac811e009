package server

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"qplacer"
)

// FuzzEventJSON holds appendEventJSON to json.Marshal: for any event, the
// same bytes, and an error exactly when json.Marshal gives one. The seed
// corpus under testdata/fuzz/FuzzEventJSON covers the fast path's edges:
// years outside [0,9999], zone offsets with seconds or of a day, strings
// with escapes, HTML characters, invalid UTF-8 and U+2028, an empty
// backend, negative iterations, non-finite, signed-zero, subnormal and
// exponent-form objectives, and state and terminal events.
func FuzzEventJSON(f *testing.F) {
	prefix := []byte("data: ")
	f.Fuzz(func(t *testing.T, seq uint64, sec, nsec int64, offset int,
		typ, state string, attempt int, progress bool, stage, backend string,
		iteration int, objective float64, errMsg string, timings bool) {
		ev := Event{
			Seq:     seq,
			Time:    time.Unix(sec, nsec).In(time.FixedZone("", offset)),
			Type:    typ,
			State:   State(state),
			Attempt: attempt,
			Error:   errMsg,
		}
		if progress {
			ev.Progress = &ProgressView{Stage: stage, Backend: backend, Iteration: iteration, Objective: objective}
		}
		if timings {
			ev.Timings = &qplacer.SpanTiming{Name: stage, Count: int64(iteration), WallMS: objective}
		}
		want, wantErr := json.Marshal(ev)
		got, err := appendEventJSON(append([]byte(nil), prefix...), &ev)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%+v: appendEventJSON error %v, json.Marshal error %v", ev, err, wantErr)
		}
		if !bytes.HasPrefix(got, prefix) {
			t.Fatalf("%+v: the bytes before the event changed: %q", ev, got)
		}
		if err != nil {
			if len(got) != len(prefix) {
				t.Fatalf("%+v: failed but appended %q", ev, got[len(prefix):])
			}
			return
		}
		if !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("%+v:\nappendEventJSON %s\njson.Marshal    %s", ev, got[len(prefix):], want)
		}
	})
}

// TestAppendEventJSONDoesNotAllocate pins the fast path: a progress event
// appended into a buffer with room allocates nothing.
func TestAppendEventJSONDoesNotAllocate(t *testing.T) {
	ev := Event{
		Seq:  42,
		Time: time.Date(2026, 10, 19, 12, 45, 47, 123456789, time.UTC),
		Type: EventProgress,
		Progress: &ProgressView{
			Stage: string(qplacer.StagePlace), Backend: "nesterov", Iteration: 39, Objective: 1234.5678901234,
		},
	}
	buf := make([]byte, 0, 512)
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		buf, err = appendEventJSON(buf[:0], &ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := json.Marshal(ev); !bytes.Equal(buf, want) {
		t.Fatalf("appendEventJSON %s, json.Marshal %s", buf, want)
	}
	if allocs != 0 {
		t.Fatalf("appendEventJSON allocates %v times per progress event, want 0", allocs)
	}
}

// TestProgressViewEncodesNonFiniteObjective checks the observer's mapping:
// a NaN or infinite objective is reported as 0, so the progress event
// encodes and a durable store can persist it; finite objectives, signed
// zero included, pass through bit for bit.
func TestProgressViewEncodesNonFiniteObjective(t *testing.T) {
	for _, c := range []struct{ in, want float64 }{
		{math.NaN(), 0}, {math.Inf(1), 0}, {math.Inf(-1), 0},
		{0.213, 0.213}, {math.Copysign(0, -1), math.Copysign(0, -1)}, {-math.MaxFloat64, -math.MaxFloat64},
	} {
		pv := progressView(qplacer.Progress{Stage: qplacer.StagePlace, Backend: "nesterov", Iteration: 7, Objective: c.in})
		if math.Float64bits(pv.Objective) != math.Float64bits(c.want) || pv.Stage != "place" || pv.Backend != "nesterov" || pv.Iteration != 7 {
			t.Fatalf("progressView(objective %v) = %+v, want objective %v", c.in, pv, c.want)
		}
		if _, err := json.Marshal(Event{Type: EventProgress, Progress: &pv}); err != nil {
			t.Fatalf("objective %v: the event does not encode: %v", c.in, err)
		}
	}
}
