package server

import (
	"encoding/json"
	"math"
	"strconv"
)

// appendEventJSON appends the bytes json.Marshal(ev) gives to b, and fails
// exactly when json.Marshal fails. A finished job's history is almost all
// progress events, so those are written field by field, without reflection
// or allocation, whenever every field encodes without escaping; any other
// event goes through json.Marshal. On error b is returned unchanged.
func appendEventJSON(b []byte, ev *Event) ([]byte, error) {
	p := ev.Progress
	if p == nil || ev.State != "" || ev.Attempt != 0 || ev.Error != "" || ev.Timings != nil ||
		!plainJSON(ev.Type) || !plainJSON(p.Stage) || !plainJSON(p.Backend) ||
		math.IsNaN(p.Objective) || math.IsInf(p.Objective, 0) {
		data, err := json.Marshal(ev)
		if err != nil {
			return b, err
		}
		return append(b, data...), nil
	}
	out := append(b, `{"seq":`...)
	out = strconv.AppendUint(out, ev.Seq, 10)
	out = append(out, `,"time":"`...)
	// AppendText writes the strict RFC 3339 form Time.MarshalJSON quotes,
	// and fails on the same times (years outside [0,9999], zone offsets of
	// a day or more). It returns nil on failure, hence out beside b.
	out, err := ev.Time.AppendText(out)
	if err != nil {
		return b, err
	}
	out = append(out, `","type":"`...)
	out = append(out, ev.Type...)
	out = append(out, `","progress":{"stage":"`...)
	out = append(out, p.Stage...)
	out = append(out, '"')
	if p.Backend != "" {
		out = append(out, `,"backend":"`...)
		out = append(out, p.Backend...)
		out = append(out, '"')
	}
	out = append(out, `,"iteration":`...)
	out = strconv.AppendInt(out, int64(p.Iteration), 10)
	out = append(out, `,"objective":`...)
	out = appendJSONFloat(out, p.Objective)
	return append(out, "}}"...), nil
}

// plainJSON reports whether json.Marshal writes s verbatim between quotes:
// printable ASCII other than the quote, the backslash and the HTML-escaped
// '<', '>' and '&'.
func plainJSON(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// appendJSONFloat appends a finite f as encoding/json writes a float64: the
// shortest round-tripping decimal, in exponent form only below 1e-6 or from
// 1e21 on in magnitude, with a one-digit negative exponent unpadded.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7. strconv writes at least two exponent digits, so the
		// number alone is five bytes or more.
		n := len(b)
		if b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
