package qplacer

import (
	"encoding/json"
	"fmt"

	"qplacer/internal/geom"
	"qplacer/internal/metrics"
)

// This file is the JSON face of the public API: the wire forms of Scheme,
// PlanResult, and the ResultDocument envelope that both `qplacer -json` and
// qplacerd's result endpoint emit, so CLI and service outputs are
// interchangeable byte-for-byte (modulo whitespace).

// MarshalJSON encodes the scheme as its string name ("qplacer", "classic",
// "human"), never the raw int. Values outside the three strategies are a
// marshalling error rather than a leaked integer.
func (s Scheme) MarshalJSON() ([]byte, error) {
	switch s {
	case SchemeQplacer, SchemeClassic, SchemeHuman:
		return json.Marshal(s.String())
	}
	return nil, fmt.Errorf("%w %v", ErrUnknownScheme, int(s))
}

// UnmarshalJSON decodes a scheme name via ParseScheme, so API payloads and
// configs round-trip through the string form.
func (s *Scheme) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return fmt.Errorf("%w: scheme must be a string", ErrUnknownScheme)
	}
	parsed, err := ParseScheme(name)
	if err != nil {
		return err
	}
	*s = parsed
	return nil
}

// ResultDocument is the canonical JSON envelope for one completed pipeline
// run: the plan plus either a single-benchmark evaluation or a batch.
// `qplacer -json` prints it and `GET /v1/jobs/{id}/result` returns it.
type ResultDocument struct {
	Plan       *PlanResult  `json:"plan"`
	Evaluation *EvalResult  `json:"evaluation,omitempty"`
	Batch      *BatchResult `json:"batch,omitempty"`
	// Validation is Plan.Validation on the wire: the plan view omits the
	// report, so this top-level block is its only copy.
	Validation *ValidationReport `json:"validation,omitempty"`
}

// pointJSON, rectJSON, deviceJSON, violationJSON, metricsJSON, and
// instanceJSON are the wire views of the internal layout types; they keep
// the JSON shape stable even if the internals gain fields.
type pointJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

type rectJSON struct {
	Lo pointJSON `json:"lo"`
	Hi pointJSON `json:"hi"`
}

func toRectJSON(r geom.Rect) rectJSON {
	return rectJSON{
		Lo: pointJSON{X: r.Lo.X, Y: r.Lo.Y},
		Hi: pointJSON{X: r.Hi.X, Y: r.Hi.Y},
	}
}

type deviceJSON struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	NumQubits   int    `json:"num_qubits"`
	NumEdges    int    `json:"num_edges"`
}

type violationJSON struct {
	A        int     `json:"a"`
	B        int     `json:"b"`
	Length   float64 `json:"length"`
	Distance float64 `json:"distance"`
}

type metricsJSON struct {
	Amer           float64         `json:"amer_mm2"`
	Apoly          float64         `json:"apoly_mm2"`
	Utilization    float64         `json:"utilization"`
	PhPercent      float64         `json:"ph_percent"`
	Violations     []violationJSON `json:"violations"`
	ImpactedQubits []int           `json:"impacted_qubits"`
}

func toMetricsJSON(m *metrics.Report) metricsJSON {
	out := metricsJSON{
		Amer:           m.Amer,
		Apoly:          m.Apoly,
		Utilization:    m.Utilization,
		PhPercent:      m.Ph,
		Violations:     []violationJSON{},
		ImpactedQubits: m.ImpactedQubits,
	}
	if out.ImpactedQubits == nil {
		out.ImpactedQubits = []int{}
	}
	for _, v := range m.Violations {
		out.Violations = append(out.Violations, violationJSON{
			A: v.A, B: v.B, Length: v.Length, Distance: v.Distance,
		})
	}
	return out
}

type instanceJSON struct {
	ID        int     `json:"id"`
	Kind      string  `json:"kind"`      // "qubit" | "segment"
	Qubit     int     `json:"qubit"`     // device qubit index, -1 for segments
	Resonator int     `json:"resonator"` // resonator index, -1 for qubits
	SegIndex  int     `json:"seg_index"` // chain position, -1 for qubits
	X         float64 `json:"x"`
	Y         float64 `json:"y"`
	W         float64 `json:"w"`
	H         float64 `json:"h"`
	FreqGHz   float64 `json:"freq_ghz"`
}

type planResultJSON struct {
	Options         Options        `json:"options"`
	Device          deviceJSON     `json:"device"`
	Region          rectJSON       `json:"region"`
	Metrics         *metricsJSON   `json:"metrics,omitempty"`
	Placement       []instanceJSON `json:"placement"`
	PlaceIterations int            `json:"place_iterations"`
	PlaceOverflow   float64        `json:"place_overflow"`
	NumCells        int            `json:"num_cells"`
	Integrated      bool           `json:"integrated"`
	// The detail fields are omitempty so runs on the default "none" stage
	// keep the exact pre-stage wire bytes.
	DetailMoved      int         `json:"detail_moved,omitempty"`
	DetailHPWLBefore float64     `json:"detail_hpwl_before_mm,omitempty"`
	DetailHPWLAfter  float64     `json:"detail_hpwl_after_mm,omitempty"`
	Timings          *SpanTiming `json:"timings,omitempty"`
}

// MarshalJSON renders the full plan — options, device, placed instances,
// region, and metrics — without dragging the internal netlist/collision
// graph structures onto the wire. The plan is output-only: results are
// produced by the pipeline, not parsed back.
func (p *PlanResult) MarshalJSON() ([]byte, error) {
	out := planResultJSON{
		Options:          p.Options,
		Region:           toRectJSON(p.Region),
		Placement:        []instanceJSON{},
		PlaceIterations:  p.PlaceIterations,
		PlaceOverflow:    p.PlaceOverflow,
		NumCells:         p.NumCells,
		Integrated:       p.Integrated,
		DetailMoved:      p.DetailMoved,
		DetailHPWLBefore: p.DetailHPWLBefore,
		DetailHPWLAfter:  p.DetailHPWLAfter,
		Timings:          p.Timings,
	}
	if p.Device != nil {
		out.Device = deviceJSON{
			Name:        p.Device.Name,
			Description: p.Device.Description,
			NumQubits:   p.Device.NumQubits,
			NumEdges:    p.Device.NumEdges(),
		}
	}
	if p.Metrics != nil {
		m := toMetricsJSON(p.Metrics)
		out.Metrics = &m
	}
	if p.Netlist != nil {
		for _, in := range p.Netlist.Instances {
			out.Placement = append(out.Placement, instanceJSON{
				ID:        in.ID,
				Kind:      in.Kind.String(),
				Qubit:     in.Qubit,
				Resonator: in.Resonator,
				SegIndex:  in.SegIndex,
				X:         in.Pos.X,
				Y:         in.Pos.Y,
				W:         in.W,
				H:         in.H,
				FreqGHz:   in.FreqGHz,
			})
		}
	}
	return json.Marshal(out)
}
