// Package component models the movable quantum components of §IV-B: padded
// transmon qubits and resonators partitioned into wire-block segments. It
// builds the placement netlist — instances plus the 2-pin net chains
// q_i → s_r,1 → … → s_r,k → q_j that keep each resonator's segments ribboned
// between its endpoint qubits.
package component

import (
	"fmt"
	"math"

	"qplacer/internal/geom"
	"qplacer/internal/physics"
	"qplacer/internal/topology"
)

// Kind discriminates instance types.
type Kind int

const (
	// KindQubit is a transmon qubit pocket.
	KindQubit Kind = iota
	// KindSegment is one wire block of a partitioned resonator.
	KindSegment
)

func (k Kind) String() string {
	switch k {
	case KindQubit:
		return "qubit"
	case KindSegment:
		return "segment"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Instance is a movable rectangle with a frequency. Positions are centre
// coordinates in mm.
type Instance struct {
	ID        int
	Kind      Kind
	Qubit     int // qubit index for KindQubit, else -1
	Resonator int // resonator index for KindSegment, else -1
	SegIndex  int // chain position within the resonator, else -1

	W, H    float64 // core size (mm)
	Pad     float64 // padding per side (mm)
	FreqGHz float64

	Pos geom.Point
}

// CoreRect returns the unpadded footprint at the current position.
func (in *Instance) CoreRect() geom.Rect {
	return geom.RectAt(in.Pos, in.W, in.H)
}

// PaddedRect returns the footprint inflated by the padding. Two padded
// rectangles that abut leave a core-to-core gap equal to the sum of the two
// paddings — the paper's minimum-spacing semantics (§IV-B1).
func (in *Instance) PaddedRect() geom.Rect {
	return geom.RectAt(in.Pos, in.W+2*in.Pad, in.H+2*in.Pad)
}

// PaddedW returns the padded width.
func (in *Instance) PaddedW() float64 { return in.W + 2*in.Pad }

// PaddedH returns the padded height.
func (in *Instance) PaddedH() float64 { return in.H + 2*in.Pad }

// PaddedArea returns the padded footprint area.
func (in *Instance) PaddedArea() float64 { return in.PaddedW() * in.PaddedH() }

// Config carries the geometric parameters of §V-C.
type Config struct {
	QubitSize    float64 // L_q, transmon pocket edge (0.4 mm)
	QubitPad     float64 // d_q (0.4 mm)
	ResonatorPad float64 // d_r (0.1 mm)
	SegmentSize  float64 // l_b, wire block edge (0.2/0.3/0.4 mm)
	RibbonWidth  float64 // resonator ribbon width for area accounting
}

// MinSegmentSizeMM is the smallest segment size l_b a request or a suite
// spec may ask for. A resonator of length L splits into ⌈L·w/l_b²⌉ blocks,
// so the netlist grows as 1/l_b²: at 1e-6 mm it would hold ~10¹² instances.
// The paper sweeps 0.2–0.4 mm.
const MinSegmentSizeMM = 0.1

// DefaultConfig returns the paper's experimental constants with the optimal
// segment size l_b = 0.3 mm.
func DefaultConfig() Config {
	return Config{
		QubitSize:    physics.QubitSizeMM,
		QubitPad:     physics.QubitPadMM,
		ResonatorPad: physics.ResonatorPadMM,
		SegmentSize:  0.3,
		RibbonWidth:  physics.ResonatorWidthMM,
	}
}

func (c Config) validate() error {
	if c.QubitSize <= 0 || c.QubitPad < 0 || c.ResonatorPad < 0 ||
		c.SegmentSize <= 0 || c.RibbonWidth <= 0 {
		return fmt.Errorf("component: invalid config %+v", c)
	}
	return nil
}

// SegmentCount returns the number of l_b×l_b wire blocks needed to reserve
// the reshaped resonator area L·w (§IV-B2).
func SegmentCount(lengthMM float64, cfg Config) int {
	if lengthMM <= 0 {
		panic("component: non-positive resonator length")
	}
	n := int(math.Ceil(lengthMM * cfg.RibbonWidth / (cfg.SegmentSize * cfg.SegmentSize)))
	if n < 1 {
		n = 1
	}
	return n
}

// Resonator describes one coupling's resonator after partitioning.
type Resonator struct {
	Index    int
	QubitA   int // endpoint qubit indices (device numbering)
	QubitB   int
	FreqGHz  float64
	LengthMM float64
	Segments []int // instance IDs of the wire blocks, in chain order
}

// Netlist is the complete placement problem: instances, resonators, and the
// 2-pin nets connecting them.
type Netlist struct {
	Config     Config
	Device     *topology.Device
	Instances  []*Instance
	QubitInst  []int        // instance ID per device qubit
	Resonators []*Resonator // one per coupling edge, in Edges() order
	Nets       [][2]int     // 2-pin nets as instance-ID pairs
}

// Build constructs the netlist for a device with the given per-qubit and
// per-resonator frequencies (lengths derive from resonator frequencies via
// L = v0/2f). len(qubitFreqs) must equal the qubit count and
// len(resFreqs) the edge count.
func Build(dev *topology.Device, qubitFreqs, resFreqs []float64, cfg Config) (*Netlist, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(qubitFreqs) != dev.NumQubits {
		return nil, fmt.Errorf("component: %d qubit frequencies for %d qubits",
			len(qubitFreqs), dev.NumQubits)
	}
	edges := dev.Edges()
	if len(resFreqs) != len(edges) {
		return nil, fmt.Errorf("component: %d resonator frequencies for %d edges",
			len(resFreqs), len(edges))
	}

	nl := &Netlist{
		Config:    cfg,
		Device:    dev,
		QubitInst: make([]int, dev.NumQubits),
	}
	addInst := func(in *Instance) int {
		in.ID = len(nl.Instances)
		nl.Instances = append(nl.Instances, in)
		return in.ID
	}

	for q := 0; q < dev.NumQubits; q++ {
		if qubitFreqs[q] <= 0 {
			return nil, fmt.Errorf("component: qubit %d has non-positive frequency", q)
		}
		nl.QubitInst[q] = addInst(&Instance{
			Kind:      KindQubit,
			Qubit:     q,
			Resonator: -1,
			SegIndex:  -1,
			W:         cfg.QubitSize,
			H:         cfg.QubitSize,
			Pad:       cfg.QubitPad,
			FreqGHz:   qubitFreqs[q],
		})
	}

	for r, e := range edges {
		f := resFreqs[r]
		if f <= 0 {
			return nil, fmt.Errorf("component: resonator %d has non-positive frequency", r)
		}
		length := physics.ResonatorLengthMM(f)
		res := &Resonator{
			Index:    r,
			QubitA:   e[0],
			QubitB:   e[1],
			FreqGHz:  f,
			LengthMM: length,
		}
		nSeg := SegmentCount(length, cfg)
		for s := 0; s < nSeg; s++ {
			id := addInst(&Instance{
				Kind:      KindSegment,
				Qubit:     -1,
				Resonator: r,
				SegIndex:  s,
				W:         cfg.SegmentSize,
				H:         cfg.SegmentSize,
				Pad:       cfg.ResonatorPad,
				FreqGHz:   f,
			})
			res.Segments = append(res.Segments, id)
		}
		nl.Resonators = append(nl.Resonators, res)

		// Net chain: qubit A → s_0 → s_1 → … → s_{k-1} → qubit B.
		prev := nl.QubitInst[e[0]]
		for _, sid := range res.Segments {
			nl.Nets = append(nl.Nets, [2]int{prev, sid})
			prev = sid
		}
		nl.Nets = append(nl.Nets, [2]int{prev, nl.QubitInst[e[1]]})
	}
	return nl, nil
}

// NumCells returns the total movable instance count (#cells of Table II).
func (nl *Netlist) NumCells() int { return len(nl.Instances) }

// TotalPaddedArea returns Σ padded footprint areas.
func (nl *Netlist) TotalPaddedArea() float64 {
	var a float64
	for _, in := range nl.Instances {
		a += in.PaddedArea()
	}
	return a
}

// PaddedRects returns the padded footprint of every instance.
func (nl *Netlist) PaddedRects() []geom.Rect {
	out := make([]geom.Rect, len(nl.Instances))
	for i, in := range nl.Instances {
		out[i] = in.PaddedRect()
	}
	return out
}

// Positions flattens instance centres into [x0 y0 x1 y1 …] for optimizers.
func (nl *Netlist) Positions() []float64 {
	out := make([]float64, 2*len(nl.Instances))
	for i, in := range nl.Instances {
		out[2*i] = in.Pos.X
		out[2*i+1] = in.Pos.Y
	}
	return out
}

// SetPositions writes back a flat [x0 y0 …] vector.
func (nl *Netlist) SetPositions(xy []float64) {
	if len(xy) != 2*len(nl.Instances) {
		panic("component: position vector length mismatch")
	}
	for i, in := range nl.Instances {
		in.Pos = geom.Point{X: xy[2*i], Y: xy[2*i+1]}
	}
}

// Clone deep-copies the netlist (shared Device, fresh instances), so one
// frequency assignment can be placed by several schemes independently.
func (nl *Netlist) Clone() *Netlist {
	out := &Netlist{
		Config:    nl.Config,
		Device:    nl.Device,
		QubitInst: append([]int(nil), nl.QubitInst...),
		Nets:      append([][2]int(nil), nl.Nets...),
	}
	out.Instances = make([]*Instance, len(nl.Instances))
	for i, in := range nl.Instances {
		cp := *in
		out.Instances[i] = &cp
	}
	out.Resonators = make([]*Resonator, len(nl.Resonators))
	for i, r := range nl.Resonators {
		cp := *r
		cp.Segments = append([]int(nil), r.Segments...)
		out.Resonators[i] = &cp
	}
	return out
}
