// Package qplacer is the public API of the QPlacer reproduction: a
// frequency-aware, electrostatic-based placement framework for
// superconducting quantum processors (Zhang et al., ISCA 2025 /
// arXiv:2401.17450).
//
// The pipeline mirrors Fig. 7 of the paper:
//
//  1. pick a device topology and assign frequencies (frequency-domain
//     isolation over the available spectra),
//  2. pad qubits and partition resonators into wire blocks,
//  3. run the frequency-aware electrostatic global placement (or the
//     Classic baseline, or the Human manual layout),
//  4. legalize with the integration-aware legalizer,
//  5. evaluate: area metrics, frequency hotspots, and program fidelity on
//     the Table I NISQ benchmarks.
//
// The primary entry point is the Engine: a long-lived, concurrency-safe
// object that caches the immutable pipeline stages (devices, frequency
// assignments, netlist templates, collision maps, circuits, mappings) keyed
// by normalized options, threads context cancellation through the placement
// and legalization hot loops, and batch-evaluates benchmarks over a bounded
// worker pool:
//
//	eng := qplacer.New(qplacer.WithTopology("falcon"))
//	plan, err := eng.Plan(ctx)
//	...
//	batch, err := eng.EvaluateAll(ctx, plan, nil, 50)
//
// Custom device topologies and benchmark circuits register at runtime via
// RegisterTopology and RegisterBenchmark; the built-in Table I entries go
// through the same registries. Failures classify with errors.Is against the
// package sentinels (ErrUnknownTopology, ErrCancelled, ...). A one-off run
// is New().Plan(ctx, WithOptions(opts)); there are no stateless free
// functions.
package qplacer

import (
	"qplacer/internal/circuit"
	"qplacer/internal/topology"
)

// Benchmarks lists the paper's Table I benchmark names in evaluation order.
// RegisteredBenchmarks also includes runtime registrations.
func Benchmarks() []string {
	var out []string
	for _, b := range circuit.TableI() {
		out = append(out, b.Name)
	}
	return out
}

// Topologies lists the paper's Table I device names in evaluation order.
// RegisteredTopologies also includes runtime registrations.
func Topologies() []string {
	return topology.Builtin()
}
