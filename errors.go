package qplacer

import (
	"context"
	"errors"
	"fmt"

	"qplacer/internal/bmgen"
	"qplacer/internal/circuit"
	"qplacer/internal/topology"
)

// Sentinel errors for the public API. All failures that used to be
// stringly-typed are now classifiable with errors.Is.
var (
	// ErrUnknownTopology reports a topology name with no registered
	// generator (see RegisterTopology).
	ErrUnknownTopology = topology.ErrUnknown
	// ErrUnknownBenchmark reports a benchmark name with no registered
	// builder (see RegisterBenchmark).
	ErrUnknownBenchmark = circuit.ErrUnknown
	// ErrDuplicateTopology reports a topology registration under a taken name.
	ErrDuplicateTopology = topology.ErrDuplicate
	// ErrDuplicateBenchmark reports a benchmark registration under a taken name.
	ErrDuplicateBenchmark = circuit.ErrDuplicate
	// ErrUnknownScheme reports a Scheme value outside the three strategies.
	ErrUnknownScheme = errors.New("qplacer: unknown scheme")
	// ErrUnknownPlacer reports a placement-backend name with no registered
	// implementation (see RegisterPlacer).
	ErrUnknownPlacer = errors.New("qplacer: unknown placer backend")
	// ErrUnknownLegalizer reports a legalization-backend name with no
	// registered implementation (see RegisterLegalizer).
	ErrUnknownLegalizer = errors.New("qplacer: unknown legalizer backend")
	// ErrUnknownDetailedPlacer reports a detailed-placement-backend name with
	// no registered implementation (see RegisterDetailedPlacer).
	ErrUnknownDetailedPlacer = errors.New("qplacer: unknown detailed placer backend")
	// ErrDuplicatePlacer reports a placer registration under a taken name.
	ErrDuplicatePlacer = errors.New("qplacer: duplicate placer backend")
	// ErrDuplicateLegalizer reports a legalizer registration under a taken name.
	ErrDuplicateLegalizer = errors.New("qplacer: duplicate legalizer backend")
	// ErrDuplicateDetailedPlacer reports a detailed-placer registration under
	// a taken name.
	ErrDuplicateDetailedPlacer = errors.New("qplacer: duplicate detailed placer backend")
	// ErrCancelled reports a run stopped by its context. The wrapped error
	// also satisfies errors.Is against context.Canceled or
	// context.DeadlineExceeded, whichever fired.
	ErrCancelled = errors.New("qplacer: cancelled")
	// ErrNoMappings reports an evaluation whose mapper produced an empty
	// mapping set, which would otherwise yield degenerate statistics.
	ErrNoMappings = errors.New("qplacer: no mappings sampled")
	// ErrNoBenchmarks reports a batch evaluation over zero benchmarks —
	// nothing requested and nothing registered — which would otherwise
	// yield NaN means and ±Inf extremes.
	ErrNoBenchmarks = errors.New("qplacer: no benchmarks to evaluate")
	// ErrInvalidPlacement reports a plan that failed independent
	// verification under ValidationStrict: the layout carries
	// error-severity violations (see Validate).
	ErrInvalidPlacement = errors.New("qplacer: invalid placement")
	// ErrInvalidOptions reports an Options value that cannot describe any
	// run — e.g. a non-finite or negative segment size or detuning
	// threshold — caught at normalization before it can poison cache keys
	// or the pipeline.
	ErrInvalidOptions = errors.New("qplacer: invalid options")
	// ErrInvalidSuiteSpec reports a SuiteSpec that cannot describe any
	// benchmark suite (see GenerateBenchmark).
	ErrInvalidSuiteSpec = bmgen.ErrInvalidSpec
	// ErrInvalidSuite reports a generated-suite document that failed
	// well-formedness validation (see LoadSuite).
	ErrInvalidSuite = bmgen.ErrInvalidSuite
)

// wrapCancel converts a context error into an ErrCancelled-classified error,
// keeping the original cause in the chain; other errors pass through.
func wrapCancel(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrCancelled, err)
	}
	return err
}
