package circuit

import (
	"errors"
	"fmt"

	"qplacer/internal/registry"
)

// ErrUnknown is returned (wrapped) by ByName for unregistered names.
var ErrUnknown = errors.New("circuit: unknown benchmark")

// ErrDuplicate is returned (wrapped) by Register when the name is taken.
var ErrDuplicate = errors.New("circuit: duplicate benchmark name")

var benchmarks = registry.New[Benchmark](ErrDuplicate, ErrUnknown)

// Register adds a benchmark to the registry. The Table I workloads are
// registered this way at init; callers may add custom benchmarks at runtime.
// The benchmark's Name must be non-empty and unused, and Build non-nil.
func Register(b Benchmark) error {
	if b.Build == nil {
		return fmt.Errorf("circuit: register %q with nil builder", b.Name)
	}
	return benchmarks.Register(b.Name, b)
}

// ByName returns the named benchmark. The error wraps ErrUnknown when no
// benchmark is registered under the name.
func ByName(name string) (Benchmark, error) { return benchmarks.Get(name) }

// Names returns every registered benchmark name, sorted.
func Names() []string { return benchmarks.Names() }

func init() {
	for _, b := range TableI() {
		if err := Register(b); err != nil {
			panic(err)
		}
	}
}
