// Package registry is the one name → value table behind every runtime
// registry of the pipeline: the placement, legalization and
// detailed-placement backends, the device topologies, and the benchmark
// circuits. Callers wrap it with their type-specific checks (nil values,
// fall-through parsers) and keep their own sentinel errors, which the
// Registry wraps so errors.Is classifies its failures per registry.
package registry

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrEmptyName is returned by Register for the empty name.
var ErrEmptyName = errors.New("registry: register with empty name")

// Registry is a concurrency-safe table of named values. Entries are never
// removed, so a value once returned by Get stays valid.
type Registry[T any] struct {
	mu           sync.RWMutex
	m            map[string]T
	dup, unknown error
}

// New returns an empty registry whose Register failures on a taken name
// wrap dup and whose Get failures on a missing name wrap unknown.
func New[T any](dup, unknown error) *Registry[T] {
	return &Registry[T]{m: map[string]T{}, dup: dup, unknown: unknown}
}

// Register adds v under name. The empty name fails with ErrEmptyName, a
// taken name with the registry's duplicate sentinel.
func (r *Registry[T]) Register(name string, v T) error {
	if name == "" {
		return ErrEmptyName
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[name]; ok {
		return fmt.Errorf("%w %q", r.dup, name)
	}
	r.m[name] = v
	return nil
}

// Get returns the value registered under name, or an error wrapping the
// registry's unknown sentinel.
func (r *Registry[T]) Get(name string) (T, error) {
	r.mu.RLock()
	v, ok := r.m[name]
	r.mu.RUnlock()
	if !ok {
		return v, fmt.Errorf("%w %q", r.unknown, name)
	}
	return v, nil
}

// Names returns every registered name, sorted.
func (r *Registry[T]) Names() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.m))
	for name := range r.m {
		out = append(out, name)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}
