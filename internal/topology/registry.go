package topology

import (
	"errors"
	"fmt"

	"qplacer/internal/registry"
)

// Generator constructs a fresh Device. Generators must return a validated
// device whose Name matches the name it was registered under; returning a
// new value per call keeps callers free to treat each device independently.
type Generator func() *Device

// ErrUnknown is returned (wrapped) by ByName for unregistered names.
var ErrUnknown = errors.New("topology: unknown device")

// ErrDuplicate is returned (wrapped) by Register when the name is taken.
var ErrDuplicate = errors.New("topology: duplicate device name")

var generators = registry.New[Generator](ErrDuplicate, ErrUnknown)

// Register adds a device generator under the given name. The six Table I
// topologies are registered this way at init; callers may add custom
// topologies at runtime to open scenarios beyond the paper's devices.
// Registering an empty name, a nil generator, or a taken name fails.
func Register(name string, gen Generator) error {
	if gen == nil {
		return fmt.Errorf("topology: register %q with nil generator", name)
	}
	return generators.Register(name, gen)
}

// mustRegister registers a built-in generator and panics on conflict.
func mustRegister(name string, gen Generator) {
	if err := Register(name, gen); err != nil {
		panic(err)
	}
}

// ByName generates the named device. Registered names (built-in aliases and
// runtime registrations) win; anything else is resolved through the
// parametric-family parser (see Parse), so grid-64 or xtree-17 works
// anywhere a topology name is accepted. The error wraps ErrUnknown when the
// name is neither registered nor a valid family member.
func ByName(name string) (*Device, error) {
	gen, err := generators.Get(name)
	if err != nil {
		return Parse(name)
	}
	d := gen()
	if d == nil {
		return nil, fmt.Errorf("topology: generator for %q returned nil", name)
	}
	return d, nil
}

// Names returns every registered device name, sorted.
func Names() []string { return generators.Names() }

// The six Table I names are exact aliases of parametric-family members (see
// Aliases: grid = grid-25, aspen11 = octagon-1x5, aspenm = octagon-2x5,
// xtree = xtree-53) kept registered under their legacy names so existing
// corpora — including the device Name field — stay byte-identical.
func init() {
	mustRegister("grid", Grid25)
	mustRegister("falcon", Falcon27)
	mustRegister("eagle", Eagle127)
	mustRegister("aspen11", Aspen11)
	mustRegister("aspenm", AspenM)
	mustRegister("xtree", Xtree53)
}
