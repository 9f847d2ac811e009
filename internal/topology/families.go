package topology

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file defines the parametric topology families and the name parser
// that resolves family members on demand: grid-64, xtree-17, octagon-5x8 and
// friends work anywhere a topology name is accepted, without registration.
// The six Table I names stay registered as exact aliases (see registry.go),
// so their devices — including the Name field — are byte-identical across
// releases.

// Family describes one parametric topology family for discovery surfaces
// (GET /v1/topologies, qplacer -list-topologies, docs).
type Family struct {
	Name string `json:"name"`
	// Schema is the accepted name pattern, e.g. "grid-<n> | grid-<r>x<c>".
	Schema      string   `json:"schema"`
	Description string   `json:"description"`
	Examples    []string `json:"examples"`
}

// Families returns the parametric family catalogue, sorted by name.
func Families() []Family {
	return []Family{
		{
			Name:        "grid",
			Schema:      "grid-<n> | grid-<r>x<c>",
			Description: "Nearest-neighbour mesh; grid-<n> picks the squarest r×c with r·c = n",
			Examples:    []string{"grid-4", "grid-25", "grid-64", "grid-3x7"},
		},
		{
			Name:        "hummingbird",
			Schema:      "hummingbird-65",
			Description: "IBM Hummingbird heavy-hex processor (65 qubits)",
			Examples:    []string{"hummingbird-65"},
		},
		{
			Name:        "octagon",
			Schema:      "octagon-<r>x<c>",
			Description: "Rigetti Aspen-style lattice of 8-qubit octagon rings (8·r·c qubits)",
			Examples:    []string{"octagon-1x5", "octagon-2x5", "octagon-5x8"},
		},
		{
			Name:        "xtree",
			Schema:      "xtree-<n>, n in 5, 17, 53, 161, ...",
			Description: "Pauli-string efficient X-tree; valid sizes are the depth series 1+4+12+36+...",
			Examples:    []string{"xtree-5", "xtree-17", "xtree-53"},
		},
	}
}

// Aliases maps each registered built-in alias to its canonical parametric
// name. Fixed devices without a parametric form (falcon, eagle) are absent.
func Aliases() map[string]string {
	return map[string]string{
		"grid":    "grid-25",
		"aspen11": "octagon-1x5",
		"aspenm":  "octagon-2x5",
		"xtree":   "xtree-53",
	}
}

// maxParametricQubits bounds parser-built devices: a mistyped name like
// grid-1000000 must fail fast instead of allocating a million-qubit device.
// The r×c forms check cols against the bound divided by rows, so an
// oversized product cannot wrap around into range.
const maxParametricQubits = 4096

// Parse resolves a parametric family name (grid-64, grid-3x7, xtree-17,
// octagon-5x8, hummingbird-65) to a freshly built device whose Name is
// exactly the given name. Names outside every family, and family names with
// out-of-range parameters, wrap ErrUnknown.
func Parse(name string) (*Device, error) {
	family, param, ok := strings.Cut(name, "-")
	if !ok || param == "" {
		return nil, fmt.Errorf("%w %q", ErrUnknown, name)
	}
	switch family {
	case "grid":
		rows, cols, err := parseGridParam(name, param)
		if err != nil {
			return nil, err
		}
		return GridRC(name, rows, cols), nil
	case "octagon":
		rows, cols, err := parseRxC(param)
		if err != nil || rows < 1 || cols < 1 || cols > maxParametricQubits/8/rows {
			return nil, fmt.Errorf("%w %q: octagon wants octagon-<r>x<c> with r,c >= 1", ErrUnknown, name)
		}
		return OctagonRC(name, rows, cols), nil
	case "xtree":
		n, err := strconv.Atoi(param)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("%w %q: xtree wants xtree-<n>", ErrUnknown, name)
		}
		for depth := 1; ; depth++ {
			size := XtreeSize(XtreeSchedule(depth))
			if size == n {
				return XtreeDepth(name, depth), nil
			}
			if size > n || size > maxParametricQubits {
				return nil, fmt.Errorf("%w %q: valid xtree sizes are 5, 17, 53, 161, ... (depth series)", ErrUnknown, name)
			}
		}
	case "hummingbird":
		if param != "65" {
			return nil, fmt.Errorf("%w %q: the hummingbird family has one member, hummingbird-65", ErrUnknown, name)
		}
		return Hummingbird65(), nil
	}
	return nil, fmt.Errorf("%w %q", ErrUnknown, name)
}

// parseGridParam accepts "<n>" (squarest factorization) or "<r>x<c>".
func parseGridParam(name, param string) (rows, cols int, err error) {
	if strings.Contains(param, "x") {
		rows, cols, err = parseRxC(param)
		if err != nil || rows < 1 || cols < 1 || cols > maxParametricQubits/rows || rows*cols < 2 {
			return 0, 0, fmt.Errorf("%w %q: grid wants grid-<n> or grid-<r>x<c> with r·c in [2,%d]",
				ErrUnknown, name, maxParametricQubits)
		}
		return rows, cols, nil
	}
	n, aerr := strconv.Atoi(param)
	if aerr != nil || n < 2 || n > maxParametricQubits {
		return 0, 0, fmt.Errorf("%w %q: grid wants grid-<n> with n in [2,%d]", ErrUnknown, name, maxParametricQubits)
	}
	// Squarest factorization: the largest divisor r <= sqrt(n). Primes
	// degenerate to a 1×n path, which is still a valid connected mesh.
	for r := intSqrt(n); r >= 1; r-- {
		if n%r == 0 {
			return r, n / r, nil
		}
	}
	return 0, 0, fmt.Errorf("%w %q", ErrUnknown, name) // unreachable: r=1 always divides
}

func parseRxC(param string) (rows, cols int, err error) {
	rs, cs, ok := strings.Cut(param, "x")
	if !ok {
		return 0, 0, fmt.Errorf("topology: %q is not <r>x<c>", param)
	}
	rows, err = strconv.Atoi(rs)
	if err != nil {
		return 0, 0, err
	}
	cols, err = strconv.Atoi(cs)
	return rows, cols, err
}

func intSqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// Info describes one resolvable topology for discovery surfaces: its qubit
// and coupling counts, plus alias/family cross-references where they apply.
type Info struct {
	Name string `json:"name"`
	// Canonical is the parametric name this entry aliases ("" when Name is
	// already canonical): grid → grid-25, xtree → xtree-53, ...
	Canonical   string `json:"canonical,omitempty"`
	Family      string `json:"family,omitempty"`
	Qubits      int    `json:"qubits"`
	Edges       int    `json:"edges"`
	Description string `json:"description"`
}

// Catalog returns an Info for every registered topology (built-ins, aliases,
// runtime registrations) plus the parser-only canonical members that have no
// registry entry (hummingbird-65), sorted by name. Each entry is built once
// to read its exact qubit and coupling counts.
func Catalog() []Info {
	aliases := Aliases()
	names := Names()
	seen := make(map[string]bool, len(names)+1)
	for _, n := range names {
		seen[n] = true
	}
	if !seen["hummingbird-65"] {
		names = append(names, "hummingbird-65")
	}
	out := make([]Info, 0, len(names))
	for _, n := range names {
		d, err := ByName(n)
		if err != nil {
			continue // racing unregistration; skip rather than fail discovery
		}
		info := Info{
			Name:        n,
			Canonical:   aliases[n],
			Qubits:      d.NumQubits,
			Edges:       d.NumEdges(),
			Description: d.Description,
		}
		canonical := n
		if info.Canonical != "" {
			canonical = info.Canonical
		}
		if fam, _, ok := strings.Cut(canonical, "-"); ok {
			for _, f := range Families() {
				if f.Name == fam {
					info.Family = fam
					break
				}
			}
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
