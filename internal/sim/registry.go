package sim

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/config"
)

// Builder constructs a ready-to-run accelerator composition from a
// validated hardware description.
type Builder func(config.Hardware) (Runner, error)

// NumericContract declares how closely an architecture's datapath follows
// the reference summation order — the tolerance the differential check
// harness (internal/check) grants its output tensors. An architecture that
// accumulates every output in reference (k-major) order is bit-exact
// against the CPU reference; tree/cluster reductions reorder the sum and
// are only correct up to a bounded relative error on the magnitude of the
// absolute-value product.
type NumericContract struct {
	// ExactSum marks compositions whose per-element accumulation order is
	// identical to the reference GEMM's: outputs must match bit for bit
	// (ULP distance 0).
	ExactSum bool
	// RelTol bounds |got-want| by RelTol·(Σ|aᵢ·bᵢ|) per element for
	// reordered accumulation. Zero means "use the harness default".
	RelTol float64
	// PostActivationConv marks architectures whose convolution outputs are
	// only defined up to the following ReLU (SNAPEA's early negative cut
	// stops as soon as the sign is decided): the harness clamps both sides
	// at zero before comparing.
	PostActivationConv bool
}

// Arch is one registered accelerator architecture: a stable name (the CLI
// -arch value), a human-readable description, a predicate matching the
// hardware configurations the architecture serves, a preset constructor,
// and the builder producing the runner. Adding an accelerator to the
// simulator is registering one of these — no dispatch code changes.
type Arch struct {
	// Name is the registry key, e.g. "maeri".
	Name string
	// Title is the display name, e.g. "MAERI-like (flexible dense)".
	Title string
	// Description is a one-line summary for -list-archs.
	Description string
	// Matches reports whether hw is a configuration of this architecture.
	// Registration order breaks ties: the first match wins.
	Matches func(config.Hardware) bool
	// Preset builds the canonical Table IV configuration at the given
	// fabric size and Global Buffer bandwidth (architectures with a fixed
	// bandwidth requirement may ignore bw).
	Preset func(ms, bw int) config.Hardware
	// Build constructs the runner for a validated configuration.
	Build Builder
	// Contract is the architecture's numeric contract against the CPU
	// reference executor (see NumericContract).
	Contract NumericContract
}

var registry = struct {
	sync.RWMutex
	archs  []*Arch // registration order — Resolve scans in order
	byName map[string]*Arch
}{byName: make(map[string]*Arch)}

// Register adds an architecture to the registry. It panics on a duplicate
// name or an incomplete entry — registration happens in package init, where
// a panic is a build-time bug, not a runtime condition. An undeclared
// (zero) NumericContract is incomplete: the differential check harness
// refuses to guess an architecture's numeric tolerance.
func Register(a Arch) {
	if a.Name == "" || a.Matches == nil || a.Build == nil || a.Preset == nil || a.Contract == (NumericContract{}) {
		panic(fmt.Sprintf("sim: incomplete architecture registration %+v", a))
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byName[a.Name]; dup {
		panic(fmt.Sprintf("sim: duplicate architecture %q", a.Name))
	}
	arch := a
	registry.archs = append(registry.archs, &arch)
	registry.byName[a.Name] = &arch
}

// Lookup returns the architecture registered under name.
func Lookup(name string) (*Arch, bool) {
	registry.RLock()
	defer registry.RUnlock()
	a, ok := registry.byName[name]
	return a, ok
}

// Names returns the registered architecture names, sorted.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, 0, len(registry.archs))
	for _, a := range registry.archs {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return names
}

// List returns the registered architectures in registration order.
func List() []*Arch {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]*Arch, len(registry.archs))
	copy(out, registry.archs)
	return out
}

// Resolve finds the architecture serving hw, scanning in registration
// order so more specific compositions register before broader ones.
func Resolve(hw config.Hardware) (*Arch, error) {
	registry.RLock()
	defer registry.RUnlock()
	for _, a := range registry.archs {
		if a.Matches(hw) {
			return a, nil
		}
	}
	return nil, fmt.Errorf("engine: unknown controller %v", hw.Ctrl)
}

// PresetHW builds the named architecture's canonical configuration at the
// given fabric size and bandwidth. Unknown names report the available set.
func PresetHW(name string, ms, bw int) (config.Hardware, error) {
	a, ok := Lookup(name)
	if !ok {
		return config.Hardware{}, UnknownArchError(name)
	}
	return a.Preset(ms, bw), nil
}

// UnknownArchError renders the friendly unknown-architecture error naming
// every registered architecture.
func UnknownArchError(name string) error {
	return fmt.Errorf("unknown architecture %q (available: %s)", name, archListString())
}

func archListString() string {
	names := Names()
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}
