// Package lint is the simulator's custom static-analysis layer: a small
// go/analysis-style framework (the toolchain image carries no
// golang.org/x/tools, so the Analyzer/Pass surface is reimplemented on the
// standard library's go/ast + go/types) plus the nine analyzers that
// mechanically enforce the invariants earlier PRs established by
// convention:
//
//   - counternames: counter keys are spelled through internal/comp/names
//     constants, never string literals at the call site (PR 2).
//   - hotpathalloc: functions on the per-tick call surface stay free of
//     allocating expressions and map lookups (PR 1's hot-path contract).
//   - floatcmp: float operands are never compared with == / != outside
//     internal/check, which owns the tolerance model (PR 4).
//   - globalrand: no math/rand global-state use — randomness flows
//     through seeded *rand.Rand so cycle counts stay reproducible.
//   - maporder: no map iteration feeding order-sensitive accumulation,
//     serialization or hashing — walk sorted keys instead (the
//     energy.Table.Apply bit-drift regression, generalized).
//   - wallclock: no time.Now/Since/Sleep-family reads inside the
//     simulation core; cycle counts must never depend on the host clock.
//   - mutexheld: fields annotated `guarded by <mu>` are only touched in
//     functions that lock that mutex on the same base (or document the
//     caller-holds-lock contract).
//   - ctxcancel: every context.WithCancel/WithTimeout/WithDeadline cancel
//     func is kept alive — deferred, called, passed or stored.
//   - atomicmix: a variable reached through sync/atomic anywhere is never
//     also accessed plainly.
//
// Diagnostics are suppressed with a written justification:
//
//	//lint:ignore <analyzer> <reason>
//
// placed on the offending line, on the line directly above it, or in a
// function's doc comment (covering the whole function). A suppression
// without a reason is itself a diagnostic, and stonnelint -suppressions
// lists every directive in force so the set stays auditable.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. It mirrors the shape of
// golang.org/x/tools/go/analysis.Analyzer so the checks port trivially if
// the dependency ever becomes available.
type Analyzer struct {
	// Name is the identifier used in diagnostics and //lint:ignore
	// directives.
	Name string
	// Doc is the one-paragraph description shown by stonnelint -help.
	Doc string
	// Run inspects one type-checked package and reports findings via
	// pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files is the package syntax. Test files (_test.go) are included;
	// analyzers that exempt them filter with pass.InTestFile.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding, located and attributed to its analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// knownNames is the set of names a //lint:ignore directive may target.
func knownNames(analyzers []*Analyzer) map[string]bool {
	known := make(map[string]bool, len(analyzers)+1)
	known[DirectiveAnalyzerName] = true
	for _, a := range analyzers {
		known[a.Name] = true
	}
	return known
}

// Run executes the analyzers over one loaded package, applies
// //lint:ignore suppression, and returns the surviving diagnostics sorted
// by position. Malformed suppression directives are reported under the
// "lintignore" pseudo-analyzer regardless of which analyzers run.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	dirs := collectDirectives(pkg, knownNames(analyzers))
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Types.Path(), err)
		}
	}
	diags = filterSuppressed(append(diags, directiveDiagnostics(dirs)...), dirs)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}
