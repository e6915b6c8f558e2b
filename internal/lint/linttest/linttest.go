// Package linttest is the golden-test harness for the internal/lint
// analyzers, modeled on golang.org/x/tools' analysistest (which the
// toolchain image does not carry): a fixture directory under testdata is
// loaded as a real type-checked package, the analyzer under test runs over
// it — with the //lint:ignore suppression machinery applied, so fixtures
// can prove suppression works — and every diagnostic must be announced by
// a // want "regexp" comment on the line it fires on.
package linttest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/lint"
)

// load type-checks testdata/<fixture> through the unit loader stonnelint
// runs under go vet. One `go list` names what go vet would put in the
// fixture's vet.cfg: its files and the export data of everything it
// imports (fixtures import repro/internal/sim, config and comp, so the go
// command builds those first).
func load(fixture string) (*lint.Package, error) {
	cmd := exec.Command("go", "list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,ImportMap,DepOnly,Module", "./testdata/"+fixture)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	unit := &lint.Unit{PackageFile: make(map[string]string)}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p struct {
			ImportPath, Dir, Export string
			GoFiles                 []string
			ImportMap               map[string]string
			DepOnly                 bool
			Module                  *struct{ GoVersion string }
		}
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if p.DepOnly {
			unit.PackageFile[p.ImportPath] = p.Export
			continue
		}
		unit.ImportPath, unit.ImportMap = p.ImportPath, p.ImportMap
		if p.Module != nil {
			unit.GoVersion = "go" + p.Module.GoVersion
		}
		for _, f := range p.GoFiles {
			unit.GoFiles = append(unit.GoFiles, filepath.Join(p.Dir, f))
		}
	}
	return unit.Load()
}

// Run loads testdata/<fixture> as a package and checks the analyzer's
// post-suppression diagnostics against the fixture's // want comments.
func Run(t *testing.T, a *lint.Analyzer, fixture string) {
	t.Helper()
	pkg, err := load(fixture)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	diags, err := lint.Run(pkg, []*lint.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}

	wants := collectWants(t, pkg)
	got := make(map[string][]lint.Diagnostic) // "file:line" -> diags
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		got[key] = append(got[key], d)
	}

	for key, res := range wants {
		found := got[key]
		if len(found) != len(res) {
			t.Errorf("%s: want %d diagnostic(s), got %d: %v", key, len(res), len(found), found)
			continue
		}
	nextWant:
		for _, re := range res {
			for _, d := range found {
				if re.MatchString(d.Message) {
					continue nextWant
				}
			}
			t.Errorf("%s: no diagnostic matching %q (got %v)", key, re, found)
		}
	}
	for key, found := range got {
		if _, ok := wants[key]; !ok {
			t.Errorf("%s: unexpected diagnostic(s): %v", key, found)
		}
	}
}

var (
	wantRE = regexp.MustCompile(`//\s*want([+-]\d+)?\s+(.*)$`)
	// quotedRE matches one "interpreted" or `raw` string literal.
	quotedRE = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")
)

// collectWants parses // want "re" ["re" ...] comments per fixture line.
// The optional offset form `// want-1 "re"` anchors the expectation N
// lines away — needed when the diagnosed line is itself a comment (a
// malformed //lint:ignore directive cannot carry a trailing want: the two
// would merge into one comment).
func collectWants(t *testing.T, pkg *lint.Package) map[string][]*regexp.Regexp {
	t.Helper()
	out := make(map[string][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				line := pos.Line
				if m[1] != "" {
					off, err := strconv.Atoi(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want offset %q", pos.Filename, pos.Line, m[1])
					}
					line += off
				}
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), line)
				for _, q := range quotedRE.FindAllString(m[2], -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", key, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, pat, err)
					}
					out[key] = append(out[key], re)
				}
			}
		}
	}
	return out
}
