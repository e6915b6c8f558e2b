package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Suppression is one //lint:ignore directive as seen by the audit mode:
// where it is, which analyzer it silences, and the written justification.
// Broken directives (no reason, unknown analyzer) are included with a Note
// so the audit surfaces them instead of hiding them — though the regular
// lint run already fails on them via the lintignore pseudo-analyzer.
type Suppression struct {
	File     string // as walked: root joined with the path below it
	Line     int
	Analyzer string
	Reason   string
	Note     string // "" when well-formed; "malformed" / "unknown analyzer"
}

// String renders one audit line: file:line: analyzer: reason.
func (s Suppression) String() string {
	reason := s.Reason
	if s.Note != "" {
		reason = strings.TrimSpace("[" + s.Note + "] " + reason)
	}
	an := s.Analyzer
	if an == "" {
		an = "?"
	}
	return fmt.Sprintf("%s:%d: %s: %s", s.File, s.Line, an, reason)
}

// Suppressions lists every //lint:ignore directive in the Go files under
// root, sorted by position, so the set of silenced findings is reviewable
// in one place (and diffable against a committed allowlist in CI — a new
// suppression then shows up in review as an allowlist edit, with its
// reason, instead of disappearing into the code). Directives are comments,
// so the files are parsed and never type-checked; testdata, dot and
// underscore directories below root are skipped, as the go command skips
// them.
func Suppressions(root string, analyzers []*Analyzer) ([]Suppression, error) {
	filenames, err := goFilesUnder(root, nil)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	pkg, err := parseFiles(filenames)
	if err != nil {
		return nil, err
	}
	var out []Suppression
	for _, d := range collectDirectives(pkg, knownNames(analyzers)) {
		s := Suppression{
			File:     filepath.ToSlash(d.pos.Filename),
			Line:     d.pos.Line,
			Analyzer: d.analyzer,
			Reason:   d.reason,
		}
		switch {
		case d.malformed:
			s.Note = "malformed"
		case d.unknownAn:
			s.Note = "unknown analyzer"
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out, nil
}

// goFilesUnder appends the .go files of dir and its subdirectories.
func goFilesUnder(dir string, files []string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		name := e.Name()
		switch {
		case !e.IsDir():
			if strings.HasSuffix(name, ".go") {
				files = append(files, filepath.Join(dir, name))
			}
		case name != "testdata" && !strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_"):
			if files, err = goFilesUnder(filepath.Join(dir, name), files); err != nil {
				return nil, err
			}
		}
	}
	return files, nil
}
