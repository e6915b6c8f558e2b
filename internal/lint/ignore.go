package lint

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// DirectiveAnalyzerName attributes diagnostics about the suppression
// directives themselves (malformed or unknown-analyzer //lint:ignore
// comments). It is always active: a suppression that cannot justify itself
// must not be able to silence anything — including this check.
const DirectiveAnalyzerName = "lintignore"

const directivePrefix = "lint:ignore"

// directive is one parsed //lint:ignore comment.
type directive struct {
	analyzer string
	reason   string
	pos      token.Position
	// file plus the inclusive line range the suppression covers: the
	// commented line itself for a trailing comment, the following line for
	// an own-line comment, the whole function for a doc-comment directive.
	file                 string
	fromLine, toLine     int
	malformed, unknownAn bool
}

// collectDirectives parses every //lint:ignore comment in the package and
// computes its coverage. known is the set of analyzer names the run
// understands; directives naming anything else are flagged rather than
// silently ignored (a typo'd name would otherwise suppress nothing and
// report nothing).
func collectDirectives(pkg *Package, known map[string]bool) []directive {
	var dirs []directive
	for _, f := range pkg.Files {
		tokFile := pkg.Fset.File(f.Pos())
		if tokFile == nil {
			continue
		}
		src := pkg.Src[tokFile.Name()]
		docRange := funcDocRanges(pkg.Fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				d := directive{
					pos:  pkg.Fset.Position(c.Pos()),
					file: tokFile.Name(),
				}
				fields := strings.Fields(strings.TrimPrefix(text, directivePrefix))
				if len(fields) == 0 {
					d.malformed = true
				} else {
					d.analyzer = fields[0]
					d.reason = strings.Join(fields[1:], " ")
					if d.reason == "" {
						d.malformed = true
					} else if !known[d.analyzer] {
						d.unknownAn = true
					}
				}
				if r, ok := docRange[cg]; ok {
					d.fromLine, d.toLine = r[0], r[1]
				} else if trailing(src, tokFile, c.Pos()) {
					d.fromLine = d.pos.Line
					d.toLine = d.pos.Line
				} else {
					next := pkg.Fset.Position(c.End()).Line + 1
					d.fromLine = next
					d.toLine = next
				}
				dirs = append(dirs, d)
			}
		}
	}
	return dirs
}

// funcDocRanges maps each function doc comment group to the line range of
// its function, so a doc-level directive covers the whole body.
func funcDocRanges(fset *token.FileSet, f *ast.File) map[*ast.CommentGroup][2]int {
	out := make(map[*ast.CommentGroup][2]int)
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
			out[fd.Doc] = [2]int{fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line}
		}
	}
	return out
}

// trailing reports whether the comment at pos shares its line with code.
func trailing(src []byte, tokFile *token.File, pos token.Pos) bool {
	if src == nil {
		return false
	}
	p := tokFile.Position(pos)
	lineStart := tokFile.Offset(tokFile.LineStart(p.Line))
	return strings.TrimSpace(string(src[lineStart:tokFile.Offset(pos)])) != ""
}

// directiveDiagnostics reports directives that are themselves broken.
func directiveDiagnostics(dirs []directive) []Diagnostic {
	var out []Diagnostic
	for _, d := range dirs {
		switch {
		case d.malformed:
			out = append(out, Diagnostic{
				Analyzer: DirectiveAnalyzerName,
				Pos:      d.pos,
				Message:  "suppression without a reason: want //lint:ignore <analyzer> <reason>",
			})
		case d.unknownAn:
			out = append(out, Diagnostic{
				Analyzer: DirectiveAnalyzerName,
				Pos:      d.pos,
				Message:  "//lint:ignore names unknown analyzer " + strconv.Quote(d.analyzer),
			})
		}
	}
	return out
}

// filterSuppressed drops diagnostics covered by a well-formed directive for
// their analyzer. Directive-hygiene diagnostics are never suppressible.
func filterSuppressed(diags []Diagnostic, dirs []directive) []Diagnostic {
	out := diags[:0]
	for _, diag := range diags {
		if diag.Analyzer != DirectiveAnalyzerName && suppressed(diag, dirs) {
			continue
		}
		out = append(out, diag)
	}
	return out
}

func suppressed(diag Diagnostic, dirs []directive) bool {
	for _, d := range dirs {
		if d.malformed || d.unknownAn {
			continue
		}
		if d.analyzer == diag.Analyzer && d.file == diag.Pos.Filename &&
			diag.Pos.Line >= d.fromLine && diag.Pos.Line <= d.toLine {
			return true
		}
	}
	return false
}
