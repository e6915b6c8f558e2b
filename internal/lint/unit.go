package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	// Src maps filename to source bytes (directive classification needs
	// to see whether code precedes a comment on its line).
	Src map[string][]byte
	// Types carries the import path ("repro/internal/dn"); external test
	// packages have the "_test" suffix Go gives them.
	Types *types.Package
	Info  *types.Info
}

// Unit is one package as the go command hands it to a `go vet -vettool`
// checker: the fields of the vet.cfg file the suite reads. The go command
// owns everything a loader would otherwise re-implement — pattern
// expansion, build constraints, test variants, compiling dependencies —
// and the unit names the result: the files to check and the export data
// of every import.
type Unit struct {
	ImportPath string
	// GoFiles are absolute paths; a package with in-package tests arrives
	// with its _test.go files included.
	GoFiles []string
	// ImportMap resolves an import path as written in source to a package
	// path (they differ under vendoring); a path without an entry names
	// itself.
	ImportMap map[string]string
	// PackageFile locates the compiler export data of each package path.
	PackageFile map[string]string
	GoVersion   string
	// VetxOnly marks a unit vetted only for the facts it exports to its
	// importers. The suite has none, so such a unit is not analyzed.
	VetxOnly bool
	// VetxOutput is where the go command expects those facts.
	VetxOutput string
}

// ReadUnit reads a vet.cfg file.
func ReadUnit(cfgFile string) (*Unit, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	u := new(Unit)
	if err := json.Unmarshal(data, u); err != nil {
		return nil, fmt.Errorf("lint: parsing %s: %w", cfgFile, err)
	}
	return u, nil
}

// Load parses the unit's files and type-checks them against the export
// data of their imports.
func (u *Unit) Load() (*Package, error) {
	pkg, err := parseFiles(u.GoFiles)
	if err != nil {
		return nil, err
	}
	gc := importer.ForCompiler(pkg.Fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := u.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	})
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []string
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if mapped, ok := u.ImportMap[path]; ok {
				path = mapped
			}
			return gc.Import(path)
		}),
		GoVersion: u.GoVersion,
		Error:     func(err error) { typeErrs = append(typeErrs, err.Error()) },
	}
	// Every error reaches conf.Error, so Check's own return (the first of
	// them) adds nothing.
	pkg.Types, _ = conf.Check(u.ImportPath, pkg.Fset, pkg.Files, pkg.Info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s:\n\t%s", u.ImportPath, strings.Join(typeErrs, "\n\t"))
	}
	return pkg, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// parseFiles parses the named files, comments kept, into a Package that
// has syntax and source bytes but no types yet.
func parseFiles(filenames []string) (*Package, error) {
	pkg := &Package{Fset: token.NewFileSet(), Src: make(map[string][]byte, len(filenames))}
	for _, name := range filenames {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		f, err := parser.ParseFile(pkg.Fset, name, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		pkg.Src[name] = src
		pkg.Files = append(pkg.Files, f)
	}
	return pkg, nil
}
