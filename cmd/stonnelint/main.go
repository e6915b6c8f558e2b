// Command stonnelint is the simulator's invariant checker: the
// internal/lint analyzer suite as a `go vet -vettool` unit checker. The go
// command is its package loader — it expands the patterns, applies build
// constraints, builds the test variants and the export data of every
// import, and hands the tool one package per invocation as a vet.cfg file:
//
//	go build -o bin/stonnelint ./cmd/stonnelint
//	go vet -vettool=bin/stonnelint ./...
//	go vet -C bench -vettool=$PWD/bin/stonnelint ./...
//
// Per unit the tool runs every analyzer, applies the //lint:ignore
// suppression convention and prints surviving findings on stderr, one per
// line:
//
//	file:line:col: message (analyzer)
//
// It exits 1 when any finding survives and 2 when the unit cannot be
// loaded, which go vet turns into its own non-zero exit, so `make lint`
// and CI gate on it. Test files are part of the units go vet builds and
// are linted like the rest (individual analyzers may exempt them on
// principle — floatcmp lets golden tests pin bit-exact floats).
//
// Run directly, `stonnelint -list` prints the analyzers and `stonnelint
// -suppressions` lists every //lint:ignore directive under the current
// directory as
//
//	file:line: analyzer: reason
//
// so the full set of silenced findings is reviewable (CI diffs this output
// against the committed SUPPRESSIONS.txt allowlist — a new suppression
// must arrive as a reviewed allowlist edit). -V=full and -flags answer the
// two queries go vet makes of a vettool before it runs it.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	suppressions := flag.Bool("suppressions", false, "list every //lint:ignore directive under the current directory instead of running the analyzers")
	version := flag.String("V", "", "print the tool's version and build ID (go vet asks with -V=full)")
	flags := flag.Bool("flags", false, "print the flags go vet may pass through, as JSON (none)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: go vet -vettool=$(command -v stonnelint) [packages]\n")
		fmt.Fprintf(flag.CommandLine.Output(), "       stonnelint -list | -suppressions\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the repository's invariant analyzers over the packages go vet loads.\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Suppress a finding with a justified directive:\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "\t//lint:ignore <analyzer> <reason>\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.DefaultAnalyzers()
	switch {
	case *version != "":
		// The form the go command parses for a development tool. The hash
		// of the executable is the build ID, so the go command's vet cache
		// is invalidated whenever the analyzers change.
		exe, err := os.Executable()
		check(err)
		data, err := os.ReadFile(exe)
		check(err)
		fmt.Printf("stonnelint version devel sha256 buildID=%x\n", sha256.Sum256(data))
	case *flags:
		fmt.Println("[]")
	case *list:
		for _, a := range analyzers {
			fmt.Printf("%-17s %s\n", a.Name, a.Doc)
		}
	case *suppressions:
		sups, err := lint.Suppressions(".", analyzers)
		check(err)
		for _, s := range sups {
			fmt.Println(s)
		}
	case flag.NArg() == 1 && strings.HasSuffix(flag.Arg(0), ".cfg"):
		diags, err := analyzeUnit(flag.Arg(0), analyzers)
		check(err)
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
		}
		if len(diags) > 0 {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// check exits 2, the load-error status, on a non-nil error.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// analyzeUnit runs the suite over the one package cfgFile describes.
func analyzeUnit(cfgFile string, analyzers []*lint.Analyzer) ([]lint.Diagnostic, error) {
	unit, err := lint.ReadUnit(cfgFile)
	if err != nil {
		return nil, err
	}
	// The analyzers are package-local and export no facts; the empty file
	// is what lets the go command cache a dependency's unit.
	if unit.VetxOutput != "" {
		if err := os.WriteFile(unit.VetxOutput, nil, 0o666); err != nil {
			return nil, err
		}
	}
	if unit.VetxOnly {
		return nil, nil
	}
	pkg, err := unit.Load()
	if err != nil {
		return nil, err
	}
	return lint.Run(pkg, analyzers)
}
