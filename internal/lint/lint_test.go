package lint_test

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func TestCounterNames(t *testing.T) {
	linttest.Run(t, lint.CounterNames(), "counternames")
}

func TestFloatCmp(t *testing.T) {
	linttest.Run(t, lint.FloatCmp(), "floatcmp")
}

func TestGlobalRand(t *testing.T) {
	linttest.Run(t, lint.GlobalRand(), "globalrand")
}

func TestHotPathAlloc(t *testing.T) {
	linttest.Run(t, lint.HotPathAlloc(nil), "hotpathalloc")
}

// TestHotPathAllocExtraRoots drives the configured-hot-leaf mechanism the
// real suite uses for mem/mn/rn/dn leaves called from another package's
// tick loop, including the finding for a leaf that matches nothing.
func TestHotPathAllocExtraRoots(t *testing.T) {
	extra := map[string][]string{
		"repro/internal/lint/testdata/hotleaf": {"Leaf.Touch", "Leaf.Gone"},
	}
	linttest.Run(t, lint.HotPathAlloc(extra), "hotleaf")
}

// TestHotPathAllocChipRoots pins the chip-interconnect tier of the root
// table: the SharedDRAM.Serve / CorePort.* shapes added for the multi-core
// composition are rooted the same way, including transitive reach from a
// port method into the grant queue.
func TestHotPathAllocChipRoots(t *testing.T) {
	extra := map[string][]string{
		"repro/internal/lint/testdata/chipleaf": {"grantQueue.Serve", "port.FetchCycles"},
	}
	linttest.Run(t, lint.HotPathAlloc(extra), "chipleaf")
}

// TestUnknownAnalyzerDirective pins the hygiene rule that a typo'd
// //lint:ignore target is flagged instead of silently suppressing nothing.
func TestUnknownAnalyzerDirective(t *testing.T) {
	linttest.Run(t, lint.FloatCmp(), "directives")
}

func TestMapOrder(t *testing.T) {
	linttest.Run(t, lint.MapOrder(), "maporder")
}

func TestWallClock(t *testing.T) {
	linttest.Run(t, lint.WallClock([]string{"repro/internal/lint/testdata/wallclock"}), "wallclock")
}

// TestWallClockUnrestricted pins the allowlist seam: the same wall-clock
// reads in a package off the restricted list (the serve layer's latency
// measurement shape) produce no findings.
func TestWallClockUnrestricted(t *testing.T) {
	linttest.Run(t, lint.WallClock(lint.DefaultWallClockPackages()), "wallclockfree")
}

func TestMutexHeld(t *testing.T) {
	linttest.Run(t, lint.MutexHeld(), "mutexheld")
}

func TestCtxCancel(t *testing.T) {
	linttest.Run(t, lint.CtxCancel(), "ctxcancel")
}

func TestAtomicMix(t *testing.T) {
	linttest.Run(t, lint.AtomicMix(), "atomicmix")
}

// TestSuppressionsAudit covers stonnelint -suppressions' engine: every
// //lint:ignore directive under a directory is listed with its position,
// analyzer and reason, sorted, with broken directives annotated rather
// than dropped.
func TestSuppressionsAudit(t *testing.T) {
	var sups []lint.Suppression
	for _, fixture := range []string{"directives", "maporder"} {
		got, err := lint.Suppressions("testdata/"+fixture, lint.DefaultAnalyzers())
		if err != nil {
			t.Fatal(err)
		}
		sups = append(sups, got...)
	}

	var maporder, unknown *lint.Suppression
	for i := range sups {
		s := &sups[i]
		switch s.Analyzer {
		case "maporder":
			maporder = s
		case "floatcompare":
			unknown = s
		}
	}
	if maporder == nil {
		t.Fatalf("maporder suppression not listed: %v", sups)
	}
	if want := "probe values are powers of two, addition is exact in any order"; maporder.Reason != want {
		t.Errorf("maporder reason = %q, want %q", maporder.Reason, want)
	}
	if maporder.Note != "" {
		t.Errorf("well-formed suppression carries note %q", maporder.Note)
	}
	if !strings.HasSuffix(maporder.File, "testdata/maporder/fixture.go") || maporder.Line == 0 {
		t.Errorf("maporder position = %s:%d", maporder.File, maporder.Line)
	}
	if unknown == nil {
		t.Fatalf("unknown-analyzer directive not listed: %v", sups)
	}
	if unknown.Note != "unknown analyzer" {
		t.Errorf("unknown-analyzer note = %q", unknown.Note)
	}
	if !strings.Contains(unknown.String(), "[unknown analyzer]") {
		t.Errorf("String() hides the note: %s", unknown.String())
	}
	if !sort.SliceIsSorted(sups, func(i, j int) bool {
		if sups[i].File != sups[j].File {
			return sups[i].File < sups[j].File
		}
		return sups[i].Line < sups[j].Line
	}) {
		t.Errorf("audit output not sorted: %v", sups)
	}
}
