package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestVetTool drives the real binary the way `make lint` does: as the
// -vettool of go vet, run from the module root, plus the modes it has when
// run directly.
func TestVetTool(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs go vet with it")
	}
	const root = "../.."
	bin := filepath.Join(t.TempDir(), "stonnelint")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/stonnelint").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// run returns stdout, stderr and whether the command exited 0.
	run := func(name string, args ...string) (string, string, bool) {
		t.Helper()
		cmd := exec.Command(name, args...)
		cmd.Dir = root
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if _, exited := err.(*exec.ExitError); err != nil && !exited {
			t.Fatalf("%s %v: %v", name, args, err)
		}
		return stdout.String(), stderr.String(), err == nil
	}

	_, findings, ok := run("go", "vet", "-vettool="+bin, "./internal/lint/testdata/directives")
	if ok {
		t.Error("go vet exited 0 on the directives fixture")
	}
	for _, want := range []string{
		`fixture.go:7:2: //lint:ignore names unknown analyzer "floatcompare" (lintignore)`,
		`fixture.go:9:11: == compares float operands exactly`,
	} {
		if !strings.Contains(findings, want) {
			t.Errorf("directives fixture: no finding %q in:\n%s", want, findings)
		}
	}
	if n := strings.Count(findings, "fixture.go:"); n != 2 {
		t.Errorf("directives fixture: %d findings, want 2:\n%s", n, findings)
	}

	if _, stderr, ok := run("go", "vet", "-vettool="+bin, "./internal/comp/..."); !ok {
		t.Errorf("go vet over ./internal/comp/... is not clean:\n%s", stderr)
	}

	audit, _, _ := run(bin, "-suppressions")
	committed, err := os.ReadFile(filepath.Join(root, "SUPPRESSIONS.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if audit != string(committed) {
		t.Errorf("-suppressions differs from SUPPRESSIONS.txt:\n%s", audit)
	}

	version, _, _ := run(bin, "-V=full")
	if !regexp.MustCompile(`^stonnelint version devel .* buildID=[0-9a-f]+\n$`).MatchString(version) {
		t.Errorf("-V=full printed %q, which the go command cannot parse", version)
	}
	if flags, _, _ := run(bin, "-flags"); !json.Valid([]byte(flags)) {
		t.Errorf("-flags printed %q, want JSON", flags)
	}
}
