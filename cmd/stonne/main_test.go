package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestTraceDemo is the smoke check for the observability layer: the real
// stonne binary runs one traced MAERI GEMM end to end and the Chrome
// trace_event file it writes must parse, carry at least one metadata and one
// complete ("X") span event, no zero-duration span and no other phase.
func TestTraceDemo(t *testing.T) {
	bin := buildStonne(t)
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	if out, err := exec.Command(bin, "gemm", "-arch", "maeri", "-ms", "64", "-bw", "16",
		"-M", "32", "-N", "32", "-K", "64", "-trace", tracePath).CombinedOutput(); err != nil {
		t.Fatalf("stonne gemm -trace: %v\n%s", err, out)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Dur  uint64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	var meta, spans int
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			spans++
			if ev.Dur == 0 {
				t.Errorf("zero-duration span event %q", ev.Name)
			}
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	if meta == 0 || spans == 0 {
		t.Errorf("trace has %d metadata and %d span events, want at least one of each", meta, spans)
	}
}

// `stonne spmm` on a composition without the sparse controller runs the
// pruned operand as a dense GEMM. It used to exit 1 with "RunSpMM requires
// the sparse controller".
func TestSpMMOnDenseArch(t *testing.T) {
	bin := buildStonne(t)
	if out, err := exec.Command(bin, "spmm", "-arch", "maeri", "-ms", "64", "-bw", "16",
		"-M", "8", "-N", "8", "-K", "16", "-sparsity", "0.5", "-selfcheck").CombinedOutput(); err != nil {
		t.Fatalf("stonne spmm -arch maeri: %v\n%s", err, out)
	}
}

// `stonne model` exits 2 naming a flag the run would otherwise drop
// silently: -save-weights on a chip run, -progress on a single-core run.
func TestModelRejectsUnhonouredFlags(t *testing.T) {
	bin := buildStonne(t)
	dir := t.TempDir()
	model := filepath.Join(dir, "net.json")
	if err := os.WriteFile(model, []byte(`{"name": "net", "input_channels": 2, "input_size": 6,
  "layers": [{"type": "conv", "name": "c1", "filters": 4, "kernel": 3}, {"type": "relu"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-save-weights", []string{"-cores", "2", "-save-weights", filepath.Join(dir, "w.bin")}},
		{"-progress", []string{"-progress"}},
	} {
		t.Run(c.flag, func(t *testing.T) {
			args := append([]string{"model", "-file", model, "-arch", "tpu"}, c.args...)
			out, err := exec.Command(bin, args...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("stonne %v: %v, want exit status 2\n%s", args, err, out)
			}
			if !strings.Contains(string(out), c.flag) {
				t.Errorf("stonne %v: error does not name %s:\n%s", args, c.flag, out)
			}
		})
	}
}

// buildStonne builds the stonne binary into a test temp dir.
func buildStonne(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "stonne")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/stonne").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}
