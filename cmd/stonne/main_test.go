package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestTraceDemo is the smoke check for the observability layer: the real
// stonne binary runs one traced MAERI GEMM end to end and the Chrome
// trace_event file it writes must parse, carry at least one metadata and one
// complete ("X") span event, no zero-duration span and no other phase.
func TestTraceDemo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "stonne")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/stonne").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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
