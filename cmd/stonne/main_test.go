package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/stonne"
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

// A display flag never changes a result: with -progress, stdout and every
// -json, -counters and Chrome-trace file are byte-identical to the run
// without it — on each op, on a batch, and on a traced run.
func TestProgressNeverChangesResults(t *testing.T) {
	bin := buildStonne(t)
	small := []string{"-ms", "64", "-bw", "16"}
	for _, c := range []struct {
		name  string
		args  []string
		files []string // result files the run writes
	}{
		{"gemm", []string{"gemm", "-M", "64", "-N", "64", "-K", "256"}, []string{"j.json", "c.cnt"}},
		{"spmm", []string{"spmm", "-arch", "sigma", "-M", "64", "-N", "64", "-K", "256"}, []string{"j.json", "c.cnt"}},
		{"conv", []string{"conv", "-R", "3", "-S", "3", "-C", "16", "-Kf", "16", "-X", "16", "-Y", "16"}, []string{"j.json", "c.cnt"}},
		{"batch", []string{"gemm", "-M", "64", "-N", "64", "-K", "256", "-batch", "2"},
			[]string{"j.json.0", "j.json.1", "c.cnt.0", "c.cnt.1"}},
		{"trace", []string{"gemm", "-M", "64", "-N", "64", "-K", "256", "-trace", "t.json"},
			[]string{"j.json", "c.cnt", "t.json"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(extra ...string) (dir string, stdout, stderr []byte) {
				dir = t.TempDir()
				args := append(append(append(c.args, small...), "-json", "j.json", "-counters", "c.cnt"), extra...)
				cmd := exec.Command(bin, args...)
				cmd.Dir = dir
				var out, errOut bytes.Buffer
				cmd.Stdout, cmd.Stderr = &out, &errOut
				if err := cmd.Run(); err != nil {
					t.Fatalf("stonne %v: %v\n%s", args, err, errOut.Bytes())
				}
				return dir, out.Bytes(), errOut.Bytes()
			}
			plainDir, plainOut, _ := run()
			progDir, progOut, progErr := run("-progress")
			if !bytes.Contains(progErr, []byte("progress: ")) {
				t.Fatalf("-progress printed no progress line:\n%s", progErr)
			}
			if !bytes.Equal(plainOut, progOut) {
				t.Errorf("stdout differs with -progress:\n%s\nvs\n%s", plainOut, progOut)
			}
			for _, f := range c.files {
				plain, err := os.ReadFile(filepath.Join(plainDir, f))
				if err != nil {
					t.Fatal(err)
				}
				prog, err := os.ReadFile(filepath.Join(progDir, f))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(plain, prog) {
					t.Errorf("%s differs with -progress (%d vs %d bytes)", f, len(plain), len(prog))
				}
			}
		})
	}
}

// The progress board counts a run done under its progress label when its
// job returns, traced or not — never under the label of its trace.
func TestTraceSinkMarksRunsDone(t *testing.T) {
	for _, collect := range []bool{false, true} {
		s := newTraceSink(collect, true)
		for _, label := range []string{"run 0 (seed 1)", "run 1 (seed 2)"} {
			var h stonne.Hardware
			s.instrument(&h, label)
			h.Progress.Report(config.Progress{Cycles: 4096})
			if collect {
				h.Trace.OnComplete(&trace.RunTrace{Label: label + ": MAERI-like GEMM dmm"})
			}
			s.board.Finish(label)
		}
		if got := s.board.Summary(); got != "2/2 done" {
			t.Errorf("traced %v: board %q, want 2/2 done", collect, got)
		}
	}
}

// writeNet writes a two-conv model with half its weights pruned, so its
// cycles and MACs depend on the weights it runs with.
func writeNet(t *testing.T, dir string) string {
	t.Helper()
	model := filepath.Join(dir, "net.json")
	if err := os.WriteFile(model, []byte(`{"name": "net", "input_channels": 2, "input_size": 6, "sparsity": 0.5,
  "layers": [{"type": "conv", "name": "c1", "filters": 4, "kernel": 3}, {"type": "relu"},
    {"type": "conv", "name": "c2", "filters": 4, "kernel": 3}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	return model
}

// `stonne model` writes its summary with -json — the per-layer ModelRun on
// one core, the ChipRun on a chip — and saves the weights it ran with on
// either: the file a chip run saves reproduces the single-core per-layer
// cycles and MACs when passed back with -weights.
func TestModelWritesJSONAndSavesWeights(t *testing.T) {
	bin := buildStonne(t)
	dir := t.TempDir()
	model := writeNet(t, dir)
	stonneModel := func(args ...string) {
		t.Helper()
		args = append([]string{"model", "-file", model, "-arch", "sigma"}, args...)
		if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
			t.Fatalf("stonne %v: %v\n%s", args, err, out)
		}
	}
	decode := func(name string, v any) {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	weights := filepath.Join(dir, "w.bin")
	stonneModel("-json", filepath.Join(dir, "single.json"))
	stonneModel("-cores", "2", "-save-weights", weights, "-json", filepath.Join(dir, "chip.json"))
	stonneModel("-weights", weights, "-json", filepath.Join(dir, "replay.json"))

	var single, replay stats.ModelRun
	var chip stats.ChipRun
	decode("single.json", &single)
	decode("chip.json", &chip)
	decode("replay.json", &replay)
	if len(single.Runs) != 2 || len(replay.Runs) != 2 {
		t.Fatalf("per-layer runs: single %d, replay %d, want 2 each", len(single.Runs), len(replay.Runs))
	}
	for i, r := range single.Runs {
		if r.Cycles == 0 || r.Cycles != replay.Runs[i].Cycles || r.MACs != replay.Runs[i].MACs {
			t.Errorf("layer %s: single %d cycles %d MACs, replayed weights %d cycles %d MACs",
				r.Layer, r.Cycles, r.MACs, replay.Runs[i].Cycles, replay.Runs[i].MACs)
		}
	}
	if chip.Cores != 2 || len(chip.PerCore) != 2 || chip.MakespanCycles == 0 {
		t.Errorf("chip summary: %d cores, %d per-core runs, makespan %d", chip.Cores, len(chip.PerCore), chip.MakespanCycles)
	}
}

// `stonne model` exits 2 naming a flag the run would otherwise drop
// silently: -progress on a single-core run.
func TestModelRejectsUnhonouredFlags(t *testing.T) {
	bin := buildStonne(t)
	model := writeNet(t, t.TempDir())
	for _, c := range []struct {
		flag string
		args []string
	}{
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

// A preset at a fabric size config.Validate refuses is a bad -ms value:
// exit 2 at once, naming the limit. At MaxInt the TPU preset's square root
// used to count up to an overflow and never return.
func TestPresetSizeOutOfBoundExitsTwo(t *testing.T) {
	bin := buildStonne(t)
	for _, args := range [][]string{
		{"gemm", "-arch", "tpu", "-ms", "9223372036854775807", "-M", "8", "-N", "8", "-K", "8"},
		{"gemm", "-arch", "maeri", "-ms", "131072", "-M", "8", "-N", "8", "-K", "8"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
		late := ctx.Err()
		cancel()
		var exit *exec.ExitError
		if late != nil || !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("stonne %v: %v (deadline: %v), want exit status 2 within 10 s\n%s", args, err, late, out)
		}
		if !strings.Contains(string(out), "fabric size limit 65536") {
			t.Errorf("stonne %v: error does not name the limit:\n%s", args, out)
		}
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
