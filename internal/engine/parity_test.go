package engine

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// The dispatch-parity test pins every registered architecture against
// golden result fingerprints generated by the pre-registry engine (the
// Ctrl-switch dispatch): the refactor moved dispatch into the registry and
// the cycle loop into the sim kernel, and these runs prove the simulated
// behaviour — output values, cycles, and every activity counter — is
// unchanged. Regenerate with STONNE_UPDATE_PARITY=1 go test ./internal/engine
// -run TestDispatchParity (only after an intentional model change).

func parityRender(out *tensor.Tensor, run *stats.Run) string {
	h := fnv.New64a()
	for _, v := range out.Data() {
		fmt.Fprintf(h, "%g,", v)
	}
	return fmt.Sprintf("output_fnv64a=%016x\nutilization=%.9f\nmacs=%d\nmem_accesses=%d\n%s",
		h.Sum64(), run.Utilization, run.MACs, run.MemAccesses, run.CounterFile())
}

// parityRuns runs the eight dispatch-parity cases — every registered
// architecture × {gemm, conv} on one fixed operand set — with tune applied
// to each preset, and hands each result to visit.
func parityRuns(t *testing.T, tune func(*config.Hardware), visit func(arch, op string, out *tensor.Tensor, run *stats.Run)) {
	t.Helper()
	archs := sim.List()
	if len(archs) != 4 {
		t.Fatalf("registry lists %d architectures, want 4", len(archs))
	}
	cs := tensor.ConvShape{R: 3, S: 3, C: 4, G: 1, K: 4, N: 1, X: 8, Y: 8, Stride: 1, Padding: 1}
	gemmA := randTensor(0x11, 6, 8)
	gemmB := randTensor(0x22, 8, 5)
	convIn := randTensor(0x33, 1, 4, 8, 8)
	convW := randTensor(0x44, 4, 4, 3, 3)

	for _, arch := range archs {
		hw := arch.Preset(64, 16)
		hw.Preloaded = true
		tune(&hw)
		acc, err := New(hw)
		if err != nil {
			t.Fatalf("%s: New: %v", arch.Name, err)
		}
		if got := acc.Arch(); got != arch.Name {
			t.Fatalf("resolved arch %q for the %q preset", got, arch.Name)
		}
		for _, op := range []string{"gemm", "conv"} {
			var out *tensor.Tensor
			var run *stats.Run
			if op == "gemm" {
				out, run, err = acc.RunGEMM(gemmA, gemmB, "parity")
			} else {
				out, run, err = acc.RunConv(convIn, convW, cs, "parity")
			}
			if err != nil {
				t.Fatalf("%s %s: %v", arch.Name, op, err)
			}
			visit(arch.Name, op, out, run)
		}
	}
}

// checkGolden compares got with the golden file at path, or rewrites the
// file when update is set.
func checkGolden(t *testing.T, path, got string, update bool) {
	t.Helper()
	if update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with STONNE_UPDATE_PARITY=1 to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s: result diverged\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestDispatchParity(t *testing.T) {
	update := os.Getenv("STONNE_UPDATE_PARITY") != ""
	parityRuns(t, func(*config.Hardware) {}, func(arch, op string, out *tensor.Tensor, run *stats.Run) {
		checkGolden(t, filepath.Join("testdata", "parity", arch+"_"+op+".golden"), parityRender(out, run), update)
	})
}

// TestTracedBreakdownParity pins the cycle attribution of the eight parity
// runs: every tier's class totals and the spans the recorder exports, at a
// 64-cycle interval and at one cycle (where the span layout is the class of
// every single cycle), plus the counter file. The recorder classifies each
// tier by per-cycle counter deltas, so this catches a counter charged on the
// wrong cycle even where the run's totals stay the same. The congested pass
// (one-deep operand FIFOs, a one-port RN, a 64-wide DN) makes the DN stall
// on most cycles, which the parity presets never do.
func TestTracedBreakdownParity(t *testing.T) {
	update := os.Getenv("STONNE_UPDATE_PARITY") != ""
	var b strings.Builder
	for _, pass := range []struct {
		name     string
		interval int
		tune     func(*config.Hardware)
	}{
		{"interval=64", 64, func(*config.Hardware) {}},
		{"interval=1", 1, func(*config.Hardware) {}},
		{"interval=1 congested", 1, func(hw *config.Hardware) { hw.FIFODepth, hw.RNBandwidth, hw.DNBandwidth = 1, 1, 64 }},
	} {
		var rt *trace.RunTrace
		parityRuns(t, func(hw *config.Hardware) {
			pass.tune(hw)
			hw.Trace = &trace.Config{SpanInterval: pass.interval, OnComplete: func(r *trace.RunTrace) { rt = r }}
		}, func(arch, op string, _ *tensor.Tensor, run *stats.Run) {
			if rt == nil {
				t.Fatalf("%s %s: no trace delivered", arch, op)
			}
			h := fnv.New64a()
			h.Write([]byte(run.CounterFile()))
			fmt.Fprintf(&b, "%s %s %s cycles=%d counters_fnv64a=%016x\n", arch, op, pass.name, run.Cycles, h.Sum64())
			for _, tier := range rt.Tiers {
				h := fnv.New64a()
				for _, sp := range tier.Spans {
					fmt.Fprintf(h, "%d:%d:%d,", sp.Class, sp.Start, sp.Dur)
				}
				bd := run.Breakdown[tier.Name]
				fmt.Fprintf(&b, "  %s busy=%d stall_input=%d stall_bandwidth=%d drain=%d idle=%d spans=%d spans_fnv64a=%016x\n",
					tier.Name, bd.Busy, bd.StallInput, bd.StallBandwidth, bd.Drain, bd.Idle, len(tier.Spans), h.Sum64())
			}
			rt = nil
		})
	}
	checkGolden(t, filepath.Join("testdata", "parity", "traced_breakdown.golden"), b.String(), update)
}

// TestRegistryResolveOrder pins the tie-break that matters: both the
// systolic and flexible dense compositions use the dense controller, and
// the point-to-point DN must select the systolic runner.
func TestRegistryResolveOrder(t *testing.T) {
	for name, wantSched := range map[string]bool{"tpu": false, "maeri": false, "sigma": true, "snapea": false} {
		hw, err := sim.PresetHW(name, 64, 16)
		if err != nil {
			t.Fatal(err)
		}
		acc, err := New(hw)
		if err != nil {
			t.Fatal(err)
		}
		if acc.Arch() != name {
			t.Errorf("preset %q resolved to %q", name, acc.Arch())
		}
		if acc.SupportsScheduling() != wantSched {
			t.Errorf("%s: SupportsScheduling = %v", name, acc.SupportsScheduling())
		}
		if got := acc.SupportsEarlyCut(); got != (name == "snapea") {
			t.Errorf("%s: SupportsEarlyCut = %v", name, got)
		}
	}
	if _, err := sim.PresetHW("eyeriss", 64, 16); err == nil {
		t.Error("unknown preset name did not error")
	} else if want := sim.UnknownArchError("eyeriss").Error(); err.Error() != want {
		t.Errorf("unknown-arch error %q, want %q", err, want)
	}
}
