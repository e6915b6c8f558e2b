package engine

import (
	"reflect"
	"testing"

	"repro/internal/comp/names"
	"repro/internal/config"
	"repro/internal/dnn"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// The fast-forward differential: every sim.Kernel-driven architecture ×
// operation pair runs twice — fully ticked (-fastforward=false) and
// fast-forwarded — on a bandwidth-starved DRAM configuration that maximizes
// skippable stall windows. The two runs must be bit-identical in outputs,
// cycles, every counter and the per-tier breakdown; the only permitted
// difference is the trace.ff.skipped_cycles observability counter, which
// only the fast-forwarded run grows. This is the exactness contract of
// DESIGN.md's "Sim kernel and architecture registry" section.

// starvedHW builds a preset with DRAM throttled to a trickle so barrier
// prefetches dominate the runtime (the workload fast-forward targets).
func starvedHW(t *testing.T, arch string, disableFF bool) config.Hardware {
	t.Helper()
	hw, err := sim.PresetHW(arch, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	hw.Preloaded = true
	hw.DRAM.BandwidthGBs = 1
	hw.DRAM.Modules = 1
	hw.DisableFastForward = disableFF
	return hw
}

type ffRunFn func(acc *Accelerator) (*tensor.Tensor, *stats.Run, error)

// ffRunPair executes fn ticked and fast-forwarded (both traced) and returns
// the two runs after asserting bitwise-identical results. The returned value
// is the fast-forwarded run's skipped-cycle count.
func ffRunPair(t *testing.T, arch, label string, fn ffRunFn) uint64 {
	t.Helper()
	var outs [2]*tensor.Tensor
	var runs [2]*stats.Run
	for i, disable := range []bool{true, false} {
		hw := starvedHW(t, arch, disable)
		hw.Trace = &trace.Config{}
		acc, err := New(hw)
		if err != nil {
			t.Fatalf("%s: New: %v", label, err)
		}
		outs[i], runs[i], err = fn(acc)
		if err != nil {
			t.Fatalf("%s (disableFF=%v): %v", label, disable, err)
		}
	}
	ticked, ff := runs[0], runs[1]
	if !reflect.DeepEqual(outs[0].Data(), outs[1].Data()) {
		t.Errorf("%s: output tensors diverged", label)
	}
	if ticked.Cycles != ff.Cycles {
		t.Errorf("%s: cycles diverged: ticked %d, fast-forward %d", label, ticked.Cycles, ff.Cycles)
	}
	if ticked.MACs != ff.MACs || ticked.MemAccesses != ff.MemAccesses ||
		ticked.Utilization != ff.Utilization {
		t.Errorf("%s: summary diverged: ticked %+v, fast-forward %+v", label, ticked, ff)
	}
	skipped := ff.Counters[names.TraceFFSkippedCycles]
	ffCounters := make(map[string]uint64, len(ff.Counters))
	for k, v := range ff.Counters {
		if k == names.TraceFFSkippedCycles {
			continue // the one permitted difference: skip observability
		}
		ffCounters[k] = v
	}
	if !reflect.DeepEqual(ticked.Counters, ffCounters) {
		t.Errorf("%s: counters diverged:\nticked: %v\nfast-forward: %v", label, ticked.Counters, ffCounters)
	}
	if !reflect.DeepEqual(ticked.Breakdown, ff.Breakdown) {
		t.Errorf("%s: breakdown diverged:\nticked: %v\nfast-forward: %v", label, ticked.Breakdown, ff.Breakdown)
	}
	return skipped
}

func TestFastForwardTickedParity(t *testing.T) {
	cs := tensor.ConvShape{R: 3, S: 3, C: 4, G: 1, K: 4, N: 1, X: 8, Y: 8, Stride: 1, Padding: 1}
	gemmA := randTensor(0x61, 9, 24)
	gemmB := randTensor(0x62, 24, 7)
	convIn := randTensor(0x63, 1, 4, 8, 8)
	convW := randTensor(0x64, 4, 4, 3, 3)
	gemm := func(acc *Accelerator) (*tensor.Tensor, *stats.Run, error) {
		return acc.RunGEMM(gemmA, gemmB, "ffparity")
	}
	conv := func(acc *Accelerator) (*tensor.Tensor, *stats.Run, error) {
		return acc.RunConv(convIn, convW, cs, "ffparity")
	}

	// The dense controller's weight loads are barriers, so its starved runs
	// have DRAM stalls to skip and must actually exercise fast-forward: a
	// parity pass with zero skips would only prove the feature never
	// engaged. The sparse controller double-buffers its stationary loads
	// (no barrier), so its rows pin parity only.
	for _, op := range []struct {
		name string
		fn   ffRunFn
	}{{"gemm", gemm}, {"conv", conv}} {
		if ffRunPair(t, "maeri", "maeri "+op.name, op.fn) == 0 {
			t.Errorf("starved maeri %s skipped no cycles — fast-forward never engaged", op.name)
		}
		ffRunPair(t, "sigma", "sigma "+op.name, op.fn)
	}

	// Sparse controller across all three scheduling policies.
	spA := randTensor(0x65, 16, 24)
	prune := dnn.NewRNG(0x66)
	d := spA.Data()
	for i := range d {
		if prune.Float64() < 0.8 {
			d[i] = 0
		}
	}
	spB := randTensor(0x67, 24, 9)
	for _, pol := range []sched.Policy{sched.NS, sched.RDM, sched.LFF} {
		pol := pol
		ffRunPair(t, "sigma", "sigma spmm "+pol.String(), func(acc *Accelerator) (*tensor.Tensor, *stats.Run, error) {
			return acc.RunSpMM(spA, spB, "ffparity", &pol)
		})
	}
}

// The rigid runners never build a sim.Kernel (DESIGN.md, "why the rigid
// runners stay off the kernel"), so DisableFastForward must change nothing
// on them and no cycle is ever accounted as skipped.
func TestDisableFastForwardChangesNothingOnRigidRunners(t *testing.T) {
	cs := tensor.ConvShape{R: 3, S: 3, C: 4, G: 1, K: 4, N: 1, X: 8, Y: 8, Stride: 1, Padding: 1}
	convIn := randTensor(0x63, 1, 4, 8, 8)
	convW := randTensor(0x64, 4, 4, 3, 3)
	for _, arch := range []string{"tpu", "snapea"} {
		skipped := ffRunPair(t, arch, arch+" conv", func(acc *Accelerator) (*tensor.Tensor, *stats.Run, error) {
			return acc.RunConv(convIn, convW, cs, "ffrigid")
		})
		if skipped != 0 {
			t.Errorf("%s conv accounted %d skipped cycles without a kernel", arch, skipped)
		}
	}
}

// Untraced runs must match with NO exemption: fast-forward may not grow any
// counter when tracing is off, so the full counter file stays byte-exact —
// the invariant the dispatch-parity goldens and check.Sweep rely on.
func TestFastForwardUntracedCounterFileExact(t *testing.T) {
	gemmA := randTensor(0x71, 9, 24)
	gemmB := randTensor(0x72, 24, 7)
	var files [2]string
	var cycles [2]uint64
	for i, disable := range []bool{true, false} {
		hw := starvedHW(t, "maeri", disable)
		acc, err := New(hw)
		if err != nil {
			t.Fatal(err)
		}
		_, run, err := acc.RunGEMM(gemmA, gemmB, "ffexact")
		if err != nil {
			t.Fatal(err)
		}
		files[i] = run.CounterFile()
		cycles[i] = run.Cycles
	}
	if cycles[0] != cycles[1] {
		t.Errorf("cycles diverged: ticked %d, fast-forward %d", cycles[0], cycles[1])
	}
	if files[0] != files[1] {
		t.Errorf("untraced counter files diverged:\n--- ticked ---\n%s--- fast-forward ---\n%s", files[0], files[1])
	}
}
