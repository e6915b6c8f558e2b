// Package repro's testing.B benchmarks are the ablations for the design
// choices DESIGN.md calls out and the raw per-fabric engine runs; each
// reports its simulated metric via b.ReportMetric. Host speed is measured
// by the benchmark in bench/, the paper's tables and figures are printed by
// cmd/experiments and asserted in internal/exp.
package repro

import (
	"testing"

	"repro/internal/config"
	"repro/internal/dnn"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/tensor"
	"repro/stonne"
)

// --- Raw engine benchmarks (cycles/sec of simulation throughput) --------

func benchEngineGEMM(b *testing.B, hw config.Hardware, m, n, k int) {
	hw.Preloaded = true
	acc, err := engine.New(hw)
	if err != nil {
		b.Fatal(err)
	}
	rng := dnn.NewRNG(1)
	A := tensor.New(m, k)
	B := tensor.New(k, n)
	for _, d := range [][]float32{A.Data(), B.Data()} {
		for i := range d {
			d[i] = float32(rng.Normal())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		_, run, err := acc.RunGEMM(A, B, "bench")
		if err != nil {
			b.Fatal(err)
		}
		cycles = run.Cycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

func BenchmarkEngineTPU64x64x64(b *testing.B) {
	benchEngineGEMM(b, config.TPULike(256), 64, 64, 64)
}

func BenchmarkEngineMAERI64x64x64(b *testing.B) {
	benchEngineGEMM(b, config.MAERILike(256, 128), 64, 64, 64)
}

func BenchmarkEngineSIGMA64x64x64(b *testing.B) {
	benchEngineGEMM(b, config.SIGMALike(256, 128), 64, 64, 64)
}

// --- Ablations ----------------------------------------------------------

// BenchmarkAblationFIFODepth sweeps the operand FIFO depth: deeper FIFOs
// let delivery run further ahead of compute and absorb reduction stalls.
func BenchmarkAblationFIFODepth(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8, 16} {
		b.Run(depthName(depth), func(b *testing.B) {
			hw := config.MAERILike(128, 32)
			hw.FIFODepth = depth
			hw.Preloaded = true
			acc, err := engine.New(hw)
			if err != nil {
				b.Fatal(err)
			}
			rng := dnn.NewRNG(2)
			A := tensor.New(32, 256)
			B := tensor.New(256, 32)
			for _, d := range [][]float32{A.Data(), B.Data()} {
				for i := range d {
					d[i] = float32(rng.Normal())
				}
			}
			b.ResetTimer()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				_, run, err := acc.RunGEMM(A, B, "ablation")
				if err != nil {
					b.Fatal(err)
				}
				cycles = run.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkAblationRN compares the reduction networks (ART+ACC vs plain
// ART, whose fold partials round-trip through the output ports).
func BenchmarkAblationRN(b *testing.B) {
	for _, cfg := range []struct {
		name string
		rn   config.RNType
	}{
		{"ART+ACC", config.ARTAccRN},
		{"ART", config.ARTRN},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			hw := config.MAERILike(128, 64)
			hw.RN = cfg.rn
			hw.Preloaded = true
			acc, err := engine.New(hw)
			if err != nil {
				b.Fatal(err)
			}
			rng := dnn.NewRNG(3)
			A := tensor.New(16, 512) // folds force accumulation traffic
			B := tensor.New(512, 16)
			for _, d := range [][]float32{A.Data(), B.Data()} {
				for i := range d {
					d[i] = float32(rng.Normal())
				}
			}
			b.ResetTimer()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				_, run, err := acc.RunGEMM(A, B, "ablation")
				if err != nil {
					b.Fatal(err)
				}
				cycles = run.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkAblationSparseFormat compares the bitmap and CSR sparse front
// formats — identical cycles, different metadata traffic.
func BenchmarkAblationSparseFormat(b *testing.B) {
	for _, cfg := range []struct {
		name string
		f    config.SparseFmt
	}{
		{"bitmap", config.FmtBitmap},
		{"csr", config.FmtCSR},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			hw := config.SIGMALike(128, 128)
			hw.SparseFormat = cfg.f
			hw.Preloaded = true
			acc, err := engine.New(hw)
			if err != nil {
				b.Fatal(err)
			}
			rng := dnn.NewRNG(4)
			A := tensor.New(64, 256)
			for i, d := 0, A.Data(); i < len(d); i++ {
				if rng.Float64() > 0.8 {
					d[i] = float32(rng.Normal())
				}
			}
			B := tensor.New(256, 32)
			for i, d := 0, B.Data(); i < len(d); i++ {
				d[i] = float32(rng.Normal())
			}
			b.ResetTimer()
			var meta uint64
			for i := 0; i < b.N; i++ {
				_, run, err := acc.RunSpMM(A, B, "ablation", nil)
				if err != nil {
					b.Fatal(err)
				}
				meta = run.Counters["gb.meta_reads"]
			}
			b.ReportMetric(float64(meta), "meta-reads")
		})
	}
}

// BenchmarkAblationForwarding toggles the Linear MN forwarding links for a
// convolution: identical cycles (injection is serialized either way), but
// the GB read and tree-wire energy drop with forwarding on.
func BenchmarkAblationForwarding(b *testing.B) {
	for _, cfg := range []struct {
		name string
		mn   config.MNType
	}{
		{"LMN", config.LinearMN},
		{"DMN-style", config.DisabledMN},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			hw := config.MAERILike(128, 32)
			hw.MN = cfg.mn
			hw.Preloaded = true
			acc, err := engine.New(hw)
			if err != nil {
				b.Fatal(err)
			}
			cs := tensor.ConvShape{R: 3, S: 3, C: 8, G: 1, K: 8, N: 1, X: 16, Y: 16, Stride: 1, Padding: 1}
			rng := dnn.NewRNG(5)
			in := tensor.New(1, cs.C, cs.X, cs.Y)
			w := tensor.New(cs.K, cs.C, cs.R, cs.S)
			for _, d := range [][]float32{in.Data(), w.Data()} {
				for i := range d {
					d[i] = float32(rng.Normal())
				}
			}
			b.ResetTimer()
			var reads uint64
			for i := 0; i < b.N; i++ {
				_, run, err := acc.RunConv(in, w, cs, "ablation")
				if err != nil {
					b.Fatal(err)
				}
				reads = run.Counters["gb.reads"]
			}
			b.ReportMetric(float64(reads), "gb-reads")
		})
	}
}

// BenchmarkAblationPrefetch compares double-buffered DRAM prefetch against
// a cold start (Preloaded=false vs true on the same run).
func BenchmarkAblationPrefetch(b *testing.B) {
	for _, cfg := range []struct {
		name      string
		preloaded bool
	}{
		{"cold-dram", false},
		{"preloaded", true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			hw := config.MAERILike(128, 64)
			hw.Preloaded = cfg.preloaded
			acc, err := engine.New(hw)
			if err != nil {
				b.Fatal(err)
			}
			rng := dnn.NewRNG(6)
			A := tensor.New(64, 128)
			B := tensor.New(128, 64)
			for _, d := range [][]float32{A.Data(), B.Data()} {
				for i := range d {
					d[i] = float32(rng.Normal())
				}
			}
			b.ResetTimer()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				_, run, err := acc.RunGEMM(A, B, "ablation")
				if err != nil {
					b.Fatal(err)
				}
				cycles = run.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkAblationDataflow pins the dense controller's stationary choice
// on a batch-1 fully-connected layer: forced weight-stationary reloads the
// stationary registers every fold with zero reuse, while the controller's
// automatic input-stationary choice streams the weights instead.
func BenchmarkAblationDataflow(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		df    config.Dataflow
		force bool
	}{
		{"auto", config.OutputStationary, false},
		{"forced-WS", config.WeightStationary, true},
		{"forced-IS", config.InputStationary, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			hw := config.MAERILike(128, 64)
			hw.Dataflow = cfg.df
			hw.ForceDataflow = cfg.force
			hw.Preloaded = true
			acc, err := engine.New(hw)
			if err != nil {
				b.Fatal(err)
			}
			rng := dnn.NewRNG(8)
			W := tensor.New(256, 512) // fc weights
			x := tensor.New(512, 1)   // batch-1 input column
			for _, d := range [][]float32{W.Data(), x.Data()} {
				for i := range d {
					d[i] = float32(rng.Normal())
				}
			}
			b.ResetTimer()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				_, run, err := acc.RunGEMM(W, x, "ablation")
				if err != nil {
					b.Fatal(err)
				}
				cycles = run.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkAblationSchedulingPolicies sweeps the three policies on one
// sparse layer (the kernel of Fig. 9).
func BenchmarkAblationSchedulingPolicies(b *testing.B) {
	for _, pol := range []sched.Policy{sched.NS, sched.RDM, sched.LFF} {
		b.Run(pol.String(), func(b *testing.B) {
			hw := config.SIGMALike(256, 128)
			hw.Preloaded = true
			acc, err := engine.New(hw)
			if err != nil {
				b.Fatal(err)
			}
			// High per-row variance, as trained-then-pruned filters have.
			rng := dnn.NewRNG(7)
			A := tensor.New(96, 256)
			d := A.Data()
			for r := 0; r < 96; r++ {
				density := 0.05 + 0.4*rng.Float64()
				for c := 0; c < 256; c++ {
					if rng.Float64() < density {
						d[r*256+c] = float32(rng.Normal())
					}
				}
			}
			B := tensor.New(256, 64)
			for i, bd := 0, B.Data(); i < len(bd); i++ {
				bd[i] = float32(rng.Normal())
			}
			p := pol
			b.ResetTimer()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				_, run, err := acc.RunSpMM(A, B, "ablation", &p)
				if err != nil {
					b.Fatal(err)
				}
				cycles = run.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// --- Full-model benchmark through the public API -------------------------

func BenchmarkFullModelQuickstart(b *testing.B) {
	const scale = 16 // the documented 1/16 spatial scale: one iteration in under a second
	model, err := stonne.ScaleSpatial(stonne.SqueezeNet(), scale)
	if err != nil {
		b.Fatal(err)
	}
	w := stonne.InitWeights(model, 1)
	if err := w.Prune(model.Sparsity); err != nil {
		b.Fatal(err)
	}
	input := stonne.RandomInput(model, 2)
	hw := stonne.MAERILike(128, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, mr, err := stonne.RunModel(model, w, input, hw, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(mr.TotalCycles()), "sim-cycles")
	}
}

func depthName(d int) string {
	return "depth-" + string(rune('0'+d/10)) + string(rune('0'+d%10))
}
