package jobkey_test

import (
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/config"
	"repro/internal/jobkey"
	"repro/internal/mapper"
	"repro/internal/sim"
	"repro/internal/tensor"

	_ "repro/internal/engine" // register the architectures
)

// gemmJob is the fully-spelled-out reference job the golden vectors pin.
func gemmJob() jobkey.Job {
	return jobkey.Job{
		Arch:     "maeri",
		Contract: jobkey.Contract{RelTol: 1e-5},
		HW:       config.MAERILike(64, 16),
		Op:       jobkey.OpGEMM,
		M:        32, N: 32, K: 64,
		Seed:  1,
		Batch: 1,
	}
}

// TestGoldenVectors pins canonical-encoding equality across different
// spellings of the same job, and the exact canonical form of the reference
// job so accidental encoding changes surface as a named failure.
func TestGoldenVectors(t *testing.T) {
	ref := gemmJob()
	refKey, err := ref.Hash()
	if err != nil {
		t.Fatal(err)
	}

	// Spelling variants that must all collide with the reference:
	variants := map[string]jobkey.Job{}

	v := gemmJob()
	v.Batch = 0 // defaulted batch
	variants["zero batch"] = v

	v = gemmJob()
	v.Op = " GEMM " // case/space-insensitive op
	variants["op spelling"] = v

	v = gemmJob()
	v.HW.DisableFastForward = true // bit-exact knob, erased by Normalize
	variants["fast-forward disabled"] = v

	v = gemmJob()
	v.Policy = "LFF" // scheduling policy is meaningless outside spmm
	v.Sparsity = 0.9
	variants["non-spmm policy"] = v

	v = gemmJob()
	v.Conv = tensor.ConvShape{R: 3, S: 3, C: 8, G: 1, K: 8, N: 1, X: 8, Y: 8, Stride: 1}
	v.Tile = &mapper.Tile{TR: 1}
	variants["non-conv shape"] = v

	v = gemmJob()
	v.Model = "B"
	v.Scale = 32
	v.Chip = jobkey.Chip{Cores: 4, Placement: "batch", Banks: 16, Streams: 8}
	variants["non-model chip options"] = v

	for name, variant := range variants {
		k, err := variant.Hash()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k != refKey {
			t.Errorf("%s: key %s differs from the reference %s", name, k, refKey)
		}
	}

	// Semantic differences that must all separate from the reference:
	diffs := map[string]jobkey.Job{}

	v = gemmJob()
	v.Seed = 2
	diffs["seed"] = v

	v = gemmJob()
	v.K = 65
	diffs["shape"] = v

	v = gemmJob()
	v.Contract.RelTol = 2e-5 // a re-specified numeric contract must miss
	diffs["numeric contract"] = v

	v = gemmJob()
	v.Contract.ExactSum = true
	diffs["contract exactness"] = v

	v = gemmJob()
	v.HW.FIFODepth++
	diffs["hardware fifo"] = v

	v = gemmJob()
	v.HW.DRAM.BandwidthGBs = 128
	diffs["hardware dram"] = v

	v = gemmJob()
	v.HW.Preloaded = true
	diffs["preloaded"] = v

	v = gemmJob()
	v.Batch = 2
	diffs["batch"] = v

	v = gemmJob()
	v.Arch = "sigma"
	diffs["arch name"] = v

	seen := map[jobkey.Key]string{refKey: "reference"}
	for name, d := range diffs {
		k, err := d.Hash()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("%s: key collides with %s", name, prev)
		}
		seen[k] = name
	}

	// The canonical encoding itself is the golden artifact: sorted field
	// paths, no runtime-only fields, shortest-round-trip floats.
	canon, err := ref.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"job.Arch=\"maeri\"\n",
		"job.Contract.RelTol=1e-05\n",
		"job.HW.DRAM.BandwidthGBs=256\n",
		"job.Seed=1\n",
		"job.Tile=nil\n",
	} {
		if !strings.Contains(canon, want) {
			t.Errorf("canonical encoding missing %q:\n%s", want, canon)
		}
	}
	if strings.Contains(canon, "Trace") || strings.Contains(canon, "SharedMem") {
		t.Errorf("canonical encoding leaks runtime-only fields:\n%s", canon)
	}
	// Every hashed hardware value must be one a model reads: a field nothing
	// reads gives byte-identical results two content addresses. 21 is the
	// count after AccumulationBuffer, DRAM.SizeMB and DRAM.RowHitLatency —
	// which had no reader — were deleted; a new field must earn its line.
	if n := strings.Count(canon, "job.HW."); n != 21 {
		t.Errorf("canonical encoding has %d job.HW.* lines, want 21:\n%s", n, canon)
	}
	// Lines must come out sorted within each struct: a stable order is what
	// makes the encoding independent of declaration/request field order.
	lines := strings.Split(strings.TrimSpace(canon), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i-1] >= lines[i] {
			t.Fatalf("canonical lines not strictly sorted: %q >= %q", lines[i-1], lines[i])
		}
	}
}

// TestChipNormalization pins the chip-options canonicalization: on a
// single core the placement/banks/link knobs are dead and must not feed
// the key; on a multi-core chip they are live and must.
func TestChipNormalization(t *testing.T) {
	base := jobkey.Job{
		Arch: "maeri", HW: config.MAERILike(64, 16),
		Op: jobkey.OpModel, Model: "B", Seed: 1,
		Chip: jobkey.Chip{Cores: 1, Streams: 1},
	}
	k0, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}

	dead := base
	dead.Chip = jobkey.Chip{Cores: 0, Placement: "batch", Banks: 32, LinkGBs: 7, Streams: 0}
	if k, _ := dead.Hash(); k != k0 {
		t.Errorf("dead chip knobs changed the 1-core key: %s vs %s", k, k0)
	}

	// Scale 1 is the canonical full-size spelling; any other scale is a
	// different model.
	fullSize := base
	fullSize.Scale = 1
	if k, _ := fullSize.Hash(); k != k0 {
		t.Errorf("explicit scale 1 diverges from the omitted spelling: %s vs %s", k, k0)
	}
	scaled := base
	scaled.Scale = 32
	if k, _ := scaled.Hash(); k == k0 {
		t.Error("scaled model collides with the full-size job")
	}

	multi := base
	multi.Chip = jobkey.Chip{Cores: 4, Streams: 4}
	km, err := multi.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if km == k0 {
		t.Error("4-core chip collides with the 1-core job")
	}
	// "" and "layer" are the same placement; explicit default banks match
	// the omitted spelling.
	multiDefaults := base
	multiDefaults.Chip = jobkey.Chip{Cores: 4, Placement: "layer", Banks: 8, Streams: 4}
	if k, _ := multiDefaults.Hash(); k != km {
		t.Errorf("defaulted multi-core spellings diverge: %s vs %s", k, km)
	}
	for name, mutate := range map[string]func(*jobkey.Chip){
		"placement": func(c *jobkey.Chip) { c.Placement = "batch" },
		"banks":     func(c *jobkey.Chip) { c.Banks = 16 },
		"streams":   func(c *jobkey.Chip) { c.Streams = 8 },
		"link":      func(c *jobkey.Chip) { c.LinkGBs = 64 },
	} {
		v := multi
		mutate(&v.Chip)
		if k, _ := v.Hash(); k == km {
			t.Errorf("multi-core %s change did not change the key", name)
		}
	}
}

// TestRejectsUnknownOp pins strictness: junk never hashes.
func TestRejectsUnknownOp(t *testing.T) {
	j := gemmJob()
	j.Op = "matmul"
	if _, err := j.Hash(); err == nil {
		t.Error("unknown op hashed")
	}
	j = gemmJob()
	j.Arch = ""
	if _, err := j.Hash(); err == nil {
		t.Error("architecture-less job hashed")
	}
}

// caseJob converts one differential-sweep case into the serving layer's
// key material, exactly as the serve package does for a request.
func caseJob(t *testing.T, c check.Case) jobkey.Job {
	t.Helper()
	hw, err := c.HW()
	if err != nil {
		t.Fatalf("%s: %v", c, err)
	}
	arch, ok := sim.Lookup(c.Arch)
	if !ok {
		t.Fatalf("%s: unregistered arch", c)
	}
	j := jobkey.Job{
		Arch: c.Arch,
		Contract: jobkey.Contract{
			ExactSum:           arch.Contract.ExactSum,
			RelTol:             arch.Contract.RelTol,
			PostActivationConv: arch.Contract.PostActivationConv,
		},
		HW:   hw,
		Seed: c.Seed,
	}
	switch c.Op {
	case check.OpConv:
		j.Op, j.Conv = jobkey.OpConv, c.CS
	case check.OpSparse:
		j.Op = jobkey.OpSpMM
		j.M, j.N, j.K = c.M, c.N, c.K
		j.Sparsity, j.Policy = c.Sparsity, c.Policy.String()
	default:
		j.Op = jobkey.OpGEMM
		j.M, j.N, j.K = c.M, c.N, c.K
	}
	return j
}

// TestSweepCasesHashDistinct asserts every pair of the 96-case
// differential-sweep grid hashes differently — the separation half of the
// canonicalization contract over a corpus of real jobs. The sweep's seeds
// are per-case, so the test also re-checks with the seed normalized away:
// the shapes, policies and architectures alone must still separate every
// pair.
func TestSweepCasesHashDistinct(t *testing.T) {
	cases := check.SweepCases()
	if len(cases) < 96 {
		t.Fatalf("sweep grid shrank to %d cases", len(cases))
	}
	for _, zeroSeed := range []bool{false, true} {
		seen := make(map[jobkey.Key]string, len(cases))
		for _, c := range cases {
			j := caseJob(t, c)
			if zeroSeed {
				j.Seed = 0
			}
			k, err := j.Hash()
			if err != nil {
				t.Fatalf("%s: %v", c, err)
			}
			if prev, dup := seen[k]; dup {
				t.Errorf("zeroSeed=%t: %s collides with %s", zeroSeed, c, prev)
			}
			seen[k] = c.String()
		}
	}
}
