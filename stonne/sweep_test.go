package stonne

import "testing"

func TestRandomCaseDeterministicAndValid(t *testing.T) {
	for seed := uint64(0); seed < 64; seed++ {
		a, b := RandomCase(seed), RandomCase(seed)
		if a.String() != b.String() {
			t.Fatalf("seed %d: nondeterministic case: %s vs %s", seed, a, b)
		}
		hw, err := a.HW()
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, a, err)
		}
		if err := hw.Validate(); err != nil {
			t.Fatalf("seed %d (%s): invalid preset: %v", seed, a, err)
		}
		if _, err := a.Op.Check(); err != nil {
			t.Fatalf("seed %d (%s): invalid op: %v", seed, a, err)
		}
	}
}

func TestRandomCasesPass(t *testing.T) {
	n := uint64(60)
	if testing.Short() {
		n = 12
	}
	for seed := uint64(0); seed < n; seed++ {
		c := RandomCase(seed)
		rep, err := c.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.OK() {
			t.Fatalf("seed %d (%s): %s", seed, c, rep)
		}
	}
}

// TestSweep is the differential self-check gate: every registered
// architecture × workload kind × shape grid must verify against the CPU
// reference. Run with -v for each case's margin.
func TestSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in short mode")
	}
	for _, c := range SweepCases() {
		rep, err := c.Run()
		switch {
		case err != nil:
			t.Errorf("%v", err)
		case !rep.OK():
			t.Errorf("%s: %s", c, rep)
		case rep.Tol.Exact:
			t.Logf("ok   %s (ulp %d)", c, rep.MaxULP)
		default:
			t.Logf("ok   %s (max %.2f× allowed)", c, rep.MaxExcess)
		}
	}
}
