package exp

import (
	"context"
	"math"
	"reflect"
	"testing"
)

// Fanning experiment jobs across a simpool must not change a single
// simulated number. Fig5 exercises the full stack (conv + gemm lowering, all
// three fabrics, energy model) with each model's workload shared by its
// three jobs, so we run it serially and with 4 and GOMAXPROCS workers and
// require the rows to match bit-for-bit — cycles, MACs, utilization, energy
// and the complete per-model counter snapshots.
func TestFig5SerialParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig5 runs in -short mode")
	}
	ctx := context.Background()
	tags := []string{"M", "S"} // two models × three arches = six jobs
	serial, err := Fig5Par(ctx, 1, 2*testScale, tags)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 0} {
		par, err := Fig5Par(ctx, workers, 2*testScale, tags)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d rows, serial has %d", workers, len(par), len(serial))
		}
		for i := range serial {
			s, p := serial[i], par[i]
			if s.Model != p.Model || s.Arch != p.Arch {
				t.Fatalf("workers=%d row %d: order changed: %s/%s vs %s/%s",
					workers, i, s.Model, s.Arch, p.Model, p.Arch)
			}
			if s.Cycles != p.Cycles {
				t.Errorf("workers=%d %s/%s: cycles %d != %d", workers, s.Model, s.Arch, p.Cycles, s.Cycles)
			}
			if s.MACs != p.MACs {
				t.Errorf("workers=%d %s/%s: MACs %d != %d", workers, s.Model, s.Arch, p.MACs, s.MACs)
			}
			if s.Utilization != p.Utilization {
				t.Errorf("workers=%d %s/%s: utilization %v != %v", workers, s.Model, s.Arch, p.Utilization, s.Utilization)
			}
			if !sameEnergy(s, p) {
				t.Errorf("workers=%d %s/%s: energy differs", workers, s.Model, s.Arch)
			}
			if !reflect.DeepEqual(s.Counters, p.Counters) {
				t.Errorf("workers=%d %s/%s: counter snapshots differ", workers, s.Model, s.Arch)
				for k, v := range s.Counters {
					if p.Counters[k] != v {
						t.Logf("  %s: serial %d parallel %d", k, v, p.Counters[k])
					}
				}
			}
		}
	}
}

// Repeated serial runs must also be deterministic — the anchor the
// parallel comparison rests on.
func TestFig5SerialDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig5 runs in -short mode")
	}
	ctx := context.Background()
	tags := []string{"S"}
	a, err := Fig5Par(ctx, 1, 2*testScale, tags)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig5Par(ctx, 1, 2*testScale, tags)
	if err != nil {
		t.Fatal(err)
	}
	// The energy fold runs in sorted key order (stats.SumSorted), so the
	// float results are pinned bit-for-bit too.
	for i := range a {
		if a[i].Cycles != b[i].Cycles || a[i].MACs != b[i].MACs ||
			a[i].Utilization != b[i].Utilization || !sameEnergy(a[i], b[i]) ||
			!reflect.DeepEqual(a[i].Counters, b[i].Counters) {
			t.Errorf("row %d (%s/%s): two serial Fig5 runs differ", i, a[i].Model, a[i].Arch)
		}
	}
}

// sameEnergy reports whether two rows carry bit-identical energy totals and
// breakdowns.
func sameEnergy(a, b Fig5Row) bool {
	if math.Float64bits(a.TotalEnergy) != math.Float64bits(b.TotalEnergy) || len(a.EnergyUJ) != len(b.EnergyUJ) {
		return false
	}
	for k, v := range a.EnergyUJ {
		if w, ok := b.EnergyUJ[k]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}
