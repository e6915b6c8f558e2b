package stats

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func sampleRun() *Run {
	return &Run{
		Accelerator: "MAERI-like", Op: "CONV", Layer: "conv1",
		M: 8, N: 25, K: 54,
		Cycles: 1000, MACs: 5000, MemAccesses: 700, Utilization: 0.5,
		Counters: map[string]uint64{"mn.mults": 5000, "gb.reads": 600},
		Energy:   map[string]float64{"MN": 1.5, "RN": 3.0},
	}
}

func TestRunJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleRun().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Run
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Cycles != 1000 || decoded.Layer != "conv1" || decoded.N != 25 {
		t.Errorf("round trip: %+v", decoded)
	}
}

func TestCounterFileFormat(t *testing.T) {
	s := sampleRun().CounterFile()
	if !strings.Contains(s, "cycles=1000\n") {
		t.Errorf("missing cycles line:\n%s", s)
	}
	if !strings.Contains(s, "gb.reads=600\n") || !strings.Contains(s, "mn.mults=5000\n") {
		t.Errorf("missing counters:\n%s", s)
	}
	// Sorted order: gb before mn.
	if strings.Index(s, "gb.reads") > strings.Index(s, "mn.mults") {
		t.Error("counters not sorted")
	}
}

func TestRunHelpers(t *testing.T) {
	r := sampleRun()
	if got := r.TimeSeconds(1); got != 1e-6 {
		t.Errorf("time %v", got)
	}
	if got := r.TotalEnergy(); got != 4.5 {
		t.Errorf("energy %v", got)
	}
}

func TestModelRunAggregation(t *testing.T) {
	mr := &ModelRun{
		Accelerator: "X", Model: "Y",
		Runs: []*Run{
			{Cycles: 100, MACs: 10, MemAccesses: 5, Utilization: 0.2,
				Energy: map[string]float64{"MN": 1}},
			{Cycles: 300, MACs: 30, MemAccesses: 15, Utilization: 0.6,
				Energy: map[string]float64{"MN": 2, "RN": 4}},
		},
	}
	if mr.TotalCycles() != 400 || mr.TotalMACs() != 40 || mr.TotalMemAccesses() != 20 {
		t.Errorf("totals: %d %d %d", mr.TotalCycles(), mr.TotalMACs(), mr.TotalMemAccesses())
	}
	if got := mr.TotalEnergy(); got != 7 {
		t.Errorf("energy %v", got)
	}
	br := mr.EnergyBreakdown()
	if br["MN"] != 3 || br["RN"] != 4 {
		t.Errorf("breakdown %v", br)
	}
	// Cycle-weighted utilization: (0.2·100 + 0.6·300)/400 = 0.5.
	if got := mr.AvgUtilization(); got != 0.5 {
		t.Errorf("avg util %v", got)
	}
	var buf bytes.Buffer
	if err := mr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyModelRun(t *testing.T) {
	mr := &ModelRun{}
	if mr.TotalCycles() != 0 || mr.AvgUtilization() != 0 || mr.TotalEnergy() != 0 {
		t.Error("empty model run not zero")
	}
}

// TestTotalEnergyOrderIndependent pins the sorted-walk fix for summing
// per-component energy: 1e16+1 rounds back to 1e16 in float64, so these
// three values total 0 when added in sorted-key order (a, b, c) but 1 in
// the order a, c, b. Before the fix the walk used Go's randomized map
// iteration order and the total flipped between the two from call to call.
func TestTotalEnergyOrderIndependent(t *testing.T) {
	r := &Run{Energy: map[string]float64{"a": 1e16, "b": 1, "c": -1e16}}
	for i := 0; i < 50; i++ {
		if got := r.TotalEnergy(); got != 0 {
			t.Fatalf("call %d: TotalEnergy = %v, want 0 (map-order drift)", i, got)
		}
	}
}

// TestModelTotalEnergyOrderIndependent is the same probe through the
// model-level aggregation path.
func TestModelTotalEnergyOrderIndependent(t *testing.T) {
	mr := &ModelRun{Runs: []*Run{
		{Energy: map[string]float64{"a": 1e16, "b": 1}},
		{Energy: map[string]float64{"c": -1e16}},
	}}
	for i := 0; i < 50; i++ {
		if got := mr.TotalEnergy(); got != 0 {
			t.Fatalf("call %d: TotalEnergy = %v, want 0 (map-order drift)", i, got)
		}
	}
}

// TestSumSortedOrderIndependent pins the sorted walk behind every energy
// and area total: 1e16+1 rounds back to 1e16 in float64, so this map sums
// to 0 in sorted-key order but 1 in the order a, c, b — a map-iteration-order
// walk would flip between them across runs.
func TestSumSortedOrderIndependent(t *testing.T) {
	br := map[string]float64{"a": 1e16, "b": 1, "c": -1e16}
	for i := 0; i < 50; i++ {
		if got := SumSorted(br); got != 0 {
			t.Fatalf("call %d: SumSorted = %v, want 0 (map-order drift)", i, got)
		}
	}
}
