// Package energy implements the table-based energy and area models of the
// Output Module (Section III): activity counts from the counter file are
// multiplied by per-event energy costs, and area is summed from
// per-component costs — the same methodology STONNE borrows from Accelergy.
//
// The original tool derived its tables from Synopsys Design-Compiler
// synthesis and Cadence Innovus place-and-route of the MAERI/SIGMA/TPU RTL
// at 28nm. We cannot re-run those flows, so the tables below are
// calibrated to reproduce the published *shapes*: the reduction network
// dominating dynamic energy (84%/58%/43% of TPU/MAERI/SIGMA, Fig. 5b) and
// the SRAM-dominated area split (the Global Buffer is 70%/77%/82% of the
// MAERI/SIGMA/TPU totals, Fig. 5c). The derivation of each constant is
// commented next to it.
package energy

import (
	"math"
	"sort"

	"repro/internal/comp/names"
	"repro/internal/config"
	"repro/internal/stats"
)

// Table holds per-event dynamic energy costs in picojoules and per-cycle
// static power shares. Costs are for the paper's FP8 datatype at 28nm/1GHz.
type Table struct {
	PerEvent map[string]float64 // pJ per counted event
	// StaticPJPerCyclePerMS is leakage charged per multiplier switch per
	// cycle (covers its slice of all three networks).
	StaticPJPerCyclePerMS float64
	// StaticPJPerCycleGB is the Global Buffer leakage per cycle per KB.
	StaticPJPerCycleGBKB float64
}

// DefaultTable returns the FP8 table.
func DefaultTable() Table {
	return Table{
		PerEvent: map[string]float64{
			// Multiplier switches: an FP8 multiply plus operand latching.
			names.MNMults: 0.09,
			// Forwarding-link hop (register + short wire).
			names.MNForwards:    0.012,
			names.MNWeightLoads: 0.03,
			names.MNFifoPushes:  0.006,
			names.MNFifoPops:    0.006,

			// Reduction networks dominate the published breakdowns (84%,
			// 58% and 43% of the TPU/MAERI/SIGMA on-chip energy): each
			// event is an adder plus its pipeline register and the long
			// wires of the tree/chain level it drives. The three costs
			// are calibrated so the Fig. 5b shares come out at 256 MS.
			names.RNAddersLRN:   2.0,  // LRN accumulate: adder + psum register + drain chain slice
			names.RNAdders3to1:  3.0,  // ART 3:1 adder node + horizontal link
			names.RNAddersFAN:   1.42, // FAN 2:1 adder + forwarding mux
			names.RNAccAccesses: 0.12,
			names.RNOutputs:     0.08,

			// Distribution networks: per-link / per-switch traversals.
			names.DNLinkTraversals:   0.045, // tree or systolic edge
			names.DNSwitchTraversals: 0.03,  // Benes 2×2 switch hop
			names.DNInjections:       0.01,

			// Global buffer SRAM: per-element (FP8 byte) access.
			names.GBReads:     0.55,
			names.GBWrites:    0.65,
			names.GBMetaReads: 0.35,

			// Off-chip DRAM per-element transfer (amortized HBM2 energy).
			names.DRAMReads:  10.0,
			names.DRAMWrites: 10.0,

			// Control events.
			names.SNAPEASignChecks:   0.004,
			names.MNReconfigurations: 0.5,
			names.DRAMRowActivations: 2.0,
		},
		StaticPJPerCyclePerMS: 0.015,
		StaticPJPerCycleGBKB:  0.004,
	}
}

// componentOf maps a counter prefix to the breakdown component of Fig. 5b.
func componentOf(counter string) string {
	for i := 0; i < len(counter); i++ {
		if counter[i] == '.' {
			switch counter[:i] {
			case "gb":
				return "GB"
			case "dn":
				return "DN"
			case "mn":
				return "MN"
			case "rn":
				return "RN"
			case "dram":
				return "DRAM"
			default:
				return "CTRL"
			}
		}
	}
	return "CTRL"
}

// Apply fills run.Energy with the per-component dynamic + static energy in
// microjoules. Counters are accumulated in sorted-name order: float addition
// is not associative, so summing in Go's randomized map order would make the
// last bits of the totals differ from run to run (and between runs whose
// counter sets differ only by uncosted bookkeeping entries), breaking the
// bit-determinism the result cache keys on.
func (t Table) Apply(run *stats.Run, hw *config.Hardware) {
	counters := make([]string, 0, len(run.Counters))
	for counter := range run.Counters {
		counters = append(counters, counter)
	}
	sort.Strings(counters)
	br := map[string]float64{}
	for _, counter := range counters {
		cost, ok := t.PerEvent[counter]
		if !ok {
			continue // uncosted bookkeeping counters (stalls, waits)
		}
		br[componentOf(counter)] += cost * float64(run.Counters[counter])
	}
	// Static energy: charged to the component areas' owners.
	cycles := float64(run.Cycles)
	br["MN"] += t.StaticPJPerCyclePerMS * float64(hw.MSSize) * cycles * 0.4
	br["RN"] += t.StaticPJPerCyclePerMS * float64(hw.MSSize) * cycles * 0.4
	br["DN"] += t.StaticPJPerCyclePerMS * float64(hw.MSSize) * cycles * 0.2
	br["GB"] += t.StaticPJPerCycleGBKB * float64(hw.GBSizeKB) * cycles

	run.Energy = map[string]float64{}
	for k, v := range br {
		run.Energy[k] = v * 1e-6 // pJ → µJ
	}
}

// StalledStatic estimates how much of each component's static energy (in
// microjoules) was burned during non-busy cycles, using the run's per-tier
// cycle breakdown. It answers the Fig. 5-style question "how much leakage
// would a perfectly stall-free schedule save" — dynamic energy is activity
// driven and unaffected by stalls, so only the static share is attributed.
// Returns nil when the run carries no breakdown (untraced).
func (t Table) StalledStatic(run *stats.Run, hw *config.Hardware) map[string]float64 {
	if len(run.Breakdown) == 0 {
		return nil
	}
	// Per-cycle static rates, mirroring the component split in Apply.
	perMS := t.StaticPJPerCyclePerMS * float64(hw.MSSize)
	rates := map[string]float64{
		"DN":  perMS * 0.2,
		"MN":  perMS * 0.4,
		"RN":  perMS * 0.4,
		"MEM": t.StaticPJPerCycleGBKB * float64(hw.GBSizeKB),
	}
	out := map[string]float64{}
	for tier, b := range run.Breakdown {
		rate, ok := rates[tier]
		if !ok {
			continue
		}
		stalled := b.Total() - b.Busy
		out[tier] = rate * float64(stalled) * 1e-6 // pJ → µJ
	}
	return out
}

// Area constants (µm², 28nm), derived so that a 256-MS fabric with the
// paper's 108-KB Global Buffer reproduces the published area fractions:
// the GB is 70% of the MAERI-like total, 77% of SIGMA-like and 82% of
// TPU-like (Section VI-A). SRAM density is taken as 450 µm²/KB.
const (
	areaSRAMPerKB = 450.0
	areaMult      = 25.0 // FP8 multiplier switch incl. operand FIFO
	areaTreeNode  = 18.0 // distribution-tree link+switch slice per MS
	areaARTNode   = 38.4 // 3:1 adder + horizontal link + accumulator slice
	areaFANNode   = 14.7 // 2:1 adder + forwarding mux slice
	areaLRNNode   = 14.7 // accumulation register + adder slice
	areaBenesSw   = 2.0  // one 2×2 Benes switch
	areaPoPNWire  = 2.0  // point-to-point wire slice per PE
)

// Area returns the per-component area breakdown in µm² for a hardware
// configuration.
func Area(hw *config.Hardware) map[string]float64 {
	ms := float64(hw.MSSize)
	br := map[string]float64{
		"GB": areaSRAMPerKB * float64(hw.GBSizeKB),
		"MN": areaMult * ms,
	}
	switch hw.DN {
	case config.TreeDN:
		br["DN"] = areaTreeNode * ms
	case config.BenesDN:
		levels := 2*math.Log2(ms) + 1
		br["DN"] = areaBenesSw * levels * ms / 2
	case config.PointToPointDN:
		br["DN"] = areaPoPNWire * ms
	}
	switch hw.RN {
	case config.ARTRN, config.ARTAccRN:
		br["RN"] = areaARTNode * ms
	case config.FANRN:
		br["RN"] = areaFANNode * ms
	case config.LinearRN:
		br["RN"] = areaLRNNode * ms
	}
	return br
}

// TotalArea sums the breakdown in sorted-component order so the float
// total is bit-identical across calls.
func TotalArea(hw *config.Hardware) float64 { return stats.SumSorted(Area(hw)) }
