package sim

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
)

// gridWorkload is a streams×stages grid where every stage costs a fixed
// cycle count and hands off nothing — the pure-scheduler fixture.
type gridWorkload struct {
	streams, stages int
	cycles          uint64
}

func (w *gridWorkload) Streams() int { return w.streams }
func (w *gridWorkload) Stages() int  { return w.stages }
func (w *gridWorkload) RunStage(stream, stage, core int) ([]*stats.Run, int, error) {
	return []*stats.Run{{Cycles: w.cycles}}, 0, nil
}

func stubChip(t *testing.T, cores int, p Placement) *Chip {
	t.Helper()
	hw := make([]config.Hardware, cores)
	for i := range hw {
		hw[i] = config.MAERILike(64, 16)
	}
	chip, err := NewChip(ChipConfig{Cores: hw, Placement: p})
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

// TestChipLayerPipelining pins the event-driven schedule: with two equal
// stages on two cores and three streams, the pipeline fills and the
// makespan is (streams+1)×stage — not streams×stages×stage.
func TestChipLayerPipelining(t *testing.T) {
	chip := stubChip(t, 2, PlaceLayer)
	cr, err := chip.Run(context.Background(), &gridWorkload{streams: 3, stages: 2, cycles: 10})
	if err != nil {
		t.Fatal(err)
	}
	if cr.MakespanCycles != 40 {
		t.Errorf("layer-pipelined makespan = %d, want 40", cr.MakespanCycles)
	}
	if cr.Total.Cycles != 60 {
		t.Errorf("total work = %d, want 60", cr.Total.Cycles)
	}
	if cr.PerCore[0].Cycles != 30 || cr.PerCore[1].Cycles != 30 {
		t.Errorf("per-core split = %d/%d, want 30/30", cr.PerCore[0].Cycles, cr.PerCore[1].Cycles)
	}
}

// TestChipBatchParallel pins the batch policy: four whole streams dealt
// over two cores run two deep on each.
func TestChipBatchParallel(t *testing.T) {
	chip := stubChip(t, 2, PlaceBatch)
	cr, err := chip.Run(context.Background(), &gridWorkload{streams: 4, stages: 1, cycles: 10})
	if err != nil {
		t.Fatal(err)
	}
	if cr.MakespanCycles != 20 {
		t.Errorf("batch-parallel makespan = %d, want 20", cr.MakespanCycles)
	}
	if cr.Total.Cycles != 40 {
		t.Errorf("total work = %d, want 40", cr.Total.Cycles)
	}
}

// TestChipSharedMemWiring pins the parity-critical construction rule: a
// 1-core chip leaves SharedMem nil (private DRAM, byte-identical to the
// bare-kernel path); multi-core chips wire every core a distinct port.
func TestChipSharedMemWiring(t *testing.T) {
	chip, err := NewChip(ChipConfig{Cores: []config.Hardware{config.MAERILike(64, 16)}})
	if err != nil {
		t.Fatal(err)
	}
	if chip.Core(0).SharedMem != nil {
		t.Errorf("1-core chip wired a shared memory source — parity with the bare kernel is broken")
	}
	cores := []config.Hardware{config.MAERILike(64, 16), config.MAERILike(64, 16)}
	if chip, err = NewChip(ChipConfig{Cores: cores}); err != nil {
		t.Fatal(err)
	}
	p0, p1 := chip.Core(0).SharedMem, chip.Core(1).SharedMem
	if p0 == nil || p1 == nil {
		t.Fatalf("2-core chip left a core without a shared memory port: %v, %v", p0, p1)
	}
	if p0 == p1 {
		t.Errorf("cores share one port — per-core clocks would collide")
	}
}

// TestChipCancellation pins the Ctx lifecycle hook: a cancelled context
// stops the scheduler between stages.
func TestChipCancellation(t *testing.T) {
	chip := stubChip(t, 2, PlaceLayer)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := chip.Run(ctx, &gridWorkload{streams: 2, stages: 2, cycles: 10}); err == nil {
		t.Fatal("cancelled chip run returned nil error")
	}
}

func TestParsePlacement(t *testing.T) {
	for in, want := range map[string]Placement{"": PlaceLayer, "layer": PlaceLayer, "batch": PlaceBatch} {
		got, err := ParsePlacement(in)
		if err != nil || got != want {
			t.Errorf("ParsePlacement(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePlacement("diagonal"); err == nil {
		t.Error("ParsePlacement accepted an unknown policy")
	}
}
