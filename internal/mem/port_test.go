package mem

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/comp"
	"repro/internal/comp/names"
	"repro/internal/config"
)

// sweepHW returns the preset plus a seeded sweep of valid DRAM descriptions
// (bandwidth, modules, clock, row size, element size, row-miss latency):
// the private and the shared port are one model for all of them, not only
// where the preset's round numbers hide a rounding difference.
func sweepHW() []*config.Hardware {
	rng := rand.New(rand.NewSource(15))
	out := []*config.Hardware{testHW()}
	for i := 0; i < 64; i++ {
		h := testHW()
		h.BytesPerElement = 1 << rng.Intn(3)
		h.ClockGHz = 0.1 + 3*rng.Float64()
		h.DRAM.BandwidthGBs = 0.05 + 500*rng.Float64()
		h.DRAM.Modules = 1 + rng.Intn(8)
		h.DRAM.RowBytes = h.BytesPerElement * (1 + rng.Intn(4096))
		h.DRAM.RowMissLatency = rng.Intn(100)
		if err := h.Validate(); err != nil {
			panic(err)
		}
		out = append(out, h)
	}
	return out
}

// TestSharedUncontendedMatchesPrivate pins the parity-critical shape of
// the shared model: a transfer on an idle shared system costs exactly what
// the private DRAM model charges for the same element count.
func TestSharedUncontendedMatchesPrivate(t *testing.T) {
	for _, hw := range sweepHW() {
		for _, n := range []int{1, 100, 4096, 100_000} {
			priv := NewDRAM(hw, comp.NewCounters())
			want := priv.FetchCycles(n)

			s := mustShared(t, hw, 0, 0)
			start, completion := s.Serve(0, n)
			if start != 0 {
				t.Errorf("%+v n=%d: idle system delayed the grant to %g", hw.DRAM, n, start)
			}
			if got := completion - start; got != want {
				t.Errorf("%+v n=%d: shared uncontended cost %g, private cost %g", hw.DRAM, n, got, want)
			}
		}
	}
}

// TestSharedContentionAndBanking pins the per-bank queueing model: with a
// bank free, concurrent transfers overlap fully; once in-flight transfers
// outnumber banks, the overflow queues behind the earliest grant; and a
// single bank serializes everything.
func TestSharedContentionAndBanking(t *testing.T) {
	hw := testHW()
	const n = 100_000

	banked := mustShared(t, hw, 8, 0)
	_, c1 := banked.Serve(0, n)
	for i := 0; i < 7; i++ {
		if s, _ := banked.Serve(0, n); s != 0 {
			t.Fatalf("transfer %d queued at %g with a bank free", i+2, s)
		}
	}
	s9, _ := banked.Serve(0, n) // ninth concurrent transfer: all banks busy
	if s9 != c1 {
		t.Errorf("overflow transfer started at %g, want the first bank to free at %g", s9, c1)
	}

	single := mustShared(t, hw, 1, 0)
	_, c1s := single.Serve(0, n)
	s2s, _ := single.Serve(0, n)
	if s2s != c1s {
		t.Errorf("1 bank: second transfer started at %g, want serialized behind the first at %g", s2s, c1s)
	}
}

// TestSharedLinkBandwidthKnob pins the configurable link: a narrower link
// lengthens the stream component of every transfer.
func TestSharedLinkBandwidthKnob(t *testing.T) {
	hw := testHW()
	full := mustShared(t, hw, 1, 0)
	_, cFull := full.Serve(0, 1<<16)
	halfGBs := hw.DRAM.BandwidthGBs * float64(hw.DRAM.Modules) / 2
	half := mustShared(t, hw, 1, halfGBs)
	_, cHalf := half.Serve(0, 1<<16)
	if cHalf <= cFull {
		t.Errorf("half-bandwidth link not slower: %g vs %g", cHalf, cFull)
	}
}

// TestCorePortMirrorsPrivateCounters pins the Port contract on an idle
// system: driven through the whole method set at whole-cycle times, a core
// port returns the same values and accounts the same dram.* counters as a
// private DRAM, bit for bit; the icn.* counters are all it adds.
func TestCorePortMirrorsPrivateCounters(t *testing.T) {
	for _, hw := range sweepHW() {
		pc, cc := comp.NewCounters(), comp.NewCounters()
		var priv Port = NewDRAM(hw, pc)
		port := NewCorePort(mustShared(t, hw, 0, 0)).Port(cc)

		// same runs one step on both ports and compares what it returns.
		same := func(what string, step func(Port) float64) float64 {
			t.Helper()
			want, got := step(priv), step(port)
			if got != want {
				t.Errorf("%+v %s: core port %v, private %v", hw.DRAM, what, got, want)
			}
			return want
		}
		stalled := func(now uint64) uint64 {
			return uint64(same("StallLookahead", func(p Port) float64 { return float64(p.StallLookahead(now)) }))
		}
		fill := same("FetchCycles", func(p Port) float64 { return p.FetchCycles(50_000) })
		same("FetchCycles(0)", func(p Port) float64 { return p.FetchCycles(0) })
		now := uint64(math.Ceil(fill)) // the op's clock starts once the fill has landed
		for _, n := range []int{20_000, 1, 300_000} {
			// Three prefetches issued together queue behind one another.
			same("BeginPrefetch", func(p Port) float64 { p.BeginPrefetch(float64(now), n); return 0 })
			same("StallCycles", func(p Port) float64 { return p.StallCycles(float64(now)) })
		}
		skip := stalled(now)
		same("AdvanceStall", func(p Port) float64 { p.AdvanceStall(skip); return 0 })
		now += skip
		same("StallCycles at the bound", func(p Port) float64 { return p.StallCycles(float64(now)) })
		now += 1000 // compute ran ahead: the next prefetch starts on an idle port
		same("BeginPrefetch", func(p Port) float64 { p.BeginPrefetch(float64(now), 7_000); return 0 })
		same("StallCycles", func(p Port) float64 { return p.StallCycles(float64(now + 1)) })
		stalled(now + 1)
		same("WriteBack", func(p Port) float64 { p.WriteBack(4096); return 0 })

		for _, key := range []string{names.DRAMReads, names.DRAMRowActivations, names.DRAMStallEvents, names.DRAMWrites} {
			if got, want := cc.Get(key), pc.Get(key); got != want || want == 0 {
				t.Errorf("%+v %s = %d on the core port, %d on the private model", hw.DRAM, key, got, want)
			}
		}
		if got := cc.Get(names.ICNRequests); got != 5 {
			t.Errorf("%+v icn.requests = %d, want 5", hw.DRAM, got)
		}
		if got := cc.Get(names.ICNWaitCycles); got != 0 {
			t.Errorf("%+v idle port recorded %d wait cycles", hw.DRAM, got)
		}
	}
}

// TestCorePortStallLookaheadExact pins the fast-forward contract: the
// lookahead bound equals the stalled-cycle count the ticked probes would
// observe, and traffic from another core granted later never moves an
// already-issued prefetch's completion.
func TestCorePortStallLookaheadExact(t *testing.T) {
	hw := testHW()
	s := mustShared(t, hw, 0, 0)
	c0, c1 := comp.NewCounters(), comp.NewCounters()
	p0 := NewCorePort(s)
	port0 := p0.Port(c0)
	port1 := NewCorePort(s).Port(c1)

	port0.BeginPrefetch(0, 100_000)
	before := port0.StallLookahead(0)
	if before == 0 {
		t.Fatal("prefetch of 100k elements reported no stall")
	}
	// Ticked equivalence: the first cycle at which StallCycles reports no
	// stall is exactly `before`.
	if got := port0.StallCycles(float64(before)); got != 0 {
		t.Errorf("StallCycles at the lookahead bound = %g, want 0", got)
	}
	if got := port0.StallCycles(float64(before - 1)); got <= 0 {
		t.Errorf("StallCycles one cycle before the bound = %g, want > 0", got)
	}

	// A competing core's transfer granted afterwards must not move it.
	port1.BeginPrefetch(0, 500_000)
	if after := port0.StallLookahead(0); after != before {
		t.Errorf("later traffic moved the lookahead bound %d -> %d", before, after)
	}
}

// TestCorePortContentionCounters pins the icn.* attribution: on a 1-bank
// system a transfer queued behind another core's records its wait.
func TestCorePortContentionCounters(t *testing.T) {
	hw := testHW()
	s := mustShared(t, hw, 1, 0)
	c0, c1 := comp.NewCounters(), comp.NewCounters()
	port0 := NewCorePort(s).Port(c0)
	port1 := NewCorePort(s).Port(c1)

	port0.BeginPrefetch(0, 200_000)
	port1.BeginPrefetch(0, 200_000)
	if w := c1.Get(names.ICNWaitCycles); w == 0 {
		t.Error("contended prefetch recorded no icn.wait_cycles")
	}
	if w := c0.Get(names.ICNWaitCycles); w != 0 {
		t.Errorf("first-granted prefetch recorded %d wait cycles", w)
	}
	if b := c1.Get(names.ICNBusyCycles); b == 0 {
		t.Error("served prefetch recorded no icn.busy_cycles")
	}
}

// mustShared builds a SharedDRAM from a configuration the test knows is
// valid, failing the test on an unexpected construction error.
func mustShared(t *testing.T, hw *config.Hardware, banks int, linkGBs float64) *SharedDRAM {
	t.Helper()
	s, err := NewSharedDRAM(hw, banks, linkGBs)
	if err != nil {
		t.Fatalf("NewSharedDRAM(%s, banks=%d, link=%g): %v", hw.Name, banks, linkGBs, err)
	}
	return s
}

// TestSharedLinkMustBeFinite pins the link override's check: the override
// is not a hardware field, so NewSharedDRAM passes the description it times
// the link from through config.Hardware.Validate — the owner of everything
// the model divides by, the rate floor included.
func TestSharedLinkMustBeFinite(t *testing.T) {
	for _, link := range []float64{math.NaN(), math.Inf(1), 1e-300} {
		if _, err := NewSharedDRAM(testHW(), 0, link); err == nil {
			t.Errorf("link override %g GB/s accepted", link)
		}
	}
}

// TestCorePortRoundingCarriesRemainders pins the icn.* accounting fix: the
// counted busy+wait cycles must never drift above the true completion-issue
// chip-time interval, no matter how many fractional-duration transfers a
// port issues. The old independent round-half-up could overshoot by up to
// one cycle per transfer.
func TestCorePortRoundingCarriesRemainders(t *testing.T) {
	// Pick rates that make every transfer duration end in .5: 8 elems/cycle
	// at 1 B/elem and 1 GHz is 8 GB/s; 4 elements stream in 0.5 cycles and
	// the single row activation adds 10·0.1 = 1.0, so each uncontended
	// transfer truly costs 1.5 cycles.
	hw := testHW()
	hw.ClockGHz = 1
	hw.BytesPerElement = 1
	hw.DRAM.RowBytes = 2048
	hw.DRAM.RowMissLatency = 10
	s := mustShared(t, hw, 1, 8.0/1e0*1) // 8 B/s·1e9 → 8 elems/cycle
	c0 := comp.NewCounters()
	p0 := NewCorePort(s)
	port0 := p0.Port(c0)

	const transfers = 1000
	for i := 0; i < transfers; i++ {
		port0.FetchCycles(4)
	}
	trueSpan := p0.busyAcc + p0.waitAcc // busy+wait == completion-issue per transfer
	got := c0.Get(names.ICNBusyCycles) + c0.Get(names.ICNWaitCycles)
	if float64(got) > math.Ceil(trueSpan) {
		t.Errorf("counted busy+wait %d cycles, exceeds ceil of the true %g-cycle span", got, trueSpan)
	}
	if float64(got) < trueSpan-2 {
		t.Errorf("counted busy+wait %d cycles, lost more than the carried remainder of the true %g", got, trueSpan)
	}
	// The old rounding emitted 2 cycles per 1.5-cycle transfer; the carried
	// remainder must keep the total at the floor of the running sum.
	if want := uint64(trueSpan); got != want {
		t.Errorf("counted busy+wait = %d, want exactly floor(true span) = %d", got, want)
	}

	// Contended flavour: a second port queues behind the first on the one
	// bank, splitting each span into fractional busy and wait parts that
	// round independently in the broken scheme.
	c1 := comp.NewCounters()
	p1 := NewCorePort(s)
	port1 := p1.Port(c1)
	for i := 0; i < transfers; i++ {
		port0.FetchCycles(4)
		port1.FetchCycles(4)
	}
	span1 := p1.busyAcc + p1.waitAcc
	got1 := c1.Get(names.ICNBusyCycles) + c1.Get(names.ICNWaitCycles)
	if float64(got1) > math.Ceil(span1) {
		t.Errorf("contended port counted %d busy+wait cycles, exceeds ceil of the true %g", got1, span1)
	}
}
