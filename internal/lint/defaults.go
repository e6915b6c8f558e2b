package lint

// DefaultExtraRoots is the repository's hot-leaf configuration for
// hotpathalloc: per-cycle functions invoked from another package's tick
// loop, which the structural root detection (Cycle/Next/Consume,
// sim.Controller methods) cannot see from inside their own package.
func DefaultExtraRoots() map[string][]string {
	return map[string][]string{
		// The engine controllers call these once per element / per barrier
		// cycle from Control and Consume.
		"repro/internal/mem": {
			"GlobalBuffer.Read",
			"GlobalBuffer.Write",
			"DRAM.BeginPrefetch",
			"DRAM.StallCycles",
			"DRAM.StallLookahead",
			"DRAM.AdvanceStall",
			// The chip interconnect: CorePort stands in for DRAM on every
			// multi-core tick path, and each of its transfers grants through
			// SharedDRAM.Serve.
			"SharedDRAM.Serve",
			"CorePort.FetchCycles",
			"CorePort.BeginPrefetch",
			"CorePort.StallCycles",
			"CorePort.StallLookahead",
			"CorePort.AdvanceStall",
		},
		// Fired from the controller's per-cycle VN scan and from the DN's
		// per-cycle delivery sink/prober callbacks.
		"repro/internal/mn": {
			"Array.AppendPop",
			"Array.ReadyVN",
			"Array.ReadyMembers",
			"Array.Deliver",
			"Array.CanDeliver",
			"Array.QuiescentSet",
			"Array.Idle",
			"Array.VNs",
		},
		// Offered work and completion probes, once per controller cycle.
		"repro/internal/rn": {
			"Net.Offer",
			"Net.CanAccept",
			"Net.Drained",
			"Net.HasAccumulator",
		},
		"repro/internal/dn": {
			"Tree.Offer",
			"Tree.Pending",
			"Benes.Offer",
			"Benes.Pending",
			"PointToPoint.Offer",
			"PointToPoint.Pending",
		},
	}
}

// DefaultWallClockPackages lists the simulation and result-producing
// packages where wall-clock reads are banned (subpackages and _test
// variants included). The serve layer measures request latency on purpose
// and is deliberately absent: latency is an envelope field, never part of
// the cached result bytes.
func DefaultWallClockPackages() []string {
	return []string{
		"repro/internal/sim",
		"repro/internal/engine",
		"repro/internal/mem",
		"repro/internal/trace",
		"repro/internal/stats",
		"repro/internal/jobkey",
		"repro/internal/energy",
		"repro/internal/comp",
		"repro/internal/dn",
		"repro/internal/mn",
		"repro/internal/rn",
	}
}

// DefaultAnalyzers is the stonnelint suite: four invariant checks on the
// simulator's own conventions plus five determinism/concurrency checks
// distilled from the bug classes the serving layer surfaced, in the order
// their invariants were introduced.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		HotPathAlloc(DefaultExtraRoots()),
		CounterNames(),
		FloatCmp(),
		GlobalRand(),
		MapOrder(),
		WallClock(DefaultWallClockPackages()),
		MutexHeld(),
		CtxCancel(),
		AtomicMix(),
	}
}
