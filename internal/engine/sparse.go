package engine

import (
	"fmt"

	"repro/internal/comp"
	"repro/internal/comp/names"
	"repro/internal/config"
	"repro/internal/dn"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// sparseRunner is the SIGMA-like composition (sparse controller + Benes +
// DMN + FAN). It runs sparse-times-(possibly sparse) GEMMs: the non-zeros
// of the stationary MK matrix are packed into rounds of dynamic-size
// clusters — one cluster per filter/output-row chunk — and the KN matrix
// streams column by column, each distinct k value multicast through the
// Benes network to every switch holding a stationary element of that k.
// Zero streaming values are skipped entirely, so cycle counts depend on the
// actual distribution of zeros, the effect that breaks analytical models
// (Fig. 1c).
type sparseRunner struct {
	hw config.Hardware
}

// sigmaCluster is one mapped chunk: a contiguous run of switches holding
// the chunk's stationary non-zeros.
type sigmaCluster struct {
	row    int
	msBase int
	ks     []int32   // k index per member switch
	vals   []float32 // stationary value per member switch
	// members is the switch-index set [msBase, msBase+len(ks)), built once
	// at round construction; JobSpecs share it read-only, so streaming a
	// column allocates nothing.
	members []int
}

// sigmaRound precomputes, per distinct k in the round, the member switches
// that hold it, so streaming steps cost O(participants).
type sigmaRound struct {
	clusters []sigmaCluster
	used     int
	kOrder   []int32
	kDests   map[int32][]int
	// clusterOfMS maps switch → cluster index for expectation counting.
	clusterOfMS []int
}

type sigmaSource struct {
	rounds []sigmaRound
	B      *tensor.Tensor
	n      int

	round int
	phase int // 0 = stationary load, 1 = stream columns
	col   int
	seq   int

	// expect is the reusable per-cluster participation counter scratch.
	expect []int

	exhausted bool
}

func buildSigmaRounds(A *tensor.CSRMatrix, capacity int, policy sched.Policy, seed uint64) []sigmaRound {
	nnz := make([]int, A.Rows)
	for i := 0; i < A.Rows; i++ {
		nnz[i] = A.RowNNZ(i)
	}
	packed := sched.Pack(nnz, capacity, policy, seed)
	rounds := make([]sigmaRound, 0, len(packed))
	for _, r := range packed {
		sr := sigmaRound{kDests: map[int32][]int{}, clusterOfMS: make([]int, capacity)}
		for i := range sr.clusterOfMS {
			sr.clusterOfMS[i] = -1
		}
		base := 0
		for ci, chunk := range r {
			idx, vals := A.Row(chunk.Row)
			cl := sigmaCluster{
				row:    chunk.Row,
				msBase: base,
				ks:     idx[chunk.Start : chunk.Start+chunk.Len],
				vals:   vals[chunk.Start : chunk.Start+chunk.Len],
			}
			cl.members = make([]int, len(cl.ks))
			for p, k := range cl.ks {
				ms := base + p
				cl.members[p] = ms
				if _, seen := sr.kDests[k]; !seen {
					sr.kOrder = append(sr.kOrder, k)
				}
				sr.kDests[k] = append(sr.kDests[k], ms)
				sr.clusterOfMS[ms] = ci
			}
			base += len(cl.ks)
			sr.clusters = append(sr.clusters, cl)
		}
		sr.used = base
		rounds = append(rounds, sr)
	}
	return rounds
}

// Next emits the next phase of the current SIGMA round; per-round
// delivery-list allocations are amortized over the cycles the round
// streams through the fabric.
//
//lint:ignore hotpathalloc work-item construction is amortized over the many cycles the round occupies the fabric
func (s *sigmaSource) Next() (workItem, bool) {
	if s.exhausted {
		return workItem{}, false
	}
	r := &s.rounds[s.round]

	gen := uint32(s.round + 1)
	if s.phase == 0 {
		// Stationary load: every non-zero of the round is unicast into the
		// shadow register of its switch (generation-tagged), so loading
		// pipelines behind the previous round's streaming — SIGMA's
		// double-buffered reconfiguration.
		item := workItem{Prefetch: r.used}
		for _, cl := range r.clusters {
			for p, v := range cl.vals {
				item.Deliveries = append(item.Deliveries, dn.Delivery{
					Pkt:   comp.Packet{Value: v, Kind: comp.WeightPkt, Gen: gen},
					Dests: []int{cl.msBase + p},
				})
			}
		}
		s.phase = 1
		s.col = 0
		return item, true
	}

	// Stream one column of the KN matrix: distinct non-zero k values are
	// multicast; clusters reduce whatever members participated.
	item := workItem{}
	seq := s.seq
	s.seq++
	j := s.col
	if cap(s.expect) < len(r.clusters) {
		s.expect = make([]int, len(r.clusters))
	}
	expect := s.expect[:len(r.clusters)]
	for i := range expect {
		expect[i] = 0
	}
	bd := s.B.Data()
	for _, k := range r.kOrder {
		bv := bd[int(k)*s.n+j]
		if bv == 0 {
			continue // streaming sparsity: never delivered, never multiplied
		}
		dests := r.kDests[k]
		item.Deliveries = append(item.Deliveries, dn.Delivery{
			Pkt:   comp.Packet{Value: bv, Kind: comp.InputPkt, Seq: seq, Gen: gen},
			Dests: dests,
		})
		for _, ms := range dests {
			expect[r.clusterOfMS[ms]]++
		}
	}
	for ci, cl := range r.clusters {
		if expect[ci] == 0 {
			continue // entire chunk hit zeros in this column
		}
		item.Jobs = append(item.Jobs, jobSpec{
			VN: ci, Seq: seq, Expect: expect[ci],
			OutIdx:  cl.row*s.n + j,
			Last:    true, // each contribution exits and accumulates GB-side
			Members: cl.members,
		})
	}

	s.col++
	if s.col >= s.n {
		s.phase = 0
		s.round++
		if s.round >= len(s.rounds) {
			s.exhausted = true
		}
	}
	return item, true
}

// RunGEMM runs the GEMM through the sparse front end: the sparse
// controller runs every GEMM through its bitmap/CSR format machinery;
// dense operands simply have full bitmaps.
func (r *sparseRunner) RunGEMM(A, B *tensor.Tensor, layer string) (*tensor.Tensor, *stats.Run, error) {
	return r.RunSpMM(A, B, layer, nil)
}

// RunConv lowers the convolution to SpMM per group: sparse filter matrix
// times im2col columns (any CONV maps to GEMM via img2col, Section IV-B).
func (r *sparseRunner) RunConv(in, w *tensor.Tensor, cs tensor.ConvShape, layer string) (*tensor.Tensor, *stats.Run, error) {
	return r.RunConvScheduled(in, w, cs, layer, sched.NS)
}

// RunSpMM executes C = A×B where A is treated as sparse (bitmap or CSR
// front format per the configuration) and zeros in B are skipped. policy
// selects the filter scheduling strategy of use case 3 (nil = NS).
func (r *sparseRunner) RunSpMM(A, B *tensor.Tensor, layer string, policy *sched.Policy) (*tensor.Tensor, *stats.Run, error) {
	if A.Rank() != 2 || B.Rank() != 2 || A.Dim(1) != B.Dim(0) {
		return nil, nil, fmt.Errorf("engine: SpMM shape mismatch %v × %v", A.Shape(), B.Shape())
	}
	pol := sched.NS
	if policy != nil {
		pol = *policy
	}
	csr, err := tensor.ToCSR(A)
	if err != nil {
		return nil, nil, err
	}
	m, k := A.Dim(0), A.Dim(1)
	n := B.Dim(1)

	ctx := sim.NewCtx(&r.hw)
	rounds := buildSigmaRounds(csr, r.hw.MSSize, pol, 0x51634)
	// Empty operand: no rounds, the output is all zeros after 0 cycles.
	if len(rounds) == 0 {
		C := tensor.New(m, n)
		return C, ctx.Finish("SpMM", layer, m, n, k), nil
	}

	// Sparse metadata traffic: the bitmap front format reads one bit per
	// MK element (packed into 64-bit words); CSR reads one index per
	// non-zero plus row pointers.
	switch r.hw.SparseFormat {
	case config.FmtBitmap:
		ctx.Counters.Add(names.GBMetaReads, uint64((m*k+63)/64))
	case config.FmtCSR:
		ctx.Counters.Add(names.GBMetaReads, uint64(csr.NNZ()+m+1))
	}
	C, run, err := runFlex(ctx, flexOp{
		op: "SpMM", layer: layer, m: m, n: n, k: k,
		src: &sigmaSource{rounds: rounds, B: B, n: n}, sumOut: true,
		fill: csr.NNZ() + k*n, outShape: []int{m, n},
	})
	if err != nil {
		return nil, nil, err
	}
	run.Counters[names.SchedRounds] = uint64(len(rounds))
	return C, run, nil
}

// RunConvScheduled runs a convolution on the sparse controller with an
// explicit filter-scheduling policy (use case 3: the prior-simulation
// function reorders the filters, the sparse controller issues them in that
// order).
func (r *sparseRunner) RunConvScheduled(in, w *tensor.Tensor, cs tensor.ConvShape, layer string, pol sched.Policy) (*tensor.Tensor, *stats.Run, error) {
	var agg *stats.Run
	out, err := lowerConv(in, w, cs, func(g int, fm, cols *tensor.Tensor) ([]float32, error) {
		C, run, err := r.RunSpMM(fm, cols, fmt.Sprintf("%s.g%d", layer, g), &pol)
		if err != nil {
			return nil, err
		}
		if agg == nil {
			agg = run
			agg.Op, agg.Layer = "CONV", layer
		} else {
			agg.Merge(run)
		}
		return C.Data(), nil
	})
	if err != nil {
		return nil, nil, err
	}
	agg.M, agg.N, agg.K = cs.GEMMDims()
	agg.RecomputeUtilization(r.hw.MSSize)
	return out, agg, nil
}
