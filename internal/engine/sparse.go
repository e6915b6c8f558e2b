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
	// at round construction; jobs share it and the stationary load unicasts
	// to its one-element sub-slices.
	members []int
}

// sigmaRound precomputes, per distinct k in the round, the member switches
// that hold it, so streaming steps cost O(participants).
type sigmaRound struct {
	clusters []sigmaCluster
	used     int
	// kOrder lists the round's distinct k values in first-use order and
	// kDests[i] the switches holding kOrder[i].
	kOrder []int32
	kDests [][]int
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

	// Item buffers, refilled by every Next, and the per-cluster
	// participation counters; all sized for the largest round.
	deliv  []dn.Delivery
	jobs   []jobSpec
	expect []int

	exhausted bool
}

func newSigmaSource(rounds []sigmaRound, B *tensor.Tensor) *sigmaSource {
	s := &sigmaSource{rounds: rounds, B: B, n: B.Dim(1)}
	var delivs, clusters int
	for i := range rounds {
		delivs = max(delivs, rounds[i].used, len(rounds[i].kOrder))
		clusters = max(clusters, len(rounds[i].clusters))
	}
	s.deliv = make([]dn.Delivery, delivs)
	s.jobs = make([]jobSpec, clusters)
	s.expect = make([]int, clusters)
	return s
}

func buildSigmaRounds(A *tensor.CSRMatrix, capacity int, policy sched.Policy, seed uint64) []sigmaRound {
	nnz := make([]int, A.Rows)
	for i := 0; i < A.Rows; i++ {
		nnz[i] = A.RowNNZ(i)
	}
	packed := sched.Pack(nnz, capacity, policy, seed)
	rounds := make([]sigmaRound, 0, len(packed))
	for _, r := range packed {
		sr := sigmaRound{clusterOfMS: make([]int, capacity)}
		for i := range sr.clusterOfMS {
			sr.clusterOfMS[i] = -1
		}
		kIndex := map[int32]int{} // k → its position in kOrder
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
				ki, seen := kIndex[k]
				if !seen {
					ki = len(sr.kOrder)
					kIndex[k] = ki
					sr.kOrder = append(sr.kOrder, k)
					sr.kDests = append(sr.kDests, nil)
				}
				sr.kDests[ki] = append(sr.kDests[ki], ms)
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

// Next emits the next phase of the current SIGMA round into the source's
// buffers.
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
		nd := 0
		for ci := range r.clusters {
			cl := &r.clusters[ci]
			for p, v := range cl.vals {
				s.deliv[nd] = dn.Delivery{
					Pkt:   comp.Packet{Value: v, Kind: comp.WeightPkt, Gen: gen},
					Dests: cl.members[p : p+1 : p+1],
				}
				nd++
			}
		}
		s.phase = 1
		s.col = 0
		return workItem{Prefetch: r.used, Deliveries: s.deliv[:nd]}, true
	}

	// Stream one column of the KN matrix: distinct non-zero k values are
	// multicast; clusters reduce whatever members participated.
	seq := s.seq
	s.seq++
	j := s.col
	expect := s.expect[:len(r.clusters)]
	for i := range expect {
		expect[i] = 0
	}
	bd := s.B.Data()
	nd, nj := 0, 0
	for ki, k := range r.kOrder {
		bv := bd[int(k)*s.n+j]
		if bv == 0 {
			continue // streaming sparsity: never delivered, never multiplied
		}
		dests := r.kDests[ki]
		s.deliv[nd] = dn.Delivery{
			Pkt:   comp.Packet{Value: bv, Kind: comp.InputPkt, Seq: seq, Gen: gen},
			Dests: dests,
		}
		nd++
		for _, ms := range dests {
			expect[r.clusterOfMS[ms]]++
		}
	}
	for ci := range r.clusters {
		if expect[ci] == 0 {
			continue // entire chunk hit zeros in this column
		}
		cl := &r.clusters[ci]
		s.jobs[nj] = jobSpec{
			VN: ci, Seq: seq, Expect: expect[ci],
			OutIdx:  cl.row*s.n + j,
			Last:    true, // each contribution exits and accumulates GB-side
			Members: cl.members,
		}
		nj++
	}

	s.col++
	if s.col >= s.n {
		s.phase = 0
		s.round++
		if s.round >= len(s.rounds) {
			s.exhausted = true
		}
	}
	return workItem{Deliveries: s.deliv[:nd], Jobs: s.jobs[:nj]}, true
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
		src: newSigmaSource(rounds, B), sumOut: true,
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
