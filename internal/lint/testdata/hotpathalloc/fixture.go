// Package fixture exercises the hotpathalloc analyzer: per-tick code
// (Cycle/Next/Consume methods, sim.Controller implementations, their
// package-local callees and configured hot leaves) must not allocate or
// index maps.
package fixture

import (
	"fmt"

	"repro/internal/sim"
)

type ticker struct {
	byName map[string]int
	vals   []int
	label  string
}

func (t *ticker) Cycle() {
	_ = t.byName["x"]          // want `map index on the per-tick path`
	t.vals = append(t.vals, 1) // want `append \(may grow the backing array\) on the per-tick path`
	_ = fmt.Sprintf("%d", 1)   // want `fmt.Sprintf \(formats and allocates\) on the per-tick path`
	_ = t.label + "!"          // want `string concatenation \(allocates\) on the per-tick path`
	f := func() {}             // want `closure \(captures escape to the heap\) on the per-tick path`
	f()
	t.helper()
}

// helper is reachable from Cycle through the package-local call graph.
func (t *ticker) helper() {
	_ = make([]int, 8) // want `make \(allocates\) on the per-tick path \(reachable from ticker.Cycle`
}

// cold is never called from a tick root: the same constructs pass.
func (t *ticker) cold() {
	_ = t.byName["x"]
	_ = make([]int, 8)
	_ = fmt.Sprintf("%d", 1)
}

type source struct{ n int }

func (s *source) Next() (int, bool) {
	_ = []int{1, 2, 3} // want `slice literal \(allocates\) on the per-tick path \(reachable from source.Next`
	return 0, false
}

type sink struct{ out []float32 }

func (s *sink) Consume(v float32) {
	s.out = append(s.out, v) // want `append \(may grow the backing array\) on the per-tick path \(reachable from sink.Consume`
}

// run implements sim.Controller: every method of the interface except
// Deadlock is a per-tick root.
type run struct {
	state map[int]int
	done  bool
}

var _ sim.Controller = (*run)(nil)

func (r *run) Control() {
	_ = r.state[3] // want `map index on the per-tick path \(reachable from run.Control \(sim.Controller\)\)`
}
func (r *run) Done() bool      { return r.done }
func (r *run) Progress() int   { return len(r.state) } // len on a map does not allocate: ok
func (r *run) Waiting() uint64 { return 0 }
func (r *run) Draining() bool  { return r.done }
func (r *run) Lookahead() uint64 {
	return r.bound()
}
func (r *run) Advance(uint64) {}

// Deadlock renders once, at abort: formatting and map reads are fine.
func (r *run) Deadlock(window uint64) error {
	return fmt.Errorf("stuck for %d cycles in state %d", window, r.state[0])
}

// bound is reachable from the Controller's Lookahead through the call graph.
func (r *run) bound() uint64 {
	_ = r.state[1] // want `map index on the per-tick path \(reachable from run.Lookahead`
	return 0
}

// bystander has a Control method but is no sim.Controller: not a root.
type bystander struct{ m map[int]int }

func (b *bystander) Control() { _ = b.m[0] }

// probe is a structural fast-forward root: Lookahead() uint64 on a type.
type probe struct{ pending []int }

func (p *probe) Lookahead() uint64 {
	_ = append(p.pending, 1) // want `append \(may grow the backing array\) on the per-tick path \(reachable from probe.Lookahead`
	return 0
}

func (p *probe) Advance(n uint64) {
	_ = make([]int, n) // want `make \(allocates\) on the per-tick path \(reachable from probe.Advance`
}

// lookalike does not match the fast-forward signatures: not a root.
type lookalike struct{}

func (l *lookalike) Lookahead(extra int) uint64 { _ = make([]int, extra); return 0 }
func (l *lookalike) Advance() []int             { return make([]int, 1) }

// build is cold setup code: constructing the fabric allocates freely.
func build() *ticker {
	return &ticker{byName: make(map[string]int), vals: make([]int, 0, 64)}
}
