package simpool

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// JobProgress is the latest progress sample reported by one in-flight job.
type JobProgress struct {
	Cycles    uint64
	Outputs   int
	Occupancy float64
	// Skipped counts the cycles the kernel fast-forwarded over rather than
	// ticked (always ≤ Cycles); the board renders it as a skip rate.
	Skipped uint64
	Done    bool
}

// Board aggregates periodic progress samples from a batch of concurrent
// simulation jobs into one coherent view. Jobs report through Update (safe
// from any worker goroutine — the kernel's progress hook feeds it
// directly) and the driver reads a consistent snapshot whenever it wants to
// render live status. The board never blocks reporters beyond a mutex.
type Board struct {
	mu    sync.Mutex
	jobs  map[string]*JobProgress
	order []string // first-report order, for stable rendering
}

// NewBoard returns an empty progress board.
func NewBoard() *Board {
	return &Board{jobs: make(map[string]*JobProgress)}
}

// Update records the latest sample for the named job. skipped is the
// cumulative count of fast-forwarded cycles (zero when the kernel ticks
// every cycle).
func (b *Board) Update(label string, cycles uint64, outputs int, occupancy float64, skipped uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	jp, ok := b.jobs[label]
	if !ok {
		jp = &JobProgress{}
		b.jobs[label] = jp
		b.order = append(b.order, label)
	}
	jp.Cycles, jp.Outputs, jp.Occupancy, jp.Skipped = cycles, outputs, occupancy, skipped
}

// Finish marks the named job complete (creating it if it never reported).
func (b *Board) Finish(label string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	jp, ok := b.jobs[label]
	if !ok {
		jp = &JobProgress{}
		b.jobs[label] = jp
		b.order = append(b.order, label)
	}
	jp.Done = true
}

// Forget drops the named job from the board, so a long-lived board holds
// only the jobs still in flight.
func (b *Board) Forget(label string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.jobs, label)
	b.order = slices.DeleteFunc(b.order, func(l string) bool { return l == label })
}

// Snapshot returns a copy of every job's latest state, keyed by label.
func (b *Board) Snapshot() map[string]JobProgress {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]JobProgress, len(b.jobs))
	for k, v := range b.jobs {
		out[k] = *v
	}
	return out
}

// Summary renders a one-line status: done/total counts plus the in-flight
// jobs' cycle counts, in first-report order (running jobs first).
func (b *Board) Summary() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	done := 0
	var running []string
	for _, label := range b.order {
		jp := b.jobs[label]
		if jp.Done {
			done++
			continue
		}
		if jp.Skipped > 0 && jp.Cycles > 0 {
			running = append(running, fmt.Sprintf("%s@%dcyc(ff %d%%)",
				label, jp.Cycles, 100*jp.Skipped/jp.Cycles))
		} else {
			running = append(running, fmt.Sprintf("%s@%dcyc", label, jp.Cycles))
		}
	}
	sort.Strings(running)
	s := fmt.Sprintf("%d/%d done", done, len(b.order))
	if len(running) > 0 {
		s += "; running: " + strings.Join(running, ", ")
	}
	return s
}
