package simpool

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// Cancelling mid-sweep must stop dispatching new jobs, keep the results of
// jobs that completed before the cancel, and surface ctx.Err().
func TestCancellationKeepsCompletedResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	jobs := make([]int, 100)
	results, err := Map(ctx, 2, jobs, func(_ context.Context, idx int, _ int) (int, error) {
		if idx == 2 {
			cancel() // in-flight when the cancel lands: still runs to completion
		}
		return idx + 100, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(results) != 100 {
		t.Fatalf("result slice resized to %d", len(results))
	}
	for idx := 0; idx < 3; idx++ {
		if results[idx] != idx+100 {
			t.Errorf("completed result[%d] = %d, want %d (dropped by cancel)", idx, results[idx], idx+100)
		}
	}
	var ran int
	for _, r := range results {
		if r != 0 {
			ran++
		}
	}
	if ran > 10 {
		t.Errorf("%d jobs ran after cancellation", ran)
	}
}

// The serial path must also keep earlier results when a later job observes
// the cancel.
func TestSerialCancellationKeepsCompletedResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	results, err := Map(ctx, 1, []int{0, 1, 2, 3}, func(_ context.Context, idx int, _ int) (int, error) {
		if idx == 1 {
			cancel()
		}
		return idx + 10, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if results[0] != 10 || results[1] != 11 {
		t.Errorf("completed results dropped: %v", results)
	}
	if results[2] != 0 || results[3] != 0 {
		t.Errorf("jobs ran past the cancel: %v", results)
	}
}

// The empty-sweep contract the deleted ForEach/Indexes wrappers forwarded to
// Map: with no jobs fn is never called on either path, the result is nil, and
// a cancelled context still surfaces its error.
func TestForEachAndIndexesEmpty(t *testing.T) {
	called := false
	for _, workers := range []int{1, 4} {
		if _, err := Map(context.Background(), workers, []int{}, func(_ context.Context, _ int, _ int) (struct{}, error) {
			called = true
			return struct{}{}, nil
		}); err != nil || called {
			t.Fatalf("empty Map(workers=%d): err=%v called=%v", workers, err, called)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Map(ctx, 4, []int(nil), func(_ context.Context, _ int, _ int) (struct{}, error) {
		return struct{}{}, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("empty Map, cancelled ctx = %v", err)
	}
}

// More workers than jobs must clamp and still run every job exactly once.
func TestMoreWorkersThanJobs(t *testing.T) {
	var calls atomic.Int64
	results, err := Map(context.Background(), 64, []int{1, 2, 3}, func(_ context.Context, _ int, j int) (int, error) {
		calls.Add(1)
		return j * 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Fatalf("ran %d jobs, want 3", calls.Load())
	}
	if results[0] != 10 || results[1] != 20 || results[2] != 30 {
		t.Fatalf("results: %v", results)
	}
}

func TestBoardUpdatesAndSummary(t *testing.T) {
	b := NewBoard()
	b.Update("job 0", 1000, 5, 0.5, 0)
	b.Update("job 1", 2000, 9, 0.8, 0)
	b.Update("job 0", 1500, 7, 0.6, 750) // later sample replaces, not duplicates
	b.Finish("job 1")
	b.Finish("job 2") // finishing an unseen job registers it as done

	snap := b.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d jobs: %v", len(snap), snap)
	}
	if jp := snap["job 0"]; jp.Cycles != 1500 || jp.Outputs != 7 || jp.Occupancy != 0.6 || jp.Skipped != 750 || jp.Done {
		t.Errorf("job 0: %+v", jp)
	}
	if !snap["job 1"].Done || !snap["job 2"].Done {
		t.Errorf("done flags: %+v", snap)
	}

	s := b.Summary()
	if !strings.Contains(s, "2/3 done") || !strings.Contains(s, "job 0@1500cyc(ff 50%)") {
		t.Errorf("summary: %q", s)
	}
	// Mutating the snapshot must not reach the board.
	snap["job 0"] = JobProgress{Cycles: 1}
	if b.Snapshot()["job 0"].Cycles != 1500 {
		t.Error("snapshot aliases board state")
	}
}

// Forget drops a job from the snapshot and the summary alike; forgetting
// an unknown job is a no-op.
func TestBoardForget(t *testing.T) {
	b := NewBoard()
	b.Update("job 0", 100, 1, 0, 0)
	b.Update("job 1", 200, 2, 0, 0)
	b.Forget("job 0")
	b.Forget("job 9")
	if snap := b.Snapshot(); len(snap) != 1 || snap["job 1"].Cycles != 200 {
		t.Errorf("snapshot after Forget: %v", snap)
	}
	if s := b.Summary(); s != "0/1 done; running: job 1@200cyc" {
		t.Errorf("summary after Forget: %q", s)
	}
}

// The board is driven concurrently by pool workers; exercise that shape so
// the race detector covers it.
func TestBoardConcurrent(t *testing.T) {
	b := NewBoard()
	_, err := Map(context.Background(), 4, make([]struct{}, 16), func(_ context.Context, i int, _ struct{}) (struct{}, error) {
		label := string(rune('a' + i))
		for c := uint64(1); c <= 50; c++ {
			b.Update(label, c, int(c), 0.5, c/2)
		}
		b.Finish(label)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := b.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("%d jobs on the board, want 16", len(snap))
	}
	for label, jp := range snap {
		if !jp.Done || jp.Cycles != 50 {
			t.Errorf("%s: %+v", label, jp)
		}
	}
}
