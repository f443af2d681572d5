package sweep

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fairrw/internal/microbench"
)

func TestMapOrderAndCompleteness(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 100} {
		r := Runner{Workers: workers}
		got := MapWorkers(r, 57, func(_, i int) int { return i * i })
		if len(got) != 57 {
			t.Fatalf("workers=%d: len = %d, want 57", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunZeroAndNegative(t *testing.T) {
	var calls atomic.Int64
	for _, n := range []int{0, -3} {
		if got := MapWorkers(Runner{}, n, func(_, _ int) int { calls.Add(1); return 0 }); len(got) != 0 {
			t.Fatalf("n=%d: %d results, want none", n, len(got))
		}
	}
	if calls.Load() != 0 {
		t.Fatalf("job ran %d times for empty sweeps", calls.Load())
	}
}

func TestRunEachIndexOnce(t *testing.T) {
	const n = 200
	counts := make([]atomic.Int64, n)
	MapWorkers(Runner{Workers: 7}, n, func(_, i int) struct{} { counts[i].Add(1); return struct{}{} })
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

func TestRunPanicPropagates(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("panic in job did not propagate")
		}
		if s, ok := p.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("unexpected panic value %v", p)
		}
	}()
	MapWorkers(Runner{Workers: 4}, 32, func(_, i int) int {
		if i == 13 {
			panic("boom at 13")
		}
		return i
	})
}

// TestWorkerIndexExclusive checks the worker-index contract: w lies in
// [0, min(Workers, n)) and no two concurrent jobs hold the same w. Each
// job claims its w and sleeps, so two goroutines handed one w overlap.
func TestWorkerIndexExclusive(t *testing.T) {
	for _, c := range []struct{ workers, n int }{{1, 5}, {2, 40}, {4, 40}, {7, 60}, {8, 3}} {
		limit := min(c.workers, c.n)
		busy := make([]atomic.Bool, limit)
		var bad atomic.Int64
		MapWorkers(Runner{Workers: c.workers}, c.n, func(w, i int) int {
			if w < 0 || w >= limit {
				bad.Add(1)
				return 0
			}
			if !busy[w].CompareAndSwap(false, true) {
				bad.Add(1)
				return 0
			}
			time.Sleep(200 * time.Microsecond)
			busy[w].Store(false)
			return 0
		})
		if n := bad.Load(); n != 0 {
			t.Fatalf("workers=%d n=%d: %d jobs got a worker index out of range or in use", c.workers, c.n, n)
		}
	}
}

// TestParallelSimulationsDeterministic runs the same simulation config
// concurrently on every worker and serially, asserting identical results:
// each job owns its machine and kernel, so the sweep must be race-free and
// bit-reproducible. Run under -race in CI.
func TestParallelSimulationsDeterministic(t *testing.T) {
	cfg := microbench.Config{
		Model: "A", Lock: "lcu", Threads: 4, WritePct: 75,
		TotalIters: 200, Seed: 42,
	}
	serial := microbench.Run(cfg)
	results := MapWorkers(Runner{Workers: 8}, 8, func(_, _ int) microbench.Result {
		return microbench.Run(cfg)
	})
	for i, r := range results {
		if r.TotalCycles != serial.TotalCycles || r.CyclesPerCS != serial.CyclesPerCS {
			t.Fatalf("parallel run %d diverged: %v cycles vs serial %v",
				i, r.TotalCycles, serial.TotalCycles)
		}
	}
}
