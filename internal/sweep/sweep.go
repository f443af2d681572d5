// Package sweep provides a deterministic worker-pool runner for
// embarrassingly parallel simulation sweeps.
//
// Every figure of the paper's evaluation is a sweep of independent,
// deterministic simulations: each configuration builds its own
// machine.Machine and sim.Kernel, so configurations share no state and can
// run concurrently. The Runner fans job indices out across a fixed pool of
// goroutines and delivers results in index order, so rendering code that
// consumes them produces output byte-identical to a serial loop.
package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Runner is a worker pool for index-addressed jobs. The zero value runs
// with one worker per available CPU (GOMAXPROCS).
type Runner struct {
	// Workers is the pool size: 0 means GOMAXPROCS, 1 runs jobs serially
	// on the calling goroutine (useful as a determinism baseline).
	Workers int
}

// workers resolves the effective pool size for n jobs.
func (r Runner) workers(n int) int {
	w := r.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// MapWorkers runs job(w, i) for every i in [0, n) across r's pool and
// returns the results in index order, regardless of completion order. The
// worker index w lies in [0, min(Workers, n)) and no two concurrent calls
// share one, so the job may reuse state indexed by w — typically a machine
// that is Reset between runs. A panic in any job is re-raised on the
// calling goroutine after the pool drains, so sweeps fail the same way a
// serial loop would.
func MapWorkers[T any](r Runner, n int, job func(w, i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	w := r.workers(n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			out[i] = job(0, i)
		}
		return out
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(g int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicOnce.Do(func() { panicked = p })
					// Starve the pool so remaining workers drain quickly.
					next.Store(int64(n))
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = job(g, i)
			}
		}(g)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return out
}
