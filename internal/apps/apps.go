// Package apps provides the three application kernels of Figure 13 as
// synthetic workloads that reproduce each program's locking pattern (the
// real PARSEC/SPLASH binaries are not runnable here; see DESIGN.md for the
// substitution argument):
//
//   - fluidanimate: a particle grid updated with fine-grain per-value
//     dynamic locks; neighbouring partitions contend on boundary cells.
//     Lock-transfer time matters, so the LCU wins (paper: +7.4%).
//   - cholesky: sparse factorization dominated by computation, with a
//     task queue and per-column locks of low contention. Lock choice is
//     performance-neutral (paper: within the error margin).
//   - radiosity: per-thread task queues locked on every pop, with rare
//     work stealing. The locks are thread-private, so coherence-based
//     software locks enjoy implicit biasing (the line stays in L1) while
//     the LCU pays a remote request per acquire and loses — unless the FLT
//     extension restores the biasing (paper Section IV-C).
package apps

import (
	"fmt"
	"math/rand"

	"fairrw/internal/machine"
	"fairrw/internal/microbench"
	"fairrw/internal/obs"
	"fairrw/internal/sim"
	"fairrw/internal/swlocks"
)

// Config selects an application run.
type Config struct {
	App     string // fluidanimate, cholesky, radiosity
	Lock    string // a swlocks.New name; Figure 13 compares posix, lcu and ssb
	Threads int
	Seed    int64
	FLT     int // FLT slots for the lcu ablation (0 = off)
	// Obs enables observability capture for the run (zero value = off).
	Obs obs.Options
}

// Result carries the measured outcome of a run.
type Result struct {
	// Cycles is the parallel section's execution time.
	Cycles sim.Time
	// Obs is the run's observability capture (nil unless Config.Obs asked
	// for one).
	Obs *obs.Capture
}

// RunOn executes the named application on m, resetting it first, and
// measures its parallel section. Figure 13 runs every application on
// model A.
func RunOn(m *machine.Machine, cfg Config) Result {
	m.Reset()
	hw := microbench.InstallDevice(m, cfg.Lock, cfg.FLT)
	mk := func() swlocks.RWLock { return swlocks.New(m, cfg.Lock) }
	var cap *obs.Capture
	if cfg.Obs.Enabled() {
		cap = m.EnableObs(cfg.Obs, fmt.Sprintf("%s/%s t=%d", cfg.App, cfg.Lock, cfg.Threads))
		if !hw {
			// Software locks need the tracing wrapper; each instance gets a
			// distinct id in allocation order (deterministic: the app builds
			// its locks single-threaded before spawning).
			var nextID uint64
			mk = func() swlocks.RWLock {
				nextID++
				return swlocks.Trace(swlocks.New(m, cfg.Lock), nextID)
			}
		}
	}
	start := m.K.Now()
	switch cfg.App {
	case "fluidanimate":
		fluidanimate(m, mk, cfg)
	case "cholesky":
		cholesky(m, mk, cfg)
	case "radiosity":
		radiosity(m, mk, cfg)
	default:
		panic("apps: unknown app " + cfg.App)
	}
	m.Run()
	return Result{Cycles: m.K.Now() - start, Obs: cap}
}

// fluidanimate: threads own horizontal bands of a cell grid and apply
// particle-interaction updates to random cells in their band or the row
// just above it (cross-band interactions), each under a fine-grain
// per-cell lock. Boundary-row locks bounce between the two neighbouring
// threads, so lock transfer time matters; accesses are randomized, so no
// cross-thread dependency chain forms.
func fluidanimate(m *machine.Machine, mk func() swlocks.RWLock, cfg Config) {
	n := 32
	steps := 4
	updatesPerStep := 128
	locks := make([]swlocks.RWLock, n*n)
	for i := range locks {
		locks[i] = mk()
	}
	bar := m.NewBarrier(cfg.Threads)
	for t := 0; t < cfg.Threads; t++ {
		tid := uint64(t + 1)
		myRow := t * n / cfg.Threads
		rng := rand.New(rand.NewSource(cfg.Seed + int64(t)))
		m.Spawn("fluid", tid, t%m.P.Cores, func(c *machine.Ctx) {
			for s := 0; s < steps; s++ {
				for u := 0; u < updatesPerStep; u++ {
					// Compute the interaction, then publish under the lock.
					c.Compute(300 + sim.Time(rng.Intn(100)))
					r := myRow
					if rng.Intn(2) == 0 && r > 0 {
						r-- // interaction with the band above
					}
					cell := r*n + rng.Intn(n)
					locks[cell].Lock(c, true)
					c.Compute(50 + sim.Time(rng.Intn(20)))
					locks[cell].Unlock(c, true)
				}
				bar.Arrive(c)
			}
		})
	}
}

// cholesky: a central task queue hands out column tasks; each task is
// compute-heavy with a short per-column lock for the update.
func cholesky(m *machine.Machine, mk func() swlocks.RWLock, cfg Config) {
	nTasks := 96
	queueLock := mk()
	next := m.Mem.AllocLine()
	colLocks := make([]swlocks.RWLock, 32)
	for i := range colLocks {
		colLocks[i] = mk()
	}
	for t := 0; t < cfg.Threads; t++ {
		tid := uint64(t + 1)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(t)*13))
		m.Spawn("chol", tid, t%m.P.Cores, func(c *machine.Ctx) {
			for {
				queueLock.Lock(c, true)
				task := c.Load(next)
				if int(task) >= nTasks {
					queueLock.Unlock(c, true)
					return
				}
				c.Store(next, task+1)
				queueLock.Unlock(c, true)
				// Factor the column: computation dominates.
				c.Compute(50_000 + sim.Time(rng.Intn(10_000)))
				// Brief update under a column lock.
				cl := colLocks[int(task)%len(colLocks)]
				cl.Lock(c, true)
				c.Compute(60)
				cl.Unlock(c, true)
			}
		})
	}
}

// radiosity: each thread pops work from its own locked queue; when empty
// it steals from a victim. Queue locks are overwhelmingly thread-private.
func radiosity(m *machine.Machine, mk func() swlocks.RWLock, cfg Config) {
	tasksPer := 300
	qlocks := make([]swlocks.RWLock, cfg.Threads)
	qcount := make([]machineAddr, cfg.Threads)
	for i := range qlocks {
		qlocks[i] = mk()
		qcount[i] = m.Mem.AllocLine()
		m.Mem.Write(qcount[i], uint64(tasksPer))
	}
	for t := 0; t < cfg.Threads; t++ {
		tid := uint64(t + 1)
		me := t
		rng := rand.New(rand.NewSource(cfg.Seed + int64(t)*29))
		m.Spawn("rad", tid, t%m.P.Cores, func(c *machine.Ctx) {
			for {
				// Pop from my own queue (private lock: the biasing case).
				qlocks[me].Lock(c, true)
				n := c.Load(qcount[me])
				if n > 0 {
					c.Store(qcount[me], n-1)
				}
				qlocks[me].Unlock(c, true)
				if n > 0 {
					c.Compute(2_000 + sim.Time(rng.Intn(1_000)))
					continue
				}
				// Empty: try to steal once from a random victim.
				v := rng.Intn(cfg.Threads)
				if v == me {
					return
				}
				qlocks[v].Lock(c, true)
				vn := c.Load(qcount[v])
				if vn > 1 {
					c.Store(qcount[v], vn-1)
				}
				qlocks[v].Unlock(c, true)
				if vn <= 1 {
					return
				}
				c.Compute(2_000 + sim.Time(rng.Intn(1_000)))
			}
		})
	}
}

type machineAddr = uint64
