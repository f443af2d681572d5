// Package microbench implements the Section IV-A critical-section
// microbenchmark: multiple threads iteratively enter one short critical
// section protected by a single lock, with a configurable proportion of
// read accesses. It reports cycles per critical section plus fairness
// metrics (per-thread acquisition counts, writer waiting times), and runs
// against every lock implementation: LCU, SSB, TAS, TATAS, MCS, MRSW and
// the POSIX-style mutex.
package microbench

import (
	"errors"
	"fmt"
	"math/rand"

	"fairrw/internal/core"
	"fairrw/internal/machine"
	"fairrw/internal/obs"
	"fairrw/internal/sim"
	"fairrw/internal/ssb"
	"fairrw/internal/swlocks"
)

// Config parameterizes one microbenchmark run.
type Config struct {
	Model      string // "A" or "B"
	Lock       string // lcu, ssb, tas, tatas, mcs, mrsw, posix
	Threads    int
	WritePct   int // percentage of write (exclusive) accesses; 100 = mutex
	TotalIters int // critical-section entries across all threads
	CSWork     sim.Time
	Gap        sim.Time
	Seed       int64
	FLT        int // FLT slots for the lcu ablation (0 = off)
	// Obs enables observability capture for the run (zero value = off).
	Obs obs.Options
}

// ErrNoIterations reports a run in which no thread completed a single
// critical section (e.g. a wedged lock under a bounded-event run), so
// cycles-per-CS is undefined.
var ErrNoIterations = errors.New("microbench: no critical sections completed")

// Result carries the measured outcome of a run.
type Result struct {
	Config
	// Err is non-nil when the run produced no measurable result; all
	// measurement fields are then zero rather than NaN/Inf.
	Err         error
	TotalCycles sim.Time
	CyclesPerCS float64
	// PerThread is the acquisition count per thread (fairness).
	PerThread []int
	// WriterWaitMean is the mean cycles writers spent waiting to enter.
	WriterWaitMean float64
	// Messages is the total interconnect message count.
	Messages uint64
	// MaxOverMin is the unfairness ratio of acquisition counts.
	MaxOverMin float64
	// Obs is the run's observability capture (nil unless Config.Obs asked
	// for one).
	Obs *obs.Capture
}

// NewMachine builds a machine for the named model, "A" or "B".
func NewMachine(model string) *machine.Machine {
	switch model {
	case "A":
		return machine.ModelA()
	case "B":
		return machine.ModelB()
	}
	panic(fmt.Sprintf("microbench: unknown model %q", model))
}

// InstallDevice installs on m the hardware lock device that the named
// lock or STM engine runs on — the LCU/LRT (with flt FLT slots) for "lcu",
// the SSB for "ssb" — and reports whether it did: software locks and
// engines need none.
func InstallDevice(m *machine.Machine, name string, flt int) bool {
	switch name {
	case "lcu":
		core.New(m, core.Options{FLTSize: flt})
	case "ssb":
		ssb.New(m)
	default:
		return false
	}
	return true
}

// makeLock installs the requested lock implementation on m.
func makeLock(m *machine.Machine, name string, flt int) swlocks.RWLock {
	if InstallDevice(m, name, flt) {
		return swlocks.NewHWLock(m, name)
	}
	switch name {
	case "tas":
		return swlocks.NewTAS(m)
	case "tatas":
		return swlocks.NewTATAS(m)
	case "mcs":
		return swlocks.NewMCS(m)
	case "mrsw":
		return swlocks.NewMRSW(m)
	case "posix":
		return swlocks.NewPosix(m)
	}
	panic(fmt.Sprintf("microbench: unknown lock %q", name))
}

// Run executes the microbenchmark on a machine built for the occasion and
// returns its measurements.
func Run(cfg Config) Result {
	if cfg.Threads <= 0 {
		return Result{Config: cfg, Err: ErrNoIterations}
	}
	return execOn(NewMachine(cfg.Model), cfg)
}

// RunOn executes the microbenchmark on m, resetting it first. The machine
// must have been built for cfg.Model. Reusing one machine across the
// points of a sweep skips per-point construction of the kernel, caches,
// directory and route tables; results are identical to Run's.
func RunOn(m *machine.Machine, cfg Config) Result {
	if m.P.Name != cfg.Model {
		panic(fmt.Sprintf("microbench: machine is model %q, config wants %q", m.P.Name, cfg.Model))
	}
	if cfg.Threads <= 0 {
		return Result{Config: cfg, Err: ErrNoIterations}
	}
	m.Reset()
	return execOn(m, cfg)
}

func execOn(m *machine.Machine, cfg Config) Result {
	if cfg.TotalIters == 0 {
		cfg.TotalIters = 8000
	}
	if cfg.CSWork == 0 {
		cfg.CSWork = 100
	}
	if cfg.Gap == 0 {
		cfg.Gap = 100
	}
	l := makeLock(m, cfg.Lock, cfg.FLT)

	var cap *obs.Capture
	if cfg.Obs.Enabled() {
		cap = m.EnableObs(cfg.Obs, fmt.Sprintf("%s/%s t=%d w=%d%%", cfg.Model, cfg.Lock, cfg.Threads, cfg.WritePct))
		if _, hw := l.(*swlocks.HWLock); !hw {
			// Hardware locks are traced by Ctx.HwLock; software locks need
			// the wrapper.
			l = swlocks.Trace(l, 1)
		}
	}

	iters := cfg.TotalIters / cfg.Threads
	if iters == 0 {
		iters = 1
	}
	res := Result{Config: cfg, PerThread: make([]int, cfg.Threads), Obs: cap}
	var writerWaits []float64

	for i := 0; i < cfg.Threads; i++ {
		idx := i
		tid := uint64(i + 1)
		corenum := i % m.P.Cores
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*104729))
		m.Spawn("mb", tid, corenum, func(c *machine.Ctx) {
			for j := 0; j < iters; j++ {
				write := rng.Intn(100) < cfg.WritePct
				t0 := c.P.Now()
				l.Lock(c, write)
				if write {
					writerWaits = append(writerWaits, float64(c.P.Now()-t0))
				}
				res.PerThread[idx]++
				c.Compute(cfg.CSWork)
				l.Unlock(c, write)
				c.Compute(cfg.Gap)
			}
		})
	}
	m.Run()

	did := 0
	for _, n := range res.PerThread {
		did += n
	}
	if did == 0 {
		return Result{Config: cfg, PerThread: res.PerThread, Err: ErrNoIterations, Obs: cap}
	}
	res.TotalCycles = m.K.Now()
	res.CyclesPerCS = float64(res.TotalCycles) / float64(did)
	res.Messages = m.Net.Sent
	if len(writerWaits) > 0 {
		s := 0.0
		for _, w := range writerWaits {
			s += w
		}
		res.WriterWaitMean = s / float64(len(writerWaits))
	}
	min, max := res.PerThread[0], res.PerThread[0]
	for _, n := range res.PerThread {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if min > 0 {
		res.MaxOverMin = float64(max) / float64(min)
	}
	return res
}
