package stmbench

import (
	"fmt"
	"math/rand"

	"fairrw/internal/machine"
	"fairrw/internal/microbench"
	"fairrw/internal/obs"
	"fairrw/internal/sim"
	"fairrw/internal/stm"
)

// Structure abstracts the three benchmarks for the driver.
type Structure interface {
	LookupOp(c *machine.Ctx, key uint64) (uint64, bool)
	InsertOp(c *machine.Ctx, key, val uint64)
	DeleteOp(c *machine.Ctx, key uint64)
}

// Workload parameterizes one STM benchmark run (Figures 11 and 12).
type Workload struct {
	Model     string // "A" or "B"
	Engine    string // swonly, lcu, ssb, fraser
	Structure string // rb, skip, hash
	MaxNodes  int    // key space; tree populated to half
	Threads   int
	ReadPct   int // percentage of read-only (lookup) transactions
	OpsPerThr int
	Seed      int64
	// Obs enables observability capture for the measured phase (zero
	// value = off). Population is excluded.
	Obs obs.Options
}

// Result reports the measured outcome.
type Result struct {
	Workload
	MeanTxnCycles   float64 // mean cycles per completed operation
	ExecPerTxn      float64 // dissection: body execution
	CommitPerTxn    float64 // dissection: commit phase (incl. aborted tries)
	AbortsPerCommit float64
	TotalCycles     sim.Time
	// Obs is the run's observability capture (nil unless Workload.Obs
	// asked for one).
	Obs *obs.Capture
}

// NewTMOn installs the engine's device and a fresh TM on an existing
// (fresh or Reset) machine.
func NewTMOn(m *machine.Machine, engine string) *stm.TM {
	microbench.InstallDevice(m, engine, 0)
	return stm.New(m, engine)
}

// Build creates and populates the named structure with MaxNodes/2 keys.
// Population runs as real transactions on a single simulated thread; its
// cycles are excluded from measurement by per-operation timing.
func Build(tm *stm.TM, w Workload) Structure {
	var s Structure
	switch w.Structure {
	case "rb":
		s = NewRBTree(tm)
	case "skip":
		s = NewSkipList(tm, w.Seed+1)
	case "hash":
		s = NewHashTable(tm, w.MaxNodes/4+1)
	default:
		panic(fmt.Sprintf("stmbench: unknown structure %q", w.Structure))
	}
	return s
}

// Populate inserts every even key in [0, MaxNodes) from a setup thread.
func Populate(m *machine.Machine, s Structure, w Workload) {
	m.Spawn("setup", 1000, 0, func(c *machine.Ctx) {
		for k := 0; k < w.MaxNodes; k += 2 {
			s.InsertOp(c, uint64(k), uint64(k)*3)
		}
	})
	m.Run()
}

// RunOn executes the workload on m, resetting it first. The machine must
// have been built for w.Model.
func RunOn(m *machine.Machine, w Workload) Result {
	if m.P.Name != w.Model {
		panic(fmt.Sprintf("stmbench: machine is model %q, workload wants %q", m.P.Name, w.Model))
	}
	m.Reset()
	tm := NewTMOn(m, w.Engine)
	if w.OpsPerThr == 0 {
		w.OpsPerThr = 200
	}
	// The default step budget is sized for huge structures; these walks
	// touch tens of objects, so doomed attempts (mixed-version pointers)
	// should die quickly instead of chasing cycles for 100k reads.
	tm.StepBudget = 4000
	s := Build(tm, w)
	Populate(m, s, w)

	// Reset dissection stats after population.
	tm.Commits, tm.Aborts = 0, 0
	tm.ExecCycles, tm.CommitCycles = 0, 0

	// Attach tracing only now, so the populated structure's setup traffic
	// stays out of the capture.
	var cap *obs.Capture
	if w.Obs.Enabled() {
		cap = m.EnableObs(w.Obs, fmt.Sprintf("%s/%s/%s t=%d r=%d%%", w.Model, w.Engine, w.Structure, w.Threads, w.ReadPct))
	}

	opCycles := make([]float64, 0, w.Threads*w.OpsPerThr)
	start := m.K.Now()
	for i := 0; i < w.Threads; i++ {
		tid := uint64(i + 1)
		corenum := i % m.P.Cores
		rng := rand.New(rand.NewSource(w.Seed + int64(i)*7919))
		m.Spawn("stm", tid, corenum, func(c *machine.Ctx) {
			for j := 0; j < w.OpsPerThr; j++ {
				key := uint64(rng.Intn(w.MaxNodes))
				t0 := c.P.Now()
				switch {
				case rng.Intn(100) < w.ReadPct:
					s.LookupOp(c, key)
				case rng.Intn(2) == 0:
					s.InsertOp(c, key, key)
				default:
					s.DeleteOp(c, key)
				}
				opCycles = append(opCycles, float64(c.P.Now()-t0))
			}
		})
	}
	m.Run()

	r := Result{Workload: w, TotalCycles: m.K.Now() - start, Obs: cap}
	sum := 0.0
	for _, x := range opCycles {
		sum += x
	}
	if len(opCycles) > 0 {
		r.MeanTxnCycles = sum / float64(len(opCycles))
	}
	if tm.Commits > 0 {
		r.ExecPerTxn = float64(tm.ExecCycles) / float64(tm.Commits)
		r.CommitPerTxn = float64(tm.CommitCycles) / float64(tm.Commits)
		r.AbortsPerCommit = float64(tm.Aborts) / float64(tm.Commits)
	}
	return r
}
