package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"fairrw/internal/machine"
	"fairrw/internal/microbench"
	"fairrw/internal/stmbench"
)

const (
	simThreads    = 16
	microIters    = 2000
	stmMaxNodes   = 256
	stmReadPct    = 75
	stmOpsPerThr  = 60
	goldenPath    = "benchmark/golden/sim-digest.json"
	goldenMaxSeed = 16 // -rebaseline records seeds 1..goldenMaxSeed
)

var (
	microModels = []string{"A", "B"}
	microLocks  = []string{"lcu", "ssb", "mcs", "mrsw"}
	microWrites = []int{100, 25}
	stmEngines  = []string{"swonly", "lcu", "fraser"}
)

// simCfg is one point of a simulator workload's fixed list; exactly one of
// micro and stm is set.
type simCfg struct {
	label string
	model string
	micro *microbench.Config
	stm   *stmbench.Workload
}

// simRun is the outcome of one point: the simulated statistics the digest
// covers, and the host time it took.
type simRun struct {
	host    time.Duration
	events  uint64
	ops     int64 // critical sections or transactions completed
	failed  bool
	micro   microbench.Result
	stm     stmbench.Result
	allocs  uint64 // heap objects allocated during the run (sim-stm ladder)
	l1Hits  uint64
	l1Miss  uint64
	simStat string // canonical text of every simulated statistic
}

// simInst runs the list serially on machines it reuses, as cmd/lcusim's
// sweeps do. The seed picks each point's simulator seed.
type simInst struct {
	name     string
	cfgs     []simCfg
	machines map[string]*machine.Machine
	golden   string // expected digest for this seed, "" if none recorded

	passes    int
	runs      int64
	failedN   int64
	digest    string // digest of the first pass; every later pass must match
	mismatch  int
	last      []simRun    // the most recent pass, by config index
	hostByCfg [][]float64 // host ms per run, by config index
	passHost  []float64   // host s per pass
	passEvts  uint64
}

func simSeed(seed int64, idx int) int64 {
	return int64(mix64(uint64(seed)*977+uint64(idx)) >> 1)
}

func microConfigs(seed int64) []simCfg {
	var out []simCfg
	for _, model := range microModels {
		for _, lock := range microLocks {
			for _, wp := range microWrites {
				c := microbench.Config{
					Model: model, Lock: lock, Threads: simThreads,
					WritePct: wp, TotalIters: microIters, Seed: simSeed(seed, len(out)),
				}
				out = append(out, simCfg{label: fmt.Sprintf("%s/%s/%dw", model, lock, wp), model: model, micro: &c})
			}
		}
	}
	return out
}

func stmConfigs(seed int64) []simCfg {
	var out []simCfg
	for _, engine := range stmEngines {
		w := stmbench.Workload{
			Model: "A", Engine: engine, Structure: "rb", MaxNodes: stmMaxNodes,
			Threads: simThreads, ReadPct: stmReadPct, OpsPerThr: stmOpsPerThr,
			Seed: simSeed(seed, len(out)),
		}
		out = append(out, simCfg{label: "A/rb/" + engine, model: "A", stm: &w})
	}
	return out
}

func setupSim(name string, seed int64) (*simInst, error) {
	in := &simInst{name: name, machines: map[string]*machine.Machine{}}
	if name == "sim-micro" {
		in.cfgs = microConfigs(seed)
	} else {
		in.cfgs = stmConfigs(seed)
	}
	for _, c := range in.cfgs {
		if in.machines[c.model] == nil {
			in.machines[c.model] = microbench.NewMachine(c.model)
		}
	}
	in.hostByCfg = make([][]float64, len(in.cfgs))
	g, err := readGolden()
	if err != nil {
		return nil, err
	}
	in.golden = g[name][strconv.FormatInt(seed, 10)]
	return in, nil
}

// runPoint executes one point and collects what the digest and the layer
// metrics need, all through exported fields.
func (in *simInst) runPoint(c simCfg, countAllocs bool) simRun {
	m := in.machines[c.model]
	var r simRun
	var before procSnap
	if countAllocs {
		before = readProc()
	}
	t0 := time.Now()
	if c.micro != nil {
		r.micro = microbench.RunOn(m, *c.micro)
		r.host = time.Since(t0)
		for _, n := range r.micro.PerThread {
			r.ops += int64(n)
		}
		r.failed = r.micro.Err != nil
		r.simStat = fmt.Sprintf("%s cyc=%d cpcs=%.6g per=%v ww=%.6g msg=%d mom=%.6g err=%v",
			c.label, r.micro.TotalCycles, r.micro.CyclesPerCS, r.micro.PerThread,
			r.micro.WriterWaitMean, r.micro.Messages, r.micro.MaxOverMin, r.micro.Err)
	} else {
		r.stm = stmbench.RunOn(m, *c.stm)
		r.host = time.Since(t0)
		r.ops = int64(c.stm.Threads * c.stm.OpsPerThr)
		r.failed = r.stm.MeanTxnCycles == 0
		r.simStat = fmt.Sprintf("%s cyc=%d txn=%.6g exec=%.6g commit=%.6g aborts=%.6g",
			c.label, r.stm.TotalCycles, r.stm.MeanTxnCycles, r.stm.ExecPerTxn,
			r.stm.CommitPerTxn, r.stm.AbortsPerCommit)
	}
	if countAllocs {
		r.allocs = readProc().mallocs - before.mallocs
	}
	r.events = m.K.Events()
	r.simStat += fmt.Sprintf(" ev=%d sent=%d", r.events, m.Net.Sent)
	for core := 0; core < m.P.Cores; core++ {
		h, ms := m.Sys.L1Stats(core)
		r.l1Hits += h
		r.l1Miss += ms
	}
	return r
}

// pass runs the whole list once, in order, and returns its digest.
func (in *simInst) pass(tb *traceBuf, s *sliceSample) string {
	h := fnv.New64a()
	runs := make([]simRun, len(in.cfgs))
	var host time.Duration
	var events uint64
	ps := tb.begin("bench.pass", -1, uint64(in.passes))
	for i, c := range in.cfgs {
		name := "microbench.RunOn"
		if c.stm != nil {
			name = "stmbench.RunOn"
		}
		sp := tb.begin(name, ps, uint64(i))
		r := in.runPoint(c, false)
		tb.end(sp)
		runs[i] = r
		h.Write([]byte(r.simStat))
		h.Write([]byte{'\n'})
		host += r.host
		events += r.events
		in.hostByCfg[i] = append(in.hostByCfg[i], float64(r.host.Nanoseconds())/1e6)
		in.runs++
		// A simulator op is one simulated event: events per critical section
		// or transaction move with the seed (aborts, retries), host time per
		// event does not.
		s.ops += int64(r.events)
		if r.failed {
			in.failedN++
		}
		s.lat = append(s.lat, us(r.host)/float64(r.events))
	}
	tb.end(ps)
	in.last = runs
	in.passes++
	in.passHost = append(in.passHost, host.Seconds())
	in.passEvts = events
	s.wall += host
	return fmt.Sprintf("%016x", h.Sum64())
}

// run makes whole passes over the list for about d: it stops once another
// pass would overshoot d by more than stopping now undershoots it.
func (in *simInst) run(d time.Duration, tr *tracer) sliceSample {
	var s sliceSample
	start := time.Now()
	for {
		p0 := time.Now()
		dg := in.pass(tr.thread(0), &s)
		if in.digest == "" {
			in.digest = dg
		} else if dg != in.digest {
			in.mismatch++
		}
		if time.Since(start)+time.Since(p0)/2 >= d {
			return s
		}
	}
}

func (in *simInst) threads() int { return 1 }

func (in *simInst) counters(out map[string]float64) {
	out["sim.events_per_pass"] = float64(in.passEvts)
	out["host_s"] = median(in.passHost)
	if in.passEvts > 0 {
		out["host_ns_per_event"] = median(in.passHost) * 1e9 / float64(in.passEvts)
	}
	if in.name == "sim-micro" {
		in.microFigures(out)
	} else {
		in.stmFigures(out)
	}
}

func (in *simInst) finish() (attempted, failed int64, problems []string) {
	if in.failedN > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d simulations completed no work", in.failedN, in.runs))
	}
	if in.mismatch > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d passes changed a simulated statistic between identical runs", in.mismatch, in.passes))
	}
	if in.golden != "" && in.digest != "" && in.digest != in.golden {
		problems = append(problems, fmt.Sprintf("simulated statistics changed: digest %s, %s has %s (-rebaseline if a model change is intended)", in.digest, goldenPath, in.golden))
	}
	return in.runs, in.failedN + int64(in.mismatch)*int64(len(in.cfgs)), problems
}

// golden digests: workload → seed → digest of every simulated statistic
// of one pass. A change that only makes the simulator faster must leave
// them alone.
type goldenDoc map[string]map[string]string

func readGolden() (goldenDoc, error) {
	b, err := os.ReadFile(filepath.Join(repoRoot(), goldenPath))
	if os.IsNotExist(err) {
		return goldenDoc{}, nil
	}
	if err != nil {
		return nil, err
	}
	g := goldenDoc{}
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return g, nil
}

// rebaseline recomputes the golden digests for seeds 1..goldenMaxSeed.
func rebaseline() error {
	g := goldenDoc{}
	for _, name := range []string{"sim-micro", "sim-stm"} {
		g[name] = map[string]string{}
		for seed := int64(1); seed <= goldenMaxSeed; seed++ {
			in, err := setupSim(name, seed)
			if err != nil {
				return err
			}
			var s sliceSample
			g[name][strconv.FormatInt(seed, 10)] = in.pass(nil, &s)
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(repoRoot(), goldenPath), append(b, '\n'), 0o644)
}
