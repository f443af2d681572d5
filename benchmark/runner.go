package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// instance is one set-up workload: the system under test plus its load
// generators, all in this process.
type instance interface {
	// run drives the workload for about d and reports the slice. A non-nil
	// tracer records spans around the calls made into the layers.
	run(d time.Duration, tr *tracer) sliceSample
	threads() int
	// counters reads the exported counters of the layers under the load.
	counters(out map[string]float64)
	// finish checks the outputs and tears the workload down.
	finish() (attempted, failed int64, problems []string)
}

// ladderCtx is what a workload's ladder gets: a time budget and the map to
// put layer metrics in, which already holds the workload's own counters.
type ladderCtx struct {
	seed   int64
	budget time.Duration
	out    map[string]float64
}

// rung gives a ladder step its share of the budget.
func (lc *ladderCtx) rung(share float64) time.Duration {
	return time.Duration(float64(lc.budget) * share)
}

type workloadDef struct {
	name  string
	why   string
	procs int // GOMAXPROCS while it runs, capped at the host's CPUs
	setup func(seed int64) (instance, error)
	// ladder replays the workload's op stream against each lower layer in
	// isolation; it returns the problems that fail the run.
	ladder func(lc *ladderCtx) []string
}

var workloads = []workloadDef{
	{
		name:   "svc-pipelined-read",
		why:    "depth-8 pipelined pairs, 90% shared, 64 keys: codec, ExecBatch try-path and writev batching dominate; syscalls amortise over 16 ops and nothing parks",
		procs:  1,
		setup:  func(seed int64) (instance, error) { return setupSvc(svcPipelinedRead, seed) },
		ladder: func(lc *ladderCtx) []string { return svcLadder(svcPipelinedRead, lc) },
	},
	{
		name:   "svc-handoff-write",
		why:    "depth-1 exclusive pairs on one key: every op pays a syscall and wakeup round trip and most acquires park, queue in fairlock and are granted on release; no batching",
		procs:  1,
		setup:  func(seed int64) (instance, error) { return setupSvc(svcHandoffWrite, seed) },
		ladder: func(lc *ladderCtx) []string { return svcLadder(svcHandoffWrite, lc) },
	},
	{
		name:   "lib-fairlock-mixed",
		why:    "one fairlock.RWMutex, 2 goroutines, 90% RLock, 64-spin critical section: bypasses wire, server and client, so a server change predicts no move here",
		procs:  2,
		setup:  func(seed int64) (instance, error) { return setupLib(seed) },
		ladder: libLadder,
	},
	{
		name:   "sim-micro",
		why:    "serial microbench sweep, models A and B x lcu/ssb/mcs/mrsw x 100%/25% writes: sim kernel, topo, coherence and core do the work; stm is untouched",
		procs:  1,
		setup:  func(seed int64) (instance, error) { return setupSim("sim-micro", seed) },
		ladder: simLadder,
	},
	{
		name:   "sim-stm",
		why:    "serial STM rb-tree runs on swonly/lcu/fraser: the allocating commit engines dominate; a kernel change moves both sim workloads, an STM change only this one",
		procs:  1,
		setup:  func(seed int64) (instance, error) { return setupSim("sim-stm", seed) },
		ladder: stmLadder,
	},
}

var (
	svcPipelinedRead = svcParams{depth: 8, sharedPct: 90, keys: 64}
	svcHandoffWrite  = svcParams{depth: 1, sharedPct: 0, keys: 1}
)

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

type runCfg struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool // shortest run that still exercises every path
}

// plan is how a run spends its time.
type plan struct {
	setups     int // timed set-ups, the first before the warm-up
	setupEvery int // one more set-up after every so many slices
	warm       time.Duration
	slices     int
	sliceDur   time.Duration
	ladder     time.Duration // traced runs only
}

// plan splits -seconds into timed slices and, on a traced run, gives the
// second half to the ladder. Warm-up and set-up come on top.
func (cfg runCfg) plan() plan {
	if cfg.smoke {
		return plan{setups: 2, setupEvery: 1, warm: 100 * time.Millisecond, slices: 2, sliceDur: 200 * time.Millisecond, ladder: 600 * time.Millisecond}
	}
	total := time.Duration(cfg.seconds * float64(time.Second))
	pl := plan{setups: numSetups, warm: 2 * time.Second, slices: numSlices}
	if pl.warm > total/4 {
		pl.warm = total / 4
	}
	measure := total
	if cfg.trace {
		// Half the time and half the slices, so a slice is as long.
		measure, pl.ladder, pl.slices = total/2, total/2, numSlices/2
	}
	pl.sliceDur = measure / time.Duration(pl.slices)
	pl.setupEvery = pl.slices / (pl.setups - 1)
	return pl
}

// report is one workload's result.
type report struct {
	Workload  string           `json:"workload"`
	Procs     int              `json:"gomaxprocs"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Problems  []string         `json:"problems,omitempty"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	SelfTimes []selfRow        `json:"self_times,omitempty"`
	TraceFile string           `json:"trace_file,omitempty"`
}

const (
	numSlices = 40
	numSetups = 9
	// noisyShift: a slice whose calibration loop, before or after, ran this
	// much slower or faster than the run's median is counted in
	// host.noisy_slices.
	noisyShift = 0.10
)

// sliceMetrics are the per-slice values the reported metrics are read from.
type sliceMetrics struct {
	opsPerS, p50, p99, p999, cpuPerOp, allocPerOp, vcswPerOp series
}

func (sm *sliceMetrics) add(s sliceSample, p0, p1 procSnap) {
	if s.ops == 0 || s.wall <= 0 {
		return
	}
	ops := float64(s.ops)
	sort.Float64s(s.lat)
	sm.opsPerS = append(sm.opsPerS, ops/s.wall.Seconds())
	sm.p50 = append(sm.p50, percentile(s.lat, 50))
	sm.p99 = append(sm.p99, percentile(s.lat, 99))
	sm.p999 = append(sm.p999, percentile(s.lat, 99.9))
	sm.cpuPerOp = append(sm.cpuPerOp, us(p1.cpu-p0.cpu)/ops)
	sm.allocPerOp = append(sm.allocPerOp, float64(p1.allocBytes-p0.allocBytes)/ops)
	sm.vcswPerOp = append(sm.vcswPerOp, float64(p1.vcsw-p0.vcsw)/ops)
}

// runWorkload measures one workload: repeated set-up, an untimed warm-up,
// then timed slices, each metric read from its slices' quiet end (see
// quietRank). With tracing, slices alternate untraced and traced so both
// see the same host, and the ladder runs on the second half of the budget.
func runWorkload(w *workloadDef, cfg runCfg) report {
	procs := w.procs
	if n := runtime.NumCPU(); n < procs {
		procs = n
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

	rep := report{Workload: w.name, Procs: procs, EndToEnd: map[string]value{}}
	fail := func(format string, a ...any) {
		rep.Problems = append(rep.Problems, fmt.Sprintf(format, a...))
	}

	pl := cfg.plan()
	// Set-up is timed several times over. The first instance is the one
	// measured; the others are set up, checked and torn down between timed
	// slices, so that they sample the host across the whole run.
	var setupS series
	setup := func() instance {
		runtime.GC() // so no set-up pays for earlier garbage
		t0 := time.Now()
		in, err := w.setup(cfg.seed)
		setupS = append(setupS, time.Since(t0).Seconds())
		if err != nil {
			fail("set-up: %v", err)
			return nil
		}
		return in
	}
	inst := setup()
	if inst == nil {
		return rep
	}
	inst.run(pl.warm, nil)
	runtime.GC()

	var tr *tracer
	if cfg.trace {
		tr = newTracer(inst.threads())
	}
	var plain, traced sliceMetrics
	var calib series
	start, began := readProc(), time.Now()
	for i := 0; i < pl.slices; i++ {
		// A slice can overrun (a simulator slice is whole passes, and a
		// slow host stretches them); the run's length must not.
		if over := time.Since(began) - time.Duration(i)*pl.sliceDur; over > pl.sliceDur*time.Duration(pl.slices)/5 {
			break
		}
		sm, t := &plain, (*tracer)(nil)
		if cfg.trace && i%2 == 1 {
			sm, t = &traced, tr
		}
		c0 := calibrate()
		p0 := readProc()
		s := inst.run(pl.sliceDur, t)
		p1 := readProc()
		c1 := calibrate()
		sm.add(s, p0, p1)
		calib = append(calib, c0, c1)
		if (i+1)%pl.setupEvery == 0 && len(setupS) < pl.setups {
			if extra := setup(); extra != nil {
				_, _, problems := extra.finish()
				rep.Problems = append(rep.Problems, problems...)
				runtime.GC()
			}
		}
	}
	end := readProc()
	noisy, calibMed := 0, median(calib)
	for i := 0; i < len(calib); i += 2 {
		if math.Abs(calib[i]-calibMed) > noisyShift*calibMed || math.Abs(calib[i+1]-calibMed) > noisyShift*calibMed {
			noisy++
		}
	}

	rep.EndToEnd["setup_s"] = setupS.quiet("s", "lower")
	rep.EndToEnd["ops_per_s"] = plain.opsPerS.quiet("1/s", "higher")
	rep.EndToEnd["op_p50_us"] = plain.p50.quiet("us", "lower")

	var layers map[string]float64
	if cfg.trace {
		layers = map[string]float64{
			"host.calib_ns":      calibMed,
			"host.noisy_slices":  float64(noisy),
			"proc.cpu_us_per_op": median(plain.cpuPerOp),
			"proc.vcsw_per_op":   median(plain.vcswPerOp),
			"proc.gc_cycles":     float64(end.gcCycles - start.gcCycles),
			"proc.heap_peak_mb":  float64(end.heapSys) / (1 << 20),
			"alloc_bytes_per_op": median(plain.allocPerOp),
			"op_p99_us":          median(plain.p99),
			"ops_per_s_median":   median(plain.opsPerS),
			"op_p50_us_median":   median(plain.p50),
		}
		if u, t := median(plain.opsPerS), median(traced.opsPerS); u > 0 {
			layers["trace.overhead_pct"] = (1 - t/u) * 100
		}
		if isSvc(w.name) {
			layers["client.pair_p999_us"] = median(plain.p999)
		}
		inst.counters(layers)
	}

	var problems []string
	rep.Attempted, rep.Failed, problems = inst.finish()
	rep.Problems = append(rep.Problems, problems...)

	if cfg.trace {
		if rep.Attempted > 0 {
			layers["fail_share"] = float64(rep.Failed) / float64(rep.Attempted)
		}
		lc := &ladderCtx{seed: cfg.seed, budget: pl.ladder, out: layers}
		rep.Problems = append(rep.Problems, w.ladder(lc)...)

		rep.PerLayer = map[string]value{}
		for _, d := range perLayer {
			rep.PerLayer[d.Name] = scalar(layers[d.Name], d.Unit)
			delete(layers, d.Name)
		}
		for name := range layers {
			fail("undeclared per-layer metric %s", name)
		}
		rep.SelfTimes = tr.selfTimes()
		rep.TraceFile = filepath.Join(repoRoot(), "benchmark", "out", "trace-"+w.name+".json")
		if err := tr.writeChrome(rep.TraceFile, w.name); err != nil {
			fail("trace file: %v", err)
		}
	}

	for _, d := range endToEnd {
		v := rep.EndToEnd[d.Name]
		if !(v.Value > 0) || math.IsInf(v.Value, 0) {
			fail("end-to-end metric %s is %v", d.Name, v.Value)
		}
	}
	for name, v := range rep.PerLayer {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fail("per-layer metric %s is %v", name, v.Value)
		}
	}
	if rep.Attempted < 1 {
		fail("no op was attempted")
	}
	rep.Correct = len(rep.Problems) == 0
	return rep
}

func isSvc(name string) bool { return name == "svc-pipelined-read" || name == "svc-handoff-write" }

// repoRoot finds the checkout root from the working directory: run.sh
// starts the binary there, go test starts it in benchmark/.
func repoRoot() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
	}
	return "."
}
