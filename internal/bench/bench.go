// Package bench regenerates every table and figure of the paper's
// evaluation section as text tables: Figure 1 (qualitative comparison),
// Figure 8 (model parameters), Figures 9-10 (critical-section transfer
// time), Figures 11-12 (STM benchmarks) and Figure 13 (applications).
//
// Every knob a caller sets lives in Config, and the paper's fixed sweeps
// are package values nothing writes, so concurrent sweeps are race-free.
// Each Fig* method enumerates its configurations, fans the independent
// simulations out across a sweep.Runner (every run owns its machine and
// kernel), then renders the collected results in enumeration order —
// output is byte-identical at any worker count.
package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"fairrw/internal/machine"
	"fairrw/internal/microbench"
	"fairrw/internal/obs"
	"fairrw/internal/stats"
	"fairrw/internal/sweep"
)

// App names one Figure 13 application with its thread count.
type App struct {
	Name    string
	Threads int
}

// Config parameterizes the whole figure harness. Use Default() and
// override fields; the zero value is not runnable.
type Config struct {
	// Iters is the number of critical-section entries per microbenchmark
	// configuration. The paper uses 50 000; cycles/CS converges long
	// before that, so the default is smaller. Raise for higher fidelity.
	Iters int
	// STMOps is the per-thread operation count for the STM figures.
	STMOps int
	// Fig13Runs is the number of seeds per Figure 13 configuration (the
	// paper reports a 95% confidence interval over several runs).
	Fig13Runs int
	// Parallel is the sweep worker count: 0 = one per CPU (GOMAXPROCS),
	// 1 = serial.
	Parallel int

	// Fig9Threads is the thread-count sweep of Figure 9.
	Fig9Threads []int
	// Fig10Threads extends past the core count to expose the preemption
	// anomaly of queue-based software locks.
	Fig10Threads []int

	// Fig12Sizes are the structure sizes of Figure 12. The paper uses
	// 2^15 and 2^19 keys; the defaults are smaller for simulation runtime
	// (the shape — root congestion for rb/skip, none for hash — is
	// size-stable; see EXPERIMENTS.md).
	Fig12Sizes []int

	// Fig13Apps lists the applications with the paper's thread counts.
	Fig13Apps []App
	// FLTSlots configures the optional Free Lock Table ablation appended
	// to Figure 13 when > 0.
	FLTSlots int

	// Obs, when non-nil, turns on observability: every run of the invoked
	// figures records into its own capture (configured by Obs.Opt), and
	// the captures are added to the collector in enumeration order, so the
	// exported trace is byte-identical at any Parallel setting.
	Obs *obs.Collector
}

// The sweeps below are the paper's and no caller varies them.
var (
	// fig9WritePcts is the write-percentage sweep of Figures 9 and 10.
	fig9WritePcts = []int{100, 75, 50, 25}
	// fig11Threads is the thread sweep of Figure 11.
	fig11Threads = []int{1, 2, 4, 8, 16, 32}
	// stmEngines are the compared systems of Figures 11 and 12 (Fraser =
	// nonblocking, unsafe privatization; sw-only = lock-based with
	// software RW words; lcu / ssb = lock-based over the hardware devices).
	stmEngines = []string{"swonly", "lcu", "fraser", "ssb"}
	// fig12Structures are the three benchmarks of Figure 12.
	fig12Structures = []string{"rb", "skip", "hash"}
	// fig13Locks are the lock models Figure 13 compares.
	fig13Locks = []string{"posix", "lcu", "ssb"}
)

// fig11Nodes is the RB-tree key space of Figure 11.
const fig11Nodes = 1 << 8

// Default returns the harness defaults used by cmd/lcusim.
func Default() Config {
	return Config{
		Iters:        8000,
		STMOps:       60,
		Fig13Runs:    5,
		Fig9Threads:  []int{4, 8, 16, 24, 32},
		Fig10Threads: []int{4, 8, 16, 24, 32, 40, 48},
		Fig12Sizes:   []int{1 << 10, 1 << 13},
		Fig13Apps: []App{
			{"fluidanimate", 32},
			{"cholesky", 16},
			{"radiosity", 16},
		},
		FLTSlots: 4,
	}
}

// runner returns the sweep pool for this config.
func (c Config) runner() sweep.Runner { return sweep.Runner{Workers: c.Parallel} }

// machinePool hands each of up to n sweep workers a lazily-built machine
// for the requested model, reused (via Reset in the Run* helpers) across
// that worker's share of the sweep points.
func machinePool(n int) func(w int, model string) *machine.Machine {
	pools := make([]map[string]*machine.Machine, n)
	return func(w int, model string) *machine.Machine {
		if pools[w] == nil {
			pools[w] = make(map[string]*machine.Machine, 2)
		}
		m := pools[w][model]
		if m == nil {
			m = microbench.NewMachine(model)
			pools[w][model] = m
		}
		return m
	}
}

// sweepMicro fans the microbenchmark configurations across the pool, with
// each worker reusing one machine per model across its share of the sweep
// points. Results come back, and captures join the collector, in
// enumeration order.
func (c Config) sweepMicro(cfgs []microbench.Config) []microbench.Result {
	pool := machinePool(len(cfgs))
	results := sweep.MapWorkers(c.runner(), len(cfgs), func(w, i int) microbench.Result {
		cfg := cfgs[i]
		cfg.Obs = c.obsOpt()
		return microbench.RunOn(pool(w, cfg.Model), cfg)
	})
	for _, r := range results {
		c.collect(r.Obs)
	}
	return results
}

// obsOpt returns the per-run capture options (zero value = disabled).
func (c Config) obsOpt() obs.Options {
	if c.Obs == nil {
		return obs.Options{}
	}
	return c.Obs.Opt
}

// collect adds one run's capture to the collector, if there is one.
func (c Config) collect(cap *obs.Capture) {
	if c.Obs != nil {
		c.Obs.Add(cap)
	}
}

// Fig9 regenerates Figure 9 (CS execution time, LCU vs SSB) for the given
// model ("A" => Fig. 9a, "B" => Fig. 9b).
func (c Config) Fig9(w io.Writer, model string) {
	// Enumerate configurations in render order, then fan out.
	var cfgs []microbench.Config
	for _, th := range c.Fig9Threads {
		for _, lock := range []string{"lcu", "ssb"} {
			for _, wp := range fig9WritePcts {
				cfgs = append(cfgs, microbench.Config{
					Model: model, Lock: lock, Threads: th, WritePct: wp,
					TotalIters: c.Iters, Seed: 42,
				})
			}
		}
	}
	results := c.sweepMicro(cfgs)

	fmt.Fprintf(w, "Figure 9%s — CS execution time (cycles/CS), LCU vs SSB, model %s\n",
		map[string]string{"A": "a", "B": "b"}[model], model)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "threads")
	for _, lock := range []string{"lcu", "ssb"} {
		for _, wp := range fig9WritePcts {
			fmt.Fprintf(tw, "\t%s-%d%%w", lock, wp)
		}
	}
	fmt.Fprintln(tw)

	var lcuMutex, ssbMutex []float64
	idx := 0
	for _, th := range c.Fig9Threads {
		fmt.Fprintf(tw, "%d", th)
		for _, lock := range []string{"lcu", "ssb"} {
			for _, wp := range fig9WritePcts {
				r := results[idx]
				idx++
				fmt.Fprintf(tw, "\t%.0f", r.CyclesPerCS)
				if wp == 100 {
					if lock == "lcu" {
						lcuMutex = append(lcuMutex, r.CyclesPerCS)
					} else {
						ssbMutex = append(ssbMutex, r.CyclesPerCS)
					}
				}
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	var gains []float64
	for i := range lcuMutex {
		gains = append(gains, (ssbMutex[i]-lcuMutex[i])/ssbMutex[i]*100)
	}
	fmt.Fprintf(w, "mutual-exclusion advantage of LCU over SSB: %.1f%% avg (paper: 30.6%% on model A)\n\n",
		stats.Mean(gains))
}

// Fig10 regenerates Figure 10 (CS execution time, LCU vs software locks).
func (c Config) Fig10(w io.Writer, model string) {
	locks := []string{"lcu", "tas", "tatas", "mcs", "mrsw"}
	writePcts := func(lock string) []int {
		if lock == "lcu" || lock == "mrsw" {
			return fig9WritePcts
		}
		return []int{100}
	}
	var cfgs []microbench.Config
	for _, th := range c.Fig10Threads {
		for _, lock := range locks {
			for _, wp := range writePcts(lock) {
				cfgs = append(cfgs, microbench.Config{
					Model: model, Lock: lock, Threads: th, WritePct: wp,
					TotalIters: c.Iters, Seed: 42,
				})
			}
		}
	}
	results := c.sweepMicro(cfgs)

	fmt.Fprintf(w, "Figure 10%s — CS execution time (cycles/CS), LCU vs software locks, model %s\n",
		map[string]string{"A": "a", "B": "b"}[model], model)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "threads")
	for _, lock := range locks {
		if lock == "lcu" || lock == "mrsw" {
			for _, wp := range fig9WritePcts {
				fmt.Fprintf(tw, "\t%s-%d%%w", lock, wp)
			}
		} else {
			fmt.Fprintf(tw, "\t%s", lock)
		}
	}
	fmt.Fprintln(tw)

	var lcu100, mcs100, lcu75, mrsw75 []float64
	idx := 0
	for _, th := range c.Fig10Threads {
		fmt.Fprintf(tw, "%d", th)
		for _, lock := range locks {
			for _, wp := range writePcts(lock) {
				r := results[idx]
				idx++
				fmt.Fprintf(tw, "\t%.0f", r.CyclesPerCS)
				if th <= 32 {
					switch {
					case lock == "lcu" && wp == 100:
						lcu100 = append(lcu100, r.CyclesPerCS)
					case lock == "mcs" && wp == 100:
						mcs100 = append(mcs100, r.CyclesPerCS)
					case lock == "lcu" && wp == 75:
						lcu75 = append(lcu75, r.CyclesPerCS)
					case lock == "mrsw" && wp == 75:
						mrsw75 = append(mrsw75, r.CyclesPerCS)
					}
				}
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintf(w, "LCU speedup over MCS (mutex, <=32 threads): %.2fx (paper: >2x)\n",
		stats.Mean(mcs100)/stats.Mean(lcu100))
	fmt.Fprintf(w, "LCU speedup over MRSW (75%% reads): %.2fx (paper: 9.14x avg)\n\n",
		stats.Mean(mrsw75)/stats.Mean(lcu75))
}

// Table1 prints the qualitative mechanism comparison of Figure 1.
func Table1(w io.Writer) {
	fmt.Fprintln(w, "Figure 1 — locking mechanism comparison")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mechanism\tlocal spin\tFIFO fair\tRW locks\ttrylock\tevict detect\tscales\tmem/area\ttransfer msgs\tL1 changes")
	rows := [][]string{
		{"TAS/TATAS", "no", "no", "no", "yes", "n/a", "poor", "1 word", "O(n) coherence", "no"},
		{"MCS", "yes", "yes", "no", "variant", "no", "good", "O(n) nodes", "inval+fetch", "no"},
		{"MRSW (RW-MCS)", "partly", "yes", "yes", "no", "no", "counter hotspot", "O(n)+counter", "inval+fetch", "no"},
		{"QOLB", "yes", "yes", "no", "no", "no", "good", "2 lines/lock", "direct", "yes"},
		{"Full/Empty bits", "n/a", "no", "no", "no", "no", "good", "tag all memory", "remote", "yes"},
		{"MAO/AMO", "no (remote)", "no", "no", "yes", "n/a", "memory latency", "none", "round trip", "no"},
		{"SSB", "no (remote)", "no", "yes (unfair)", "yes", "n/a", "retry storms", "bank table", "round trip", "no"},
		{"Lock Cache/Table", "no (bus)", "no", "no", "no", "no", "single bus", "central table", "bus", "no"},
		{"LCU+LRT (this)", "yes", "yes", "yes (fair)", "yes", "yes (timer)", "good", "LCU+LRT tables", "direct", "no"},
	}
	for _, r := range rows {
		for i, cell := range r {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, cell)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// Table8 prints the machine-model parameters of Figure 8.
func Table8(w io.Writer) {
	fmt.Fprintln(w, "Figure 8 — model parameters")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "parameter\tModel A\tModel B")
	for _, row := range [][3]string{
		{"Chips", "32", "4"},
		{"Cores", "32 (32x1)", "32 (4x8)"},
		{"L1 size (KB, I+D per core)", "64+64", "64+64"},
		{"L2 size (KB per chip)", "1024", "8 banks x 256"},
		{"L1 access latency (cycles)", "3", "3"},
		{"L2 access latency (cycles)", "10", "16"},
		{"Local memory latency (cycles)", "186", "210"},
		{"Remote memory latency (cycles)", "186", "315"},
		{"LCU entries", "8+2", "16+2"},
		{"LCU latency (cycles)", "3", "3"},
		{"LRT modules", "32", "8"},
		{"LRT entries (16-way)", "512", "512"},
		{"LRT latency (cycles)", "6", "6"},
	} {
		fmt.Fprintf(tw, "%s\t%s\t%s\n", row[0], row[1], row[2])
	}
	tw.Flush()
	fmt.Fprintln(w)
}
