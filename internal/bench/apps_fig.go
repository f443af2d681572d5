package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"fairrw/internal/apps"
	"fairrw/internal/machine"
	"fairrw/internal/microbench"
	"fairrw/internal/obs"
	"fairrw/internal/stats"
	"fairrw/internal/sweep"
	"fairrw/internal/swlocks"
)

func runApp(m *machine.Machine, app string, threads int, lock string, flt int, seed int64, o obs.Options) (float64, *obs.Capture) {
	m.Reset()
	hw := microbench.InstallDevice(m, lock, flt)
	mk := apps.Factory(lock)
	var cap *obs.Capture
	if o.Enabled() {
		cap = m.EnableObs(o, fmt.Sprintf("%s/%s t=%d", app, lock, threads))
		if !hw {
			// Software locks need the tracing wrapper; each instance gets a
			// distinct id in allocation order (deterministic: the app builds
			// its locks single-threaded before spawning).
			inner := mk
			var nextID uint64
			mk = func(m *machine.Machine) swlocks.RWLock {
				nextID++
				return swlocks.Trace(inner(m), nextID)
			}
		}
	}
	cycles := apps.RunWith(m, mk, apps.Config{App: app, Lock: lock, Threads: threads, Seed: seed})
	return float64(cycles), cap
}

// Fig13 regenerates Figure 13: application execution time (model A) with
// 95% confidence intervals, plus the paper's speedup commentary and the
// FLT ablation for radiosity (Section IV-C).
func (c Config) Fig13(w io.Writer) {
	// One flattened job per (app, lock, seed) plus the FLT ablation runs.
	type job struct {
		app     string
		threads int
		lock    string
		flt     int
		seed    int64
	}
	var jobs []job
	for _, a := range c.Fig13Apps {
		for _, lock := range c.Fig13Locks {
			for r := 0; r < c.Fig13Runs; r++ {
				jobs = append(jobs, job{a.Name, a.Threads, lock, 0, int64(1000 + r*77)})
			}
		}
	}
	fltBase := len(jobs)
	if c.FLTSlots > 0 {
		for r := 0; r < c.Fig13Runs; r++ {
			jobs = append(jobs, job{"radiosity", 16, "lcu", c.FLTSlots, int64(1000 + r*77)})
		}
	}
	type appOut struct {
		cycles float64
		obs    *obs.Capture
	}
	pool := machinePool(len(jobs))
	outs := sweep.MapWorkers(c.runner(), len(jobs), func(w, i int) appOut {
		j := jobs[i]
		cy, cap := runApp(pool(w, "A"), j.app, j.threads, j.lock, j.flt, j.seed, c.obsOpt())
		return appOut{cy, cap}
	})
	cycles := make([]float64, len(outs))
	for i, o := range outs {
		cycles[i] = o.cycles
		if c.Obs != nil {
			c.Obs.Add(o.obs)
		}
	}

	fmt.Fprintln(w, "Figure 13 — application execution time (cycles, model A, mean ± 95% CI)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "app\tthreads\tposix\tlcu\tssb\tlcu speedup")
	var speedups []float64
	radiosityPosix := 0.0
	idx := 0
	for _, a := range c.Fig13Apps {
		means := map[string]float64{}
		cis := map[string]float64{}
		for _, lock := range c.Fig13Locks {
			xs := cycles[idx : idx+c.Fig13Runs]
			idx += c.Fig13Runs
			means[lock] = stats.Mean(xs)
			cis[lock] = stats.CI95(xs)
		}
		sp := means["posix"] / means["lcu"]
		speedups = append(speedups, sp)
		if a.Name == "radiosity" {
			radiosityPosix = means["posix"]
		}
		fmt.Fprintf(tw, "%s\t%d\t%.0f±%.0f\t%.0f±%.0f\t%.0f±%.0f\t%.3fx\n",
			a.Name, a.Threads,
			means["posix"], cis["posix"], means["lcu"], cis["lcu"], means["ssb"], cis["ssb"], sp)
	}
	tw.Flush()
	fmt.Fprintf(w, "geometric-mean LCU speedup over posix: %.3fx (paper: ~1.02x; fluidanimate +7.4%%, radiosity negative)\n",
		stats.GeoMean(speedups))

	if c.FLTSlots > 0 {
		xs := cycles[fltBase:]
		fmt.Fprintf(w, "FLT ablation — radiosity with %d-slot FLT: %.0f±%.0f cycles (%.3fx vs posix; Section IV-C biasing restored)\n",
			c.FLTSlots, stats.Mean(xs), stats.CI95(xs), radiosityPosix/stats.Mean(xs))
	}
	fmt.Fprintln(w)
}
