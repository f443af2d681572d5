package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"fairrw/internal/apps"
	"fairrw/internal/stats"
	"fairrw/internal/sweep"
)

// Fig13 regenerates Figure 13: application execution time (model A) with
// 95% confidence intervals, plus the paper's speedup commentary and the
// FLT ablation for radiosity (Section IV-C).
func (c Config) Fig13(w io.Writer) {
	// One flattened run per (app, lock, seed) plus the FLT ablation runs.
	var runs []apps.Config
	for _, a := range c.Fig13Apps {
		for _, lock := range fig13Locks {
			for r := 0; r < c.Fig13Runs; r++ {
				runs = append(runs, apps.Config{App: a.Name, Lock: lock, Threads: a.Threads, Seed: int64(1000 + r*77)})
			}
		}
	}
	fltBase := len(runs)
	if c.FLTSlots > 0 {
		for r := 0; r < c.Fig13Runs; r++ {
			runs = append(runs, apps.Config{App: "radiosity", Lock: "lcu", Threads: 16, FLT: c.FLTSlots, Seed: int64(1000 + r*77)})
		}
	}
	pool := machinePool(len(runs))
	results := sweep.MapWorkers(c.runner(), len(runs), func(w, i int) apps.Result {
		cfg := runs[i]
		cfg.Obs = c.obsOpt()
		return apps.RunOn(pool(w, "A"), cfg)
	})
	cycles := make([]float64, len(results))
	for i, r := range results {
		cycles[i] = float64(r.Cycles)
		c.collect(r.Obs)
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
		for _, lock := range fig13Locks {
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
