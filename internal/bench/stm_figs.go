package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"fairrw/internal/stmbench"
	"fairrw/internal/sweep"
)

// sweepSTM fans the STM workloads across the pool, one reused machine per
// (worker, model). Results come back, and captures join the collector, in
// enumeration order.
func (c Config) sweepSTM(wls []stmbench.Workload) []stmbench.Result {
	pool := machinePool(len(wls))
	results := sweep.MapWorkers(c.runner(), len(wls), func(w, i int) stmbench.Result {
		wl := wls[i]
		wl.Obs = c.obsOpt()
		return stmbench.RunOn(pool(w, wl.Model), wl)
	})
	for _, r := range results {
		c.collect(r.Obs)
	}
	return results
}

// Fig11 regenerates Figure 11: RB-tree transaction time and commit-phase
// dissection vs thread count, 75% read-only transactions.
func (c Config) Fig11(w io.Writer, model string) {
	var wls []stmbench.Workload
	for _, th := range fig11Threads {
		for _, e := range stmEngines {
			wls = append(wls, stmbench.Workload{
				Model: model, Engine: e, Structure: "rb",
				MaxNodes: fig11Nodes, Threads: th, ReadPct: 75,
				OpsPerThr: c.STMOps, Seed: 42,
			})
		}
	}
	results := c.sweepSTM(wls)

	fmt.Fprintf(w, "Figure 11%s — RB-tree (2^8 keys, 75%% read-only): txn time (cycles) by engine, model %s\n",
		map[string]string{"A": "a", "B": "b"}[model], model)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "threads")
	for _, e := range stmEngines {
		fmt.Fprintf(tw, "\t%s\t(exec+commit)", e)
	}
	fmt.Fprintln(tw)
	idx := 0
	for _, th := range fig11Threads {
		fmt.Fprintf(tw, "%d", th)
		for range stmEngines {
			r := results[idx]
			idx++
			fmt.Fprintf(tw, "\t%.0f\t(%.0f+%.0f)", r.MeanTxnCycles, r.ExecPerTxn, r.CommitPerTxn)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// Fig12 regenerates Figure 12: transaction time at 16 threads, 75%
// read-only, for each structure and size, with sw-only/LCU speedups.
func (c Config) Fig12(w io.Writer, model string) {
	var wls []stmbench.Workload
	for _, structure := range fig12Structures {
		for _, size := range c.Fig12Sizes {
			for _, e := range stmEngines {
				wls = append(wls, stmbench.Workload{
					Model: model, Engine: e, Structure: structure,
					MaxNodes: size, Threads: 16, ReadPct: 75,
					OpsPerThr: c.STMOps, Seed: 42,
				})
			}
		}
	}
	results := c.sweepSTM(wls)

	fmt.Fprintf(w, "Figure 12%s — txn time (cycles), 16 threads, 75%% read-only, model %s\n",
		map[string]string{"A": "a", "B": "b"}[model], model)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "structure\tsize\tsw-only\tlcu\tfraser\tssb\tlcu speedup vs sw-only")
	idx := 0
	for _, structure := range fig12Structures {
		for _, size := range c.Fig12Sizes {
			row := map[string]float64{}
			for _, e := range stmEngines {
				row[e] = results[idx].MeanTxnCycles
				idx++
			}
			fmt.Fprintf(tw, "%s\t2^%d\t%.0f\t%.0f\t%.0f\t%.0f\t%.2fx\n",
				structure, log2(size), row["swonly"], row["lcu"], row["fraser"], row["ssb"],
				row["swonly"]/row["lcu"])
		}
	}
	tw.Flush()
	fmt.Fprintln(w, "paper: rb/skip speedups 1.53x-3.35x; hash >= 1.42x")
	fmt.Fprintln(w)
}

func log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
