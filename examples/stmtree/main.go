// STM tree: runs the transactional red-black tree of Section IV-B on the
// m-CMP Model B with the sw-only (software RW locks, visible readers) and
// LCU commit engines, showing the reader-locking congestion gap.
package main

import (
	"fmt"

	"fairrw/internal/microbench"
	"fairrw/internal/stmbench"
)

func main() {
	fmt.Println("RB-tree, 2^10 keys, 16 threads, 75% read-only, model B")
	fmt.Println()
	m := microbench.NewMachine("B")
	for _, engine := range []string{"swonly", "lcu", "fraser"} {
		r := stmbench.RunOn(m, stmbench.Workload{
			Model: "B", Engine: engine, Structure: "rb",
			MaxNodes: 1 << 10, Threads: 16, ReadPct: 75,
			OpsPerThr: 100, Seed: 7,
		})
		fmt.Printf("%-7s  %8.0f cycles/txn  (exec %6.0f + commit %6.0f, %.2f aborts/commit)\n",
			engine, r.MeanTxnCycles, r.ExecPerTxn, r.CommitPerTxn, r.AbortsPerCommit)
	}
	fmt.Println()
	fmt.Println("the sw-only commit read-locks the whole read set (visible readers),")
	fmt.Println("congesting the tree root; the LCU's fair hardware RW locks remove it")
}
