package microbench

import (
	"testing"

	"fairrw/internal/machine"
)

// BenchmarkMicrobenchRun measures one end-to-end microbenchmark simulation
// (machine build + 8 simulated threads through the LCU), the unit of work
// the sweep runner fans out.
func BenchmarkMicrobenchRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RunOn(NewMachine("A"), Config{
			Model: "A", Lock: "lcu", Threads: 8, WritePct: 75,
			TotalIters: 800, Seed: 42,
		})
	}
}

// BenchmarkPointList measures one pass over the benchmark's sim-micro point
// list — models A and B × {lcu, ssb, mcs, mrsw} × {100 %, 25 %} writes, 16
// threads, 2000 critical sections — on reused machines, as the sweeps run
// it. The mcs/mrsw points dispatch a Proc on every event, so this is the
// number a change to the kernel's context switch moves.
func BenchmarkPointList(b *testing.B) {
	machines := map[string]*machine.Machine{"A": NewMachine("A"), "B": NewMachine("B")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, model := range []string{"A", "B"} {
			for _, lock := range []string{"lcu", "ssb", "mcs", "mrsw"} {
				for _, wp := range []int{100, 25} {
					RunOn(machines[model], Config{
						Model: model, Lock: lock, Threads: 16,
						WritePct: wp, TotalIters: 2000, Seed: 42,
					})
				}
			}
		}
	}
}
