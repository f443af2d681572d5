package stmbench

import (
	"testing"

	"fairrw/internal/machine"
)

// BenchmarkSimStm measures one pass over the benchmark's sim-stm list —
// model A, red-black tree, 256 keys, 16 threads, 75 % reads, 60 ops per
// thread, on swonly, lcu and fraser — on one reused machine, as the
// benchmark runs it. It is the go-test twin of that workload, so a change
// to the STM, the lock device or the kernel can be profiled with
// -cpuprofile/-memprofile without touching benchmark/.
func BenchmarkSimStm(b *testing.B) {
	m := machine.ModelA()
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, engine := range []string{"swonly", "lcu", "fraser"} {
			RunOn(m, Workload{
				Model: "A", Engine: engine, Structure: "rb", MaxNodes: 256,
				Threads: 16, ReadPct: 75, OpsPerThr: 60, Seed: int64(1 + j),
			})
			events += m.K.Events()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(events)/float64(b.N), "events/pass")
}
