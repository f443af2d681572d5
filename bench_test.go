// Package fairrw's top-level benchmarks regenerate each figure of the
// paper as a testing.B target (one benchmark per table/figure; Figures 9
// and 10 also expose per-lock sub-benchmarks), plus native benchmarks of
// the fairlock package against sync.RWMutex.
//
// Simulator benchmarks report cycles_per_CS / cycles_per_txn via
// b.ReportMetric; wall-clock ns/op measures simulator speed, not the
// modelled hardware.
package main

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"fairrw/fairlock"
	"fairrw/internal/apps"
	"fairrw/internal/bench"
	"fairrw/internal/machine"
	"fairrw/internal/microbench"
	"fairrw/internal/stmbench"
)

// BenchmarkFig09 measures the CS microbenchmark (LCU vs SSB) per model,
// lock and write percentage — the data behind Figures 9a/9b.
func BenchmarkFig09(b *testing.B) {
	for _, model := range []string{"A", "B"} {
		for _, lock := range []string{"lcu", "ssb"} {
			for _, wp := range []int{100, 75, 50, 25} {
				name := fmt.Sprintf("model%s/%s/%d%%w", model, lock, wp)
				b.Run(name, func(b *testing.B) {
					var cpc float64
					for i := 0; i < b.N; i++ {
						r := microbench.Run(microbench.Config{
							Model: model, Lock: lock, Threads: 16,
							WritePct: wp, TotalIters: 2000, Seed: 42,
						})
						cpc = r.CyclesPerCS
					}
					b.ReportMetric(cpc, "cycles/CS")
				})
			}
		}
	}
}

// BenchmarkFig10 measures the CS microbenchmark against the software
// locks — the data behind Figures 10a/10b.
func BenchmarkFig10(b *testing.B) {
	for _, lock := range []string{"lcu", "tas", "tatas", "mcs", "mrsw"} {
		for _, threads := range []int{16, 40} {
			name := fmt.Sprintf("modelA/%s/%dt", lock, threads)
			b.Run(name, func(b *testing.B) {
				var cpc float64
				for i := 0; i < b.N; i++ {
					r := microbench.Run(microbench.Config{
						Model: "A", Lock: lock, Threads: threads,
						WritePct: 100, TotalIters: 2000, Seed: 42,
					})
					cpc = r.CyclesPerCS
				}
				b.ReportMetric(cpc, "cycles/CS")
			})
		}
	}
}

// BenchmarkFig11 measures STM scalability on the RB-tree (Figure 11).
func BenchmarkFig11(b *testing.B) {
	for _, engine := range []string{"swonly", "lcu", "fraser", "ssb"} {
		for _, threads := range []int{1, 16} {
			b.Run(fmt.Sprintf("%s/%dt", engine, threads), func(b *testing.B) {
				var mean float64
				for i := 0; i < b.N; i++ {
					r := stmbench.Run(stmbench.Workload{
						Model: "A", Engine: engine, Structure: "rb",
						MaxNodes: 1 << 8, Threads: threads, ReadPct: 75,
						OpsPerThr: 60, Seed: 42,
					})
					mean = r.MeanTxnCycles
				}
				b.ReportMetric(mean, "cycles/txn")
			})
		}
	}
}

// BenchmarkFig12 measures the three STM structures at 16 threads
// (Figure 12; reduced sizes, see EXPERIMENTS.md).
func BenchmarkFig12(b *testing.B) {
	for _, structure := range []string{"rb", "skip", "hash"} {
		for _, engine := range []string{"swonly", "lcu"} {
			b.Run(fmt.Sprintf("%s/%s", structure, engine), func(b *testing.B) {
				var mean float64
				for i := 0; i < b.N; i++ {
					r := stmbench.Run(stmbench.Workload{
						Model: "A", Engine: engine, Structure: structure,
						MaxNodes: 1 << 12, Threads: 16, ReadPct: 75,
						OpsPerThr: 60, Seed: 42,
					})
					mean = r.MeanTxnCycles
				}
				b.ReportMetric(mean, "cycles/txn")
			})
		}
	}
}

// BenchmarkFig13 measures the application kernels (Figure 13).
func BenchmarkFig13(b *testing.B) {
	for _, app := range []struct {
		name    string
		threads int
	}{{"fluidanimate", 32}, {"cholesky", 16}, {"radiosity", 16}} {
		for _, lock := range []string{"posix", "lcu", "ssb"} {
			b.Run(app.name+"/"+lock, func(b *testing.B) {
				var cycles float64
				for i := 0; i < b.N; i++ {
					m := machine.ModelA()
					microbench.InstallDevice(m, lock, 0)
					cycles = float64(apps.Run(m, apps.Config{
						App: app.name, Lock: lock, Threads: app.threads, Seed: 7,
					}))
				}
				b.ReportMetric(cycles, "cycles")
			})
		}
	}
}

// BenchmarkTables regenerates the static tables (Figures 1 and 8).
func BenchmarkTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table1(io.Discard)
		bench.Table8(io.Discard)
	}
}

// BenchmarkFairlockRead compares the native fair RW lock with sync.RWMutex
// on a read-only workload (real hardware, not simulated).
func BenchmarkFairlockRead(b *testing.B) {
	b.Run("fairlock", func(b *testing.B) {
		var m fairlock.RWMutex
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				m.RLock()
				m.RUnlock()
			}
		})
	})
	b.Run("sync", func(b *testing.B) {
		var m sync.RWMutex
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				m.RLock()
				m.RUnlock()
			}
		})
	})
}

// BenchmarkFairlockMixed compares a 90/10 read/write mix.
func BenchmarkFairlockMixed(b *testing.B) {
	b.Run("fairlock", func(b *testing.B) {
		var m fairlock.RWMutex
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if i%10 == 0 {
					m.Lock()
					m.Unlock()
				} else {
					m.RLock()
					m.RUnlock()
				}
				i++
			}
		})
	})
	b.Run("sync", func(b *testing.B) {
		var m sync.RWMutex
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if i%10 == 0 {
					m.Lock()
					m.Unlock()
				} else {
					m.RLock()
					m.RUnlock()
				}
				i++
			}
		})
	})
}
