package fairlock

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// The benchmark matrix behind BENCH_fairlock.json (no longer a file in
// the tree: `git show d41e800:BENCH_fairlock.json`): goroutine count ×
// read ratio × critical-section length × flavor, with the flavor
// innermost so one process run alternates fair/ref/sync on each cell and
// adjacent output rows compare directly. Every row self-describes its
// environment (gomaxprocs, num_cpu) through b.ReportMetric, so the
// emitted rows are machine-readable without knowing how the run was
// launched. Parallelism is driven through b.SetParallelism so the matrix
// is meaningful at any GOMAXPROCS.
//
// CI runs a short smoke slice of this matrix; regenerate the full matrix
// with:
//
//	GOMAXPROCS=8 go test -run '^$' -bench 'BenchmarkRWMutex' -benchmem ./fairlock

// benchRWLock is the minimal surface the matrix needs; satisfied by
// RWMutex, RefRWMutex and sync.RWMutex.
type benchRWLock interface {
	Lock()
	Unlock()
	RLock()
	RUnlock()
}

// spin simulates a critical section of roughly fixed length without
// sleeping or allocating.
func spin(n int) {
	for i := 0; i < n; i++ {
		benchSink.n++
	}
}

// benchSink is padded onto cache lines of its own. Unpadded, the linker
// places it beside runtime globals, and which ones depends on the rest of
// the binary: two builds of the same lock read BenchmarkMutexContended/fair
// 46 and 75 ns/op (EXPERIMENTS.md, "fairlock waits one way").
var benchSink struct {
	_ [128]byte
	n int
	_ [128]byte
}

// rwFlavor is one column of the matrix: which implementation.
type rwFlavor struct {
	name string
	mk   func() benchRWLock
}

var rwFlavors = []rwFlavor{
	{name: "fair", mk: func() benchRWLock { return &RWMutex{} }},
	{name: "ref", mk: func() benchRWLock { return &RefRWMutex{} }},
	{name: "sync", mk: func() benchRWLock { return &sync.RWMutex{} }},
}

// benchCell runs one matrix cell and stamps the self-describing metrics.
func benchCell(b *testing.B, m benchRWLock, g, readPct, cs int) {
	b.SetParallelism(g)
	b.ReportAllocs()
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	b.ReportMetric(float64(runtime.NumCPU()), "num_cpu")
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if i%100 < readPct {
				m.RLock()
				spin(cs)
				m.RUnlock()
			} else {
				m.Lock()
				spin(cs)
				m.Unlock()
			}
			i++
		}
	})
}

func BenchmarkRWMutex(b *testing.B) {
	for _, g := range []int{1, 4, 8} {
		for _, readPct := range []int{100, 95, 90, 50, 0} {
			for _, cs := range []int{0, 64} {
				for _, fl := range rwFlavors {
					fl := fl
					name := fmt.Sprintf("g%d/r%d/cs%d/%s", g, readPct, cs, fl.name)
					b.Run(name, func(b *testing.B) { benchCell(b, fl.mk(), g, readPct, cs) })
				}
			}
		}
	}
}

// BenchmarkUncontended measures the single-goroutine fast paths — the
// 0 allocs/op CAS paths the alloc guard pins.
func BenchmarkUncontended(b *testing.B) {
	b.Run("fair/Lock", func(b *testing.B) {
		var m RWMutex
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Lock()
			m.Unlock()
		}
	})
	b.Run("fair/RLock", func(b *testing.B) {
		var m RWMutex
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.RLock()
			m.RUnlock()
		}
	})
	b.Run("ref/Lock", func(b *testing.B) {
		var m RefRWMutex
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Lock()
			m.Unlock()
		}
	})
	b.Run("ref/RLock", func(b *testing.B) {
		var m RefRWMutex
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.RLock()
			m.RUnlock()
		}
	})
	b.Run("sync/Lock", func(b *testing.B) {
		var m sync.RWMutex
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Lock()
			m.Unlock()
		}
	})
	b.Run("sync/RLock", func(b *testing.B) {
		var m sync.RWMutex
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.RLock()
			m.RUnlock()
		}
	})
	b.Run("fair/Mutex", func(b *testing.B) {
		var m Mutex
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Lock()
			m.Unlock()
		}
	})
	b.Run("ref/Mutex", func(b *testing.B) {
		var m RefRWMutex
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Lock()
			m.Unlock()
		}
	})
}

// BenchmarkMutexContended compares the contended mutex path (pooled
// intrusive queue vs per-acquire channel allocation).
func BenchmarkMutexContended(b *testing.B) {
	type locker interface {
		Lock()
		Unlock()
	}
	for _, impl := range []struct {
		name string
		mk   func() locker
	}{
		{"fair", func() locker { return &Mutex{} }},
		{"ref", func() locker { return &RefRWMutex{} }},
		{"sync", func() locker { return &sync.Mutex{} }},
	} {
		b.Run(impl.name, func(b *testing.B) {
			m := impl.mk()
			b.SetParallelism(4)
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					m.Lock()
					spin(16)
					m.Unlock()
				}
			})
		})
	}
}
