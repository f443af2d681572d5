package server

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fairrw/internal/lockmgr"
	"fairrw/internal/lockmgr/client"
)

// BenchmarkAcquireRelease measures one closed-loop acquire+release pair
// over loopback TCP — the per-op cost cmd/lockload's throughput is built
// from (two wire round trips per iteration).
func BenchmarkAcquireRelease(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := New(lockmgr.New(lockmgr.Config{}))
	go srv.Serve(ln)
	defer srv.Shutdown(time.Second)

	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	sid, err := c.Open(time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Acquire(sid, "bench-key", false, time.Second); err != nil {
			b.Fatal(err)
		}
		if err := c.Release(sid, "bench-key", false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAcquireReleasePipelined is the same pair with the release and
// the next acquire pipelined into one write (what cmd/lockload does).
func BenchmarkAcquireReleasePipelined(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := New(lockmgr.New(lockmgr.Config{}))
	go srv.Serve(ln)
	defer srv.Shutdown(time.Second)

	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	sid, err := c.Open(time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Acquire(sid, "bench-key", false, time.Second); err != nil {
		b.Fatal(err)
	}
	var errs []error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.QueueRelease(sid, "bench-key", false)
		c.QueueAcquire(sid, "bench-key", false, time.Second)
		errs, err = c.Flush(errs[:0])
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range errs {
			if e != nil {
				b.Fatal(e)
			}
		}
	}
}

// BenchmarkManagerAcquireRelease is the same pair without the network:
// the manager's own overhead per acquire+release.
func BenchmarkManagerAcquireRelease(b *testing.B) {
	m := lockmgr.New(lockmgr.Config{})
	defer m.Close()
	sid, err := m.Open(time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Acquire(sid, "bench-key", false, time.Second); err != nil {
			b.Fatal(err)
		}
		if err := m.Release(sid, "bench-key", false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelinedTwoClients is the go-test twin of the repo
// benchmark's svc-pipelined-read workload, so that workload's server path
// can be profiled (-cpuprofile) without touching benchmark/: two
// closed-loop clients, each flushing 8 acquire+release pairs per round
// trip over 64 keys, 90 % shared, against a two-worker server on loopback
// TCP. One iteration is one pair.
func BenchmarkPipelinedTwoClients(b *testing.B) {
	const (
		clients   = 2
		depth     = 8
		keys      = 64
		sharedPct = 90
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := NewWithConfig(lockmgr.New(lockmgr.Config{}), Config{Workers: 2})
	go srv.Serve(ln)
	defer srv.Shutdown(time.Second)

	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("bench/key-%02d", i)
	}
	type cl struct {
		c   *client.Conn
		sid uint64
		rng *rand.Rand
	}
	var cls [clients]cl
	for i := range cls {
		c, err := client.Dial(ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		sid, err := c.Open(time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		cls[i] = cl{c: c, sid: sid, rng: rand.New(rand.NewSource(int64(i) + 1))}
	}
	rounds := (b.N + clients*depth - 1) / (clients * depth)
	b.ReportAllocs()
	b.ResetTimer()
	sys0 := readSyscalls()
	var wg sync.WaitGroup
	for i := range cls {
		wg.Add(1)
		go func(k cl) {
			defer wg.Done()
			var errs []error
			for r := 0; r < rounds; r++ {
				for j := 0; j < depth; j++ {
					name := names[k.rng.Intn(keys)]
					excl := k.rng.Intn(100) >= sharedPct
					k.c.QueueAcquire(k.sid, name, excl, 10*time.Second)
					k.c.QueueRelease(k.sid, name, excl)
				}
				var err error
				errs, err = k.c.Flush(errs[:0])
				if err != nil {
					b.Error(err)
					return
				}
				for _, e := range errs {
					if e != nil {
						b.Error(e)
						return
					}
				}
			}
		}(cls[i])
	}
	wg.Wait()
	reportPaths(b, srv, clients*depth*rounds, sys0)
}

// BenchmarkHandoffTwoClients is the go-test twin of the repo benchmark's
// svc-handoff-write workload: two closed-loop clients at depth 1 taking
// one key exclusively against a two-worker server on loopback TCP, so
// most acquires queue behind the other client's hold and are granted by
// its release. One iteration is one acquire+release pair.
func BenchmarkHandoffTwoClients(b *testing.B) {
	const clients = 2
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := NewWithConfig(lockmgr.New(lockmgr.Config{}), Config{Workers: 2})
	go srv.Serve(ln)
	defer srv.Shutdown(time.Second)

	type cl struct {
		c   *client.Conn
		sid uint64
	}
	var cls [clients]cl
	for i := range cls {
		c, err := client.Dial(ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		sid, err := c.Open(time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		cls[i] = cl{c: c, sid: sid}
	}
	pairs := (b.N + clients - 1) / clients
	b.ReportAllocs()
	b.ResetTimer()
	sys0 := readSyscalls()
	var wg sync.WaitGroup
	for i := range cls {
		wg.Add(1)
		go func(k cl) {
			defer wg.Done()
			for r := 0; r < pairs; r++ {
				if err := k.c.Acquire(k.sid, "bench/key-00", true, 10*time.Second); err != nil {
					b.Error(err)
					return
				}
				if err := k.c.Release(k.sid, "bench/key-00", true); err != nil {
					b.Error(err)
					return
				}
			}
		}(cls[i])
	}
	wg.Wait()
	reportPaths(b, srv, clients*pairs, sys0)
}

// reportPaths adds to a twin benchmark's row which server paths its pairs
// took: how many acquires parked, the share of response chunks the loop
// wrote itself (the rest were left to a drain), and the read and write
// syscalls per pair since sys0, client and server sides together.
func reportPaths(b *testing.B, srv *Server, pairs int, sys0 syscalls) {
	sys1 := readSyscalls()
	b.StopTimer()
	var parks, inline, flushes uint64
	for _, ws := range srv.WorkerStats() {
		parks += ws.Parks
		inline += ws.InlineWrites
		flushes += ws.Flushes
	}
	b.ReportMetric(float64(parks)/float64(pairs), "parks/pair")
	b.ReportMetric(float64(inline)/float64(flushes), "inline-share")
	if sys0.ok && sys1.ok {
		b.ReportMetric(float64(sys1.reads-sys0.reads)/float64(pairs), "reads/pair")
		b.ReportMetric(float64(sys1.writes-sys0.writes)/float64(pairs), "writes/pair")
	}
}

// syscalls is the process's read and write syscall counts so far (syscr
// and syscw in /proc/self/io); ok is false where that file is unreadable.
type syscalls struct {
	reads, writes uint64
	ok            bool
}

func readSyscalls() (s syscalls) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return s
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, _ := strings.Cut(line, ": ")
		n, err := strconv.ParseUint(v, 10, 64)
		switch {
		case k == "syscr" && err == nil:
			s.reads, s.ok = n, true
		case k == "syscw" && err == nil:
			s.writes = n
		}
	}
	return s
}
