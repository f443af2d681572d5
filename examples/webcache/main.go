// Webcache: uses the native fairlock package (the paper's lock semantics
// as a real Go library) to protect a read-mostly cache, and contrasts its
// fairness with sync.RWMutex under reader churn: the time a writer waits
// to invalidate an entry stays bounded under fairlock.
//
// It doubles as a manual perf check for the lock's rebuilt hot paths
// (atomic fast path + BRAVO reader slots + pooled FIFO): it reports read
// throughput and the lock's own grant counters, so a regression in the
// read fast path shows up directly in reads/sec.
//
// With -addr the same workload takes the same lock from a lockd lock
// service (cmd/lockd) instead of in-process: every goroutine opens its
// own connection and session and contends on one named lock, so the
// demo shows the fairness property surviving the move from a mutex in
// shared memory to a lease-based reservation in a server.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fairrw/fairlock"
	"fairrw/internal/lockmgr"
	"fairrw/internal/lockmgr/client"
)

// locker is the slice of the RW-lock surface the demo needs. It is
// satisfied by *fairlock.RWMutex directly and by a lockd session via
// remoteLock.
type locker interface {
	RLock()
	RUnlock()
	Lock()
	Unlock()
}

// remoteLock adapts one lockd connection+session to locker. Each
// goroutine uses its own (a client Conn is not goroutine-safe), but all
// of them contend on the same named lock inside the service, which
// queues them in arrival order exactly like the in-process fairlock.
type remoteLock struct {
	c    *client.Conn
	sid  uint64
	name string
}

func (r *remoteLock) RLock()   { r.acquire(false) }
func (r *remoteLock) RUnlock() { r.release(false) }
func (r *remoteLock) Lock()    { r.acquire(true) }
func (r *remoteLock) Unlock()  { r.release(true) }

func (r *remoteLock) acquire(excl bool) {
	if err := r.c.Acquire(r.sid, r.name, excl, -1); err != nil {
		log.Fatalf("webcache: remote acquire: %v", err)
	}
}

func (r *remoteLock) release(excl bool) {
	if err := r.c.Release(r.sid, r.name, excl); err != nil {
		log.Fatalf("webcache: remote release: %v", err)
	}
}

func main() {
	addr := flag.String("addr", "", "lockd address; empty runs against the in-process fairlock")
	flag.Parse()

	// The cached value itself lives in an atomic pointer: the lock
	// provides the invalidate-then-publish exclusion being measured, the
	// pointer provides the in-process memory fence (in remote mode the
	// contenders would normally be separate processes).
	var val atomic.Pointer[string]
	v1 := "v1"
	val.Store(&v1)

	// newLock hands each goroutine its lock handle: the one shared
	// mutex locally, or a fresh connection+session against lockd.
	var mu *fairlock.RWMutex
	var newLock func() locker
	if *addr == "" {
		mu = &fairlock.RWMutex{}
		newLock = func() locker { return mu }
	} else {
		newLock = func() locker {
			c, err := client.Dial(*addr)
			if err != nil {
				log.Fatalf("webcache: dial %s: %v", *addr, err)
			}
			sid, err := c.Open(30 * time.Second)
			if err != nil {
				log.Fatalf("webcache: open session: %v", err)
			}
			return &remoteLock{c: c, sid: sid, name: "webcache/config"}
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64

	readers := runtime.GOMAXPROCS(0) * 2
	if readers < 8 {
		readers = 8
	}

	// Reader churn hammering the cached value.
	start := time.Now()
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lk := newLock()
			n := int64(0)
			for {
				select {
				case <-stop:
					reads.Add(n)
					return
				default:
				}
				lk.RLock()
				_ = *val.Load()
				lk.RUnlock()
				n++
			}
		}()
	}

	// Writer: update the config 50 times, measuring wait per update.
	wlk := newLock()
	var worst, total time.Duration
	const updates = 50
	for i := 0; i < updates; i++ {
		v := fmt.Sprintf("v%d", i+2)
		t0 := time.Now()
		wlk.Lock()
		val.Store(&v)
		wlk.Unlock()
		d := time.Since(t0)
		total += d
		if d > worst {
			worst = d
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)

	fmt.Printf("final value: %s\n", *val.Load())
	fmt.Printf("readers: %d goroutines for %v\n", readers, elapsed.Round(time.Millisecond))
	fmt.Printf("reads served: %d (%.2fM reads/sec)\n",
		reads.Load(), float64(reads.Load())/elapsed.Seconds()/1e6)
	if mu != nil {
		r, w := mu.Stats()
		fmt.Printf("lock grants: %d read, %d write (queue now %d deep)\n", r, w, mu.QueueLen())
	} else if c, err := client.Dial(*addr); err == nil {
		if raw, err := c.Stats(); err == nil {
			var snap lockmgr.Snapshot
			if json.Unmarshal(raw, &snap) == nil {
				fmt.Printf("lockd grants: %d shared, %d excl (wait p99 %.1fus, %d sessions)\n",
					snap.SharedGrants, snap.ExclGrants, snap.WaitP99US, snap.Sessions)
			}
		}
		c.Close()
	}
	fmt.Printf("writer wait under reader churn: worst %v, mean %v (FIFO admission keeps it bounded)\n",
		worst, (total / updates).Round(time.Microsecond))

	if mu == nil {
		return // the epilogue exercises fairlock-only API surface
	}

	// Trylock with a deadline — the paper's trylock support (Figure 2).
	mu.RLock()
	if !mu.TryLockFor(5 * time.Millisecond) {
		fmt.Println("TryLockFor timed out cleanly while a reader held the lock")
	}
	mu.RUnlock()

	// RLocker interoperates with anything expecting a sync.Locker.
	cond := sync.NewCond(mu.RLocker())
	cond.L.Lock()
	cond.L.Unlock()
	fmt.Println("RLocker works as a sync.Locker (drop-in for sync.RWMutex)")
}
