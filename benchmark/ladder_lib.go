package main

import (
	"runtime"
	"sync"
	"time"

	"fairrw/fairlock"
)

// libLadder: the lock alone, by mode and under hand-off, and the workload's
// own mixed stream with nobody to contend with.
func libLadder(lc *ladderCtx) []string {
	stream := genStream(lc.seed, 0, libSharedPct, 1)
	fairlockRungs(stream, lc.rung(0.7), lc.out)
	in, _ := setupLib(lc.seed)
	t := in.th[0]
	lc.out["uncontended_pair_ns"] = timeOps(lc.rung(0.2), reps, func(n int) {
		t.loop(&in.mu, &in.guarded, time.Time{}, n, nil)
	})
	return nil
}

// fairlockRungs measures the lock under the manager: uncontended pairs by
// mode, the Unlock-to-waiter hand-off, and the same mixed stream on
// sync.RWMutex for scale.
func fairlockRungs(stream []op, budget time.Duration, out map[string]float64) {
	var m fairlock.RWMutex
	out["fairlock.rlock_pair_ns"] = timeOps(budget/5, reps, func(n int) {
		for i := 0; i < n; i++ {
			m.RLock()
			m.RUnlock()
		}
	})
	out["fairlock.lock_pair_ns"] = timeOps(budget/5, reps, func(n int) {
		for i := 0; i < n; i++ {
			m.Lock()
			m.Unlock()
		}
	})
	out["fairlock.handoff_ns"] = handoffRung(budget / 5)

	// The lib workload's loop, two goroutines, on each lock in turn.
	mixed := func(l rwLocker, d time.Duration) float64 {
		var guarded int64
		var th [libThreads]libThread
		var wg sync.WaitGroup
		start := time.Now()
		for i := range th {
			th[i].stream = stream
			th[i].pos = i * 7919
			wg.Add(1)
			go func(t *libThread) {
				defer wg.Done()
				t.loop(l, &guarded, start.Add(d), 0, nil)
			}(&th[i])
		}
		wg.Wait()
		return float64(time.Since(start).Nanoseconds()) / float64(th[0].pairs+th[1].pairs)
	}
	var fl, sy series
	for i := 0; i < 3; i++ {
		fl = append(fl, mixed(new(fairlock.RWMutex), budget/15))
		sy = append(sy, mixed(new(sync.RWMutex), budget/15))
	}
	out["fairlock.sync_rwmutex_ratio"] = median(fl) / median(sy)
}

// handoffRung times Unlock to the queued waiter's Lock returning: two
// goroutines pass one lock back and forth, and the holder releases only
// once the other is queued, so every hand-off wakes a parked waiter.
func handoffRung(budget time.Duration) float64 {
	// m guards released and samples: the holder writes them before Unlock,
	// the waiter reads them after Lock.
	var m fairlock.RWMutex
	var released time.Time
	samples := make([]float64, 0, 1<<16)
	deadline := time.Now().Add(budget)
	var wg sync.WaitGroup
	m.Lock()
	turn := func(holding bool) {
		defer wg.Done()
		for {
			if !holding {
				m.Lock()
				samples = append(samples, float64(time.Since(released).Nanoseconds()))
			}
			holding = false
			for m.QueueLen() == 0 && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			if !time.Now().Before(deadline) {
				m.Unlock()
				return
			}
			released = time.Now()
			m.Unlock()
		}
	}
	wg.Add(2)
	go turn(true)
	go turn(false)
	wg.Wait()
	return median(samples)
}
