package main

import (
	"fmt"
	"sync"
	"time"

	"fairrw/fairlock"
)

const (
	libThreads   = 2
	libSharedPct = 90
	libSpins     = 64
	// Of every libSampleEvery pairs, libTimed consecutive ones are timed as
	// a group and the latency sample is their mean: time.Now costs about as
	// much as an uncontended pair and ticks in whole nanoseconds, so timing
	// every pair, or single pairs, would measure the clock.
	libSampleEvery = 64
	libTimed       = 8
	// One timed group in libTraceEvery is traced on a traced slice: five
	// spans a pair at ten million pairs a second would be the workload.
	libTraceEvery = 16
)

// spin is the critical section's work: n dependent multiplies the compiler
// cannot drop.
func spin(n int, x uint64) uint64 {
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

// rwLocker is what the lib workload needs of a lock; fairlock.RWMutex and
// sync.RWMutex (the comparison rung) both have it.
type rwLocker interface {
	Lock()
	Unlock()
	RLock()
	RUnlock()
}

type libThread struct {
	stream []op
	pos    int
	lat    []float64

	pairs, writes, torn int64 // since setup
	sliceOps            int64
	first, last         time.Time
	acc                 uint64
	_                   [64]byte // keep the two threads' counters on separate lines
}

// libInst is the in-process product with no manager and no sockets: one
// zero-value fairlock.RWMutex shared by two goroutines.
type libInst struct {
	mu fairlock.RWMutex
	// guarded is written only under Lock and read under RLock; writers
	// bump it across the critical section, so it equals the number of
	// write grants iff writers excluded each other, and a reader that sees
	// it change inside its section caught a writer.
	guarded int64
	th      [libThreads]*libThread
}

func setupLib(seed int64) (*libInst, error) {
	in := &libInst{}
	for i := range in.th {
		in.th[i] = &libThread{
			stream: genStream(seed, i, libSharedPct, 1),
			lat:    make([]float64, 0, 1<<17),
		}
	}
	return in, nil
}

// pair performs the stream's next pair on l. A non-nil tb records the lock
// and unlock calls as spans under txn.
func (t *libThread) pair(l rwLocker, guarded *int64, tb *traceBuf, txn int32) {
	o := t.stream[t.pos%streamLen]
	t.pos++
	req := uint64(t.pairs)
	if o.excl {
		sp := tb.begin("fairlock.RWMutex.Lock", txn, req)
		l.Lock()
		tb.end(sp)
		v := *guarded
		t.acc = spin(libSpins, t.acc)
		*guarded = v + 1
		sp = tb.begin("fairlock.RWMutex.Unlock", txn, req)
		l.Unlock()
		tb.end(sp)
		t.writes++
	} else {
		sp := tb.begin("fairlock.RWMutex.RLock", txn, req)
		l.RLock()
		tb.end(sp)
		v := *guarded
		t.acc = spin(libSpins, t.acc)
		if *guarded != v {
			t.torn++
		}
		sp = tb.begin("fairlock.RWMutex.RUnlock", txn, req)
		l.RUnlock()
		tb.end(sp)
	}
	t.pairs++
	t.sliceOps++
}

// loop runs pairs from t's stream against l until the deadline, or for at
// least n pairs when n > 0. Of every libSampleEvery pairs the first
// libTimed are timed as a group.
func (t *libThread) loop(l rwLocker, guarded *int64, deadline time.Time, n int, tb *traceBuf) {
	t.lat = t.lat[:0]
	t.sliceOps = 0
	t.first = time.Now()
	for group := 0; n == 0 || t.sliceOps < int64(n); group++ {
		t0 := time.Now()
		if n == 0 && !t0.Before(deadline) {
			break
		}
		gtb := tb
		if group%libTraceEvery != 0 {
			gtb = nil
		}
		txn := gtb.begin("bench.txn", -1, uint64(t.pairs))
		for j := 0; j < libTimed; j++ {
			t.pair(l, guarded, gtb, txn)
		}
		dt := time.Since(t0)
		gtb.end(txn)
		t.lat = append(t.lat, us(dt)/libTimed)
		for j := libTimed; j < libSampleEvery; j++ {
			t.pair(l, guarded, nil, -1)
		}
	}
	t.last = time.Now()
}

func (in *libInst) run(d time.Duration, tr *tracer) sliceSample {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for i, t := range in.th {
		wg.Add(1)
		go func(i int, t *libThread) {
			defer wg.Done()
			t.loop(&in.mu, &in.guarded, deadline, 0, tr.thread(i))
		}(i, t)
	}
	wg.Wait()
	var s sliceSample
	first, last := in.th[0].first, in.th[0].last
	for _, t := range in.th {
		s.ops += t.sliceOps
		s.lat = append(s.lat, t.lat...)
		if t.first.Before(first) {
			first = t.first
		}
		if t.last.After(last) {
			last = t.last
		}
	}
	s.wall = last.Sub(first)
	return s
}

func (in *libInst) threads() int { return libThreads }

func (in *libInst) counters(out map[string]float64) {
	r, w := in.mu.Stats()
	out["fairlock.read_grants"] = float64(r)
	out["fairlock.write_grants"] = float64(w)
	out["fairlock.cohort_grants"] = float64(in.mu.CohortGrants())
}

func (in *libInst) finish() (attempted, failed int64, problems []string) {
	var writes, torn int64
	for _, t := range in.th {
		attempted += t.pairs
		writes += t.writes
		torn += t.torn
	}
	if in.guarded != writes {
		problems = append(problems, fmt.Sprintf("mutual exclusion: guarded counter %d after %d write grants", in.guarded, writes))
	}
	if torn != 0 {
		problems = append(problems, fmt.Sprintf("%d readers saw a writer inside their critical section", torn))
	}
	r, w := in.mu.Stats()
	if int64(w) != writes || int64(r) != attempted-writes {
		problems = append(problems, fmt.Sprintf("fairlock counted %d read + %d write grants, the threads made %d + %d", r, w, attempted-writes, writes))
	}
	if !in.mu.TryLock() {
		problems = append(problems, "lock still held after the last pair")
	} else {
		in.mu.Unlock()
	}
	return attempted, torn, problems
}
