package fairlock

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

// rwLock is the API surface shared by RWMutex and its reference model,
// letting the differential tests drive both with the same script.
type rwLock interface {
	Lock()
	Unlock()
	RLock()
	RUnlock()
	TryLock() bool
	TryRLock() bool
	TryLockFor(time.Duration) bool
	TryRLockFor(time.Duration) bool
	Stats() (uint64, uint64)
	QueueLen() int
}

var (
	_ rwLock = (*RWMutex)(nil)
	_ rwLock = (*RefRWMutex)(nil)
)

// TestDifferentialSequential drives RWMutex and RefRWMutex through the
// same randomized single-goroutine scripts and requires identical trylock
// outcomes, grant counts, and queue lengths after every step.
func TestDifferentialSequential(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var a RWMutex
		var b RefRWMutex
		locks := []rwLock{&a, &b}
		wHeld := false
		rHeld := 0
		for op := 0; op < 400; op++ {
			var got [2]bool
			kind := rng.Intn(6)
			switch kind {
			case 0:
				for i, l := range locks {
					got[i] = l.TryLock()
				}
				if got[0] {
					wHeld = true
				}
			case 1:
				for i, l := range locks {
					got[i] = l.TryRLock()
				}
				if got[0] {
					rHeld++
				}
			case 2:
				for i, l := range locks {
					got[i] = l.TryLockFor(0)
				}
				if got[0] {
					wHeld = true
				}
			case 3:
				for i, l := range locks {
					got[i] = l.TryRLockFor(0)
				}
				if got[0] {
					rHeld++
				}
			case 4:
				if !wHeld {
					continue
				}
				for _, l := range locks {
					l.Unlock()
				}
				wHeld = false
			case 5:
				if rHeld == 0 {
					continue
				}
				for _, l := range locks {
					l.RUnlock()
				}
				rHeld--
			}
			if got[0] != got[1] {
				t.Fatalf("seed %d op %d kind %d: RWMutex=%v RefRWMutex=%v (wHeld=%v rHeld=%d)",
					seed, op, kind, got[0], got[1], wHeld, rHeld)
			}
			ar, aw := a.Stats()
			br, bw := b.Stats()
			if ar != br || aw != bw {
				t.Fatalf("seed %d op %d: stats diverged: new=(%d,%d) ref=(%d,%d)", seed, op, ar, aw, br, bw)
			}
			if a.QueueLen() != b.QueueLen() {
				t.Fatalf("seed %d op %d: queue len diverged: %d vs %d", seed, op, a.QueueLen(), b.QueueLen())
			}
		}
	}
}

type grantEvent struct {
	write bool
	id    int
}

// admissionOrder holds l in write mode, queues one waiter per pattern
// entry (true = writer) in a deterministic arrival order, releases the
// initial hold, and returns the order in which the waiters were granted.
func admissionOrder(t *testing.T, l rwLock, pattern []bool) []grantEvent {
	t.Helper()
	l.Lock()
	var mu sync.Mutex
	var order []grantEvent
	var wg sync.WaitGroup
	for i, write := range pattern {
		i, write := i, write
		wg.Add(1)
		go func() {
			defer wg.Done()
			if write {
				l.Lock()
			} else {
				l.RLock()
			}
			mu.Lock()
			order = append(order, grantEvent{write, i})
			mu.Unlock()
			if write {
				l.Unlock()
			} else {
				l.RUnlock()
			}
		}()
		deadline := time.Now().Add(5 * time.Second)
		for l.QueueLen() != i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never queued (QueueLen=%d)", i, l.QueueLen())
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	l.Unlock()
	wg.Wait()
	return order
}

// canonical sorts reader ids within each maximal run of consecutive read
// grants: readers of one batch are admitted together, so their recording
// order is scheduling noise, while batch boundaries and writer positions
// are part of the fairness contract.
func canonical(order []grantEvent) string {
	out := ""
	i := 0
	for i < len(order) {
		if order[i].write {
			out += fmt.Sprintf("W%d ", order[i].id)
			i++
			continue
		}
		j := i
		for j < len(order) && !order[j].write {
			j++
		}
		ids := make([]int, 0, j-i)
		for _, e := range order[i:j] {
			ids = append(ids, e.id)
		}
		sort.Ints(ids)
		out += fmt.Sprintf("R%v ", ids)
		i = j
	}
	return out
}

// maxBypass returns the largest number of later arrivals granted before
// any single waiter. Reader ids are first sorted within each run of
// consecutive read grants, as in canonical, so batch-mates recorded out
// of order do not count. Strict FIFO admission makes it 0.
func maxBypass(order []grantEvent) int {
	order = append([]grantEvent(nil), order...)
	for i := 0; i < len(order); {
		if order[i].write {
			i++
			continue
		}
		j := i
		for j < len(order) && !order[j].write {
			j++
		}
		run := order[i:j]
		sort.Slice(run, func(a, b int) bool { return run[a].id < run[b].id })
		i = j
	}
	worst := 0
	for pos, e := range order {
		bypasses := 0
		for _, g := range order[:pos] {
			if g.id > e.id {
				bypasses++
			}
		}
		worst = max(worst, bypasses)
	}
	return worst
}

// TestDifferentialAdmissionOrder fuzzes arrival patterns and requires the
// new lock to admit waiters in exactly the order and batching of the
// reference model, with no waiter overtaken on either lock.
func TestDifferentialAdmissionOrder(t *testing.T) {
	patterns := [][]bool{
		{false, false, true, false, true},
		{true, true, false, false, false, true},
		{false, true, false, true, false},
		{true, false, false, false, false, true, true},
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 12; i++ {
		p := make([]bool, 3+rng.Intn(6))
		for j := range p {
			p[j] = rng.Intn(3) == 0
		}
		patterns = append(patterns, p)
	}
	checkAdmission(t, patterns)
}

// TestDifferentialCohortWriters fuzzes all-writer arrival patterns. Writer
// grants fully serialize, so they pin the admission order most tightly:
// the new lock must match the reference grant for grant, in strict arrival
// order.
func TestDifferentialCohortWriters(t *testing.T) {
	var patterns [][]bool
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 20; i++ {
		p := make([]bool, 3+rng.Intn(8))
		for j := range p {
			p[j] = true
		}
		patterns = append(patterns, p)
	}
	checkAdmission(t, patterns)
}

// checkAdmission runs each pattern on RWMutex and RefRWMutex — and an
// all-writer pattern on Mutex as well — and fails unless their admission
// order, batching and stats agree and no waiter is overtaken.
func checkAdmission(t *testing.T, patterns [][]bool) {
	t.Helper()
	for pi, p := range patterns {
		var b RefRWMutex
		wantOrder := admissionOrder(t, &b, p)
		br, bw := b.Stats()
		locks := []rwLock{new(RWMutex)}
		if !slices.Contains(p, false) {
			locks = append(locks, writeOnly{new(Mutex)})
		}
		for _, a := range locks {
			gotOrder := admissionOrder(t, a, p)
			for _, o := range [][]grantEvent{gotOrder, wantOrder} {
				if n := maxBypass(o); n != 0 {
					t.Fatalf("pattern %d %v: a waiter was overtaken %d times: %s", pi, p, n, canonical(o))
				}
			}
			got, want := canonical(gotOrder), canonical(wantOrder)
			if got != want {
				t.Fatalf("pattern %d %v: %T admission diverged:\nnew: %s\nref: %s", pi, p, a, got, want)
			}
			ar, aw := a.Stats()
			if ar != br || aw != bw {
				t.Fatalf("pattern %d: %T stats diverged: new=(%d,%d) ref=(%d,%d)", pi, a, ar, aw, br, bw)
			}
		}
	}
}

// writeOnly drives Mutex through the rwLock surface as RefRWMutex's write
// mode: its grants are write grants, and a read call is a test bug.
type writeOnly struct{ *Mutex }

func (w writeOnly) RLock()                         { panic("fairlock: read on a write-only lock") }
func (w writeOnly) RUnlock()                       { panic("fairlock: read on a write-only lock") }
func (w writeOnly) TryRLock() bool                 { panic("fairlock: read on a write-only lock") }
func (w writeOnly) TryRLockFor(time.Duration) bool { panic("fairlock: read on a write-only lock") }
func (w writeOnly) Stats() (uint64, uint64)        { return 0, w.Grants() }

// TestDifferentialTimedWaiter checks that a timed-out writer unblocks the
// readers queued behind it identically in both implementations.
func TestDifferentialTimedWaiter(t *testing.T) {
	run := func(l rwLock) string {
		l.RLock() // active reader batch
		timedOut := make(chan bool, 1)
		go func() { timedOut <- l.TryLockFor(20 * time.Millisecond) }()
		deadline := time.Now().Add(5 * time.Second)
		for l.QueueLen() != 1 {
			if time.Now().After(deadline) {
				t.Fatal("timed writer never queued")
			}
			time.Sleep(50 * time.Microsecond)
		}
		var mu sync.Mutex
		var order []grantEvent
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				l.RLock()
				mu.Lock()
				order = append(order, grantEvent{false, i})
				mu.Unlock()
				l.RUnlock()
			}()
			for l.QueueLen() != i+2 {
				if time.Now().After(deadline) {
					t.Fatalf("reader %d never queued", i)
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
		ok := <-timedOut // writer expires while the read hold is still active
		if ok {
			t.Fatal("timed writer unexpectedly acquired")
		}
		wg.Wait() // readers must have been admitted past the expired writer
		l.RUnlock()
		return canonical(order)
	}
	var a RWMutex
	var b RefRWMutex
	if got, want := run(&a), run(&b); got != want {
		t.Fatalf("post-timeout admission diverged: new=%s ref=%s", got, want)
	}
}

// TestReaderBatchConcurrent verifies batch admission is genuinely
// concurrent: readers queued consecutively behind a writer must all be
// inside the lock at the same time.
func TestReaderBatchConcurrent(t *testing.T) {
	var m RWMutex
	m.Lock()
	const batch = 3
	var wg sync.WaitGroup
	gate := make(chan struct{})
	arrived := make(chan struct{}, batch)
	for i := 0; i < batch; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.RLock()
			arrived <- struct{}{}
			<-gate // hold read mode until every batch-mate has arrived
			m.RUnlock()
		}()
		deadline := time.Now().Add(5 * time.Second)
		for m.QueueLen() != i+1 {
			if time.Now().After(deadline) {
				t.Fatal("reader never queued")
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	m.Unlock()
	for i := 0; i < batch; i++ {
		select {
		case <-arrived:
		case <-time.After(2 * time.Second):
			t.Fatalf("only %d of %d batched readers admitted concurrently", i, batch)
		}
	}
	close(gate)
	wg.Wait()
}
