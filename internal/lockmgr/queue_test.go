package lockmgr

import (
	"maps"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"fairrw/internal/fairq"
)

// recWaiter is a Waiter that records what it is told.
type recWaiter struct {
	mu  sync.Mutex
	got []Completion
}

func (r *recWaiter) Complete(cp Completion) {
	r.mu.Lock()
	r.got = append(r.got, cp)
	r.mu.Unlock()
}

func (r *recWaiter) take() []Completion {
	r.mu.Lock()
	defer r.mu.Unlock()
	got := r.got
	r.got = nil
	return got
}

// TestBatchAcquireQueuesAndReleaseCompletes: with a Waiter on the op a
// would-block batch acquire is queued by ExecBatch itself — one arrival,
// counted as waiting — and the batch whose release lets it in hands its
// grant back in Completions, hold recorded, nothing called.
func TestBatchAcquireQueuesAndReleaseCompletes(t *testing.T) {
	m := newTest(t, slowCfg())
	sc := m.NewBatchScratch()
	holder, waiter := mustOpen(t, m, time.Minute), mustOpen(t, m, time.Minute)
	var rw recWaiter

	ops := []BatchOp{
		{Kind: BatchAcquire, Tag: 1, SID: holder, Name: []byte("k"), Excl: true},
		{Kind: BatchAcquire, Tag: 2, SID: waiter, Name: []byte("k"), Wait: -1, Waiter: &rw},
		{Kind: BatchKeepAlive, Tag: 2, SID: waiter, Lease: int64(time.Minute)},
	}
	m.ExecBatch(ops, sc)
	if ops[0].Err != nil || ops[1].Err != ErrWouldBlock || ops[2].Err != ErrDeferred {
		t.Fatalf("batch = %v, %v, %v; want nil, ErrWouldBlock, ErrDeferred", ops[0].Err, ops[1].Err, ops[2].Err)
	}
	if n, w := m.QueueLen("k"), m.Stats().Waiting; n != 1 || w != 1 || len(sc.Completions()) != 0 {
		t.Fatalf("queued acquire: QueueLen %d, Waiting %d, %d completions; want 1, 1, 0", n, w, len(sc.Completions()))
	}
	if hl := m.HotLocks(1); hl[0].Acquires != 2 {
		t.Fatalf("arrivals = %d, want 2 (the queued acquire counts once, now)", hl[0].Acquires)
	}

	rel := []BatchOp{{Kind: BatchRelease, Tag: 1, SID: holder, Name: []byte("k"), Excl: true}}
	m.ExecBatch(rel, sc)
	cps := sc.Completions()
	if rel[0].Err != nil || len(cps) != 1 || cps[0].Err != nil || cps[0].Tag != 2 || cps[0].SID != waiter || cps[0].W != Waiter(&rw) {
		t.Fatalf("release = %v, completions %+v; want the waiter's grant", rel[0].Err, cps)
	}
	if got := rw.take(); len(got) != 0 {
		t.Fatalf("the batch's own completion was also delivered by call: %+v", got)
	}
	snap := m.Stats()
	if snap.Waiting != 0 || snap.SharedGrants != 1 || snap.ExclGrants != 1 || snap.WaitCount != 2 {
		t.Fatalf("after the grant: %+v", snap)
	}
	if err := m.Release(waiter, "k", false); err != nil {
		t.Fatalf("the granted waiter holds nothing: %v", err)
	}
}

// TestQueuedAcquireEndings: every other way a queued batch acquire ends
// reaches its Waiter by call — its own deadline (ErrTimeout) and its
// lease's lapse (ErrExpired) from the manager's timer at that very instant,
// its session's close (ErrExpired), CancelWait — and each leaves the queue
// and the waiting gauge clean and lets the waiter behind it in.
func TestQueuedAcquireEndings(t *testing.T) {
	const d = 20 * time.Millisecond
	for _, tc := range []struct {
		name  string
		lease time.Duration // the doomed session's
		wait  time.Duration
		end   func(m *Manager, fc *fakeClock, sid uint64, w Waiter)
		want  error
	}{
		{"deadline", time.Minute, d, func(_ *Manager, fc *fakeClock, _ uint64, _ Waiter) { fc.Advance(1) }, ErrTimeout},
		{"close", time.Minute, -1, func(m *Manager, _ *fakeClock, sid uint64, _ Waiter) { m.CloseSession(sid) }, ErrExpired},
		{"lapse", d, -1, func(_ *Manager, fc *fakeClock, _ uint64, _ Waiter) { fc.Advance(1) }, ErrExpired},
		{"cancel", time.Minute, time.Minute, func(m *Manager, _ *fakeClock, sid uint64, w Waiter) { m.CancelWait(sid, w) }, ErrExpired},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, fc := newFake(t, slowCfg())
			sc := m.NewBatchScratch()
			reader, doomed, behind := mustOpen(t, m, time.Minute), mustOpen(t, m, tc.lease), mustOpen(t, m, time.Minute)
			var first, second recWaiter
			ops := []BatchOp{
				{Kind: BatchAcquire, Tag: 1, SID: reader, Name: []byte("k")},
				{Kind: BatchAcquire, Tag: 2, SID: doomed, Name: []byte("k"), Excl: true, Wait: int64(tc.wait), Waiter: &first},
				{Kind: BatchAcquire, Tag: 3, SID: behind, Name: []byte("k"), Wait: -1, Waiter: &second},
			}
			m.ExecBatch(ops, sc)
			if ops[1].Err != ErrWouldBlock || ops[2].Err != ErrWouldBlock || m.QueueLen("k") != 2 {
				t.Fatalf("setup: %v, %v, QueueLen %d", ops[1].Err, ops[2].Err, m.QueueLen("k"))
			}
			fc.Advance(d - 1) // 1ns short of the deadline and of the lapse
			if got := first.take(); len(got) != 0 {
				t.Fatalf("doomed waiter was told %+v with 1ns to go", got)
			}
			tc.end(m, fc, doomed, &first)
			got := first.take()
			if len(got) != 1 || got[0].Err != tc.want || got[0].Tag != 2 {
				t.Fatalf("doomed waiter was told %+v, want %v", got, tc.want)
			}
			if tc.want == ErrTimeout && got[0].Wait != tc.wait {
				t.Fatalf("timed out after %v, want exactly %v", got[0].Wait, tc.wait)
			}
			// The reader behind the cancelled writer joins the reader holding.
			if got := second.take(); len(got) != 1 || got[0].Err != nil {
				t.Fatalf("waiter behind was told %+v, want its grant", got)
			}
			if n, w := m.QueueLen("k"), m.Stats().Waiting; n != 0 || w != 0 {
				t.Fatalf("QueueLen %d, Waiting %d after the queue emptied", n, w)
			}
		})
	}
}

// The queue against its model. Actors — one session, one tag each —
// acquire, release, time out and close over two names in a seeded random
// order; every step is mirrored on a fairq.Lock per name, the admission
// model itself, and after each step the two must have granted exactly the
// same actors and hold the same number queued: same admission order,
// reader batches admitted together, and no waiter ever overtaken.

type qActor struct {
	sid   uint64
	name  int  // index into the two names
	excl  bool // mode held or waited for
	state int  // 0 idle, 1 waiting, 2 holding
	seq   int  // enqueue order while waiting
	timed bool // bounded wait: seq+1 hours
	node  fairq.Node[int]
}

func TestQueueMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		queueVsModel(t, seed)
	}
}

func queueVsModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	cfg := slowCfg()
	cfg.MaxLease = 10000 * time.Hour
	m := newTest(t, cfg)
	sc := m.NewBatchScratch()
	var rw recWaiter
	names := []string{"a", "b"}
	models := make([]fairq.Lock[int], len(names))
	actors := make([]*qActor, 12)
	for i := range actors {
		actors[i] = &qActor{sid: mustOpen(t, m, cfg.MaxLease)}
	}
	seq := 0

	exec := func(op BatchOp) ([]Completion, error) {
		ops := []BatchOp{op}
		m.ExecBatch(ops, sc)
		return append(append([]Completion(nil), sc.Completions()...), rw.take()...), ops[0].Err
	}
	// admit runs the model's admission pass on name and returns the actors
	// it granted.
	admit := func(name int) map[int]bool {
		lk, granted := &models[name], map[int]bool{}
		lk.Admit(func(n *fairq.Node[int]) {
			lk.Remove(n)
			lk.Take(n.Write)
			granted[n.V] = true
		})
		return granted
	}
	// settle checks a step's completions against the model's grants: the
	// manager must grant exactly the actors the model granted, ahead of
	// nobody who queued earlier for the same name, and afterwards both
	// queues are the same length. Every step ends here, so the table's own
	// invariants are checked first.
	settle := func(cps []Completion, name int, want map[int]bool) {
		t.Helper()
		checkInvariants(t, m)
		got := map[int]bool{}
		for _, cp := range cps {
			if cp.Err == nil {
				got[int(cp.Tag)] = true
			}
		}
		if !maps.Equal(got, want) {
			t.Fatalf("seed %d: the manager granted %v, the model %v", seed, got, want)
		}
		for i := range got {
			a := actors[i]
			for _, b := range actors {
				if b.state == 1 && !got[int(b.node.V)] && b.name == a.name && b.seq < a.seq {
					t.Fatalf("seed %d: waiter %d was overtaken by waiter %d", seed, b.seq, a.seq)
				}
			}
		}
		for i := range got {
			actors[i].state = 2
		}
		if got, want := m.QueueLen(names[name]), models[name].Len(); got != want {
			t.Fatalf("seed %d: %d queued on %q, the model has %d", seed, got, names[name], want)
		}
	}
	// leave takes a out of the model — its wait cancelled or its hold
	// released — and returns whom that admits.
	leave := func(a *qActor) map[int]bool {
		lk := &models[a.name]
		if a.state == 1 {
			lk.Remove(&a.node)
		} else if a.state == 2 && !lk.Drop(a.excl) {
			t.Fatalf("seed %d: the model did not hold actor %d's mode", seed, a.node.V)
		}
		return admit(a.name)
	}

	for step := 0; step < 200; step++ {
		i := rng.Intn(len(actors))
		a := actors[i]
		switch {
		case a.state == 0: // acquire
			// Mostly writers on one name: long queues to be overtaken in.
			a.name, a.excl, a.timed = rng.Intn(5)/4, rng.Intn(3) > 0, rng.Intn(3) == 0
			wait := int64(-1)
			if a.timed {
				wait = int64(time.Duration(seq+1) * time.Hour)
			}
			cps, err := exec(BatchOp{Kind: BatchAcquire, Tag: int32(i), SID: a.sid, Excl: a.excl, Wait: wait,
				Name: []byte(names[a.name]), Waiter: &rw})
			if len(cps) != 0 || (err != nil && err != ErrWouldBlock) {
				t.Fatalf("seed %d: acquire = %v with %d completions", seed, err, len(cps))
			}
			a.node = fairq.Node[int]{Write: a.excl, V: i}
			if granted := models[a.name].TryAcquire(a.excl); granted != (err == nil) {
				t.Fatalf("seed %d: acquire = %v, the model's immediate grant %v", seed, err, granted)
			} else if granted {
				a.state = 2
			} else {
				models[a.name].Enqueue(&a.node)
				a.state, a.seq = 1, seq
				seq++
			}
			settle(nil, a.name, map[int]bool{})
		case a.state == 2 && rng.Intn(4) > 0: // release
			cps, err := exec(BatchOp{Kind: BatchRelease, Tag: int32(i), SID: a.sid, Excl: a.excl,
				Name: []byte(names[a.name])})
			if err != nil {
				t.Fatalf("seed %d: release = %v", seed, err)
			}
			want := leave(a)
			a.state = 0
			settle(cps, a.name, want)
		case a.state == 1 && a.timed && rng.Intn(2) == 0: // the oldest bounded wait times out
			for _, b := range actors {
				if b.state == 1 && b.timed && b.seq < a.seq {
					a = b
				}
			}
			m.expire(time.Now().Add(time.Duration(a.seq+1)*time.Hour + 30*time.Minute))
			cps := rw.take()
			sort.SliceStable(cps, func(i, j int) bool { return cps[i].Err != nil && cps[j].Err == nil })
			if len(cps) == 0 || cps[0].Err != ErrTimeout || actors[cps[0].Tag] != a {
				t.Fatalf("seed %d: timing out one wait completed %+v", seed, cps)
			}
			want := leave(a)
			a.state = 0
			settle(cps[1:], a.name, want)
		default: // the session closes, waiting or holding or idle, and is replaced
			cps, err := exec(BatchOp{Kind: BatchCloseSession, Tag: int32(i), SID: a.sid})
			if err != nil {
				t.Fatalf("seed %d: close = %v", seed, err)
			}
			if a.state == 1 {
				if len(cps) == 0 || cps[0].Err != ErrExpired || actors[cps[0].Tag] != a {
					t.Fatalf("seed %d: closing a waiter's session completed %+v", seed, cps)
				}
				cps = cps[1:]
			}
			want := leave(a)
			a.state, a.sid = 0, mustOpen(t, m, cfg.MaxLease)
			settle(cps, a.name, want)
		}
	}
}
