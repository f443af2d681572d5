package lockmgr

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"fairrw/internal/obs"
	"fairrw/internal/stats"
)

// The differential test: one random op stream, three ways to run it —
// the scalar API, ExecBatch one op at a time, ExecBatch in random-sized
// batches with mixed Tags — on three fresh managers that must end up
// indistinguishable: the same result for every op, the same counters,
// the same contention profile, the same flight events, the same holds.
// It pins the package's claim that there is one op core with two entry
// points. Leases and IdleTTL are an hour, so wall time is
// irrelevant; a timed acquire waits 1ns, which against a lock nobody is
// about to release is a deterministic timeout.

const diffBogusSID = 1 << 40 // a session id no manager ever hands out

type diffOp struct {
	kind BatchKind
	sess int // index of the stream's k-th Open; -1 = a sid nobody opened
	name string
	excl bool
	wait int64
	tag  int32
}

// diffStream generates n ops. An op may only name a session whose Open
// comes earlier in the stream (closed ones included: their ops must
// answer ErrExpired everywhere).
func diffStream(rng *rand.Rand, n int) []diffOp {
	names := []string{"a", "b", "c", "", string(make([]byte, MaxNameLen+1))}
	ops := []diffOp{{kind: BatchOpen}, {kind: BatchOpen}}
	opened := 2
	for len(ops) < n {
		op := diffOp{sess: rng.Intn(opened), tag: int32(1 + rng.Intn(3))}
		if rng.Intn(20) == 0 {
			op.sess = -1
		}
		op.name = names[rng.Intn(3)]
		if rng.Intn(15) == 0 {
			op.name = names[3+rng.Intn(2)]
		}
		switch r := rng.Intn(100); {
		case r < 45:
			op.kind, op.excl = BatchAcquire, rng.Intn(3) == 0
			if rng.Intn(3) == 0 {
				op.wait = 1
			}
		case r < 85:
			op.kind, op.excl = BatchRelease, rng.Intn(3) == 0
		case r < 90:
			op.kind = BatchKeepAlive
		case r < 95:
			op.kind = BatchCloseSession
		default:
			op.kind = BatchOpen
			opened++
		}
		ops = append(ops, op)
	}
	return ops
}

// diffRun is one manager executing the stream one way.
type diffRun struct {
	m    *Manager
	rec  *obs.Recorder
	sc   *BatchScratch
	ops  []diffOp
	sids []uint64 // by Open ordinal
	errs []error  // by op index
}

func newDiffRun(ops []diffOp) *diffRun {
	rec := obs.NewRecorder(1, 4096)
	m := New(Config{MaxLease: time.Hour, IdleTTL: time.Hour, Recorder: rec})
	return &diffRun{m: m, rec: rec, sc: m.NewBatchScratch(), ops: ops, errs: make([]error, len(ops))}
}

func (r *diffRun) sid(op diffOp) uint64 {
	if op.sess < 0 {
		return diffBogusSID
	}
	return r.sids[op.sess]
}

func (r *diffRun) scalar(i int) {
	op := r.ops[i]
	var err error
	switch op.kind {
	case BatchOpen:
		var sid uint64
		sid, err = r.m.Open(time.Hour)
		r.sids = append(r.sids, sid)
	case BatchKeepAlive:
		err = r.m.KeepAlive(r.sid(op), time.Hour)
	case BatchCloseSession:
		err = r.m.CloseSession(r.sid(op))
	case BatchAcquire:
		err = r.m.Acquire(r.sid(op), op.name, op.excl, time.Duration(op.wait))
	case BatchRelease:
		err = r.m.Release(r.sid(op), op.name, op.excl)
	}
	r.errs[i] = err
}

// batch submits the ops at idx as one ExecBatch and then does what the
// server does with the answers: a would-block acquire is continued with
// Manager.Acquire, ops deferred behind it are re-submitted once it has
// resolved. It returns the op indexes in the order they took effect.
func (r *diffRun) batch(idx []int) (order []int) {
	for len(idx) > 0 {
		bops := make([]BatchOp, len(idx))
		for j, i := range idx {
			op := r.ops[i]
			bops[j] = BatchOp{Kind: op.kind, Tag: op.tag, Excl: op.excl, Wait: op.wait,
				Lease: int64(time.Hour), Name: []byte(op.name)}
			if op.kind != BatchOpen {
				bops[j].SID = r.sid(op)
			}
		}
		r.m.ExecBatch(bops, r.sc)
		var parked, deferred []int
		for j, i := range idx {
			switch err := bops[j].Err; err {
			case ErrWouldBlock:
				parked = append(parked, i)
			case ErrDeferred:
				deferred = append(deferred, i)
			default:
				if r.ops[i].kind == BatchOpen {
					r.sids = append(r.sids, bops[j].OutSID)
				}
				r.errs[i] = err
				order = append(order, i)
			}
		}
		for _, i := range parked {
			op := r.ops[i]
			r.errs[i] = r.m.Acquire(r.sid(op), op.name, op.excl, time.Duration(op.wait))
			order = append(order, i)
		}
		idx = deferred
	}
	return order
}

// diffState is everything two runs of one stream must agree on.
type diffState struct {
	Errs     []error
	Stats    Snapshot
	Arrivals map[string]uint64
	Events   []string
	Holds    []string
	Locks    []string
}

func (r *diffRun) state(t *testing.T) diffState {
	st := diffState{Errs: r.errs, Stats: r.m.Stats(), Arrivals: map[string]uint64{}}
	for _, p := range r.m.HotLocks(100) {
		st.Arrivals[p.Name] = p.Acquires
	}
	ord := map[uint64]int{}
	for k, sid := range r.sids {
		ord[sid] = k
	}
	for _, rec := range r.rec.Events() {
		st.Events = append(st.Events, fmt.Sprintf("%v sess=%d lock=%08x", rec.Kind, ord[rec.Tid], rec.Lock))
	}
	sort.Strings(st.Events) // the recorder orders by timestamp, and the two runs' clocks differ
	for k, sid := range r.sids {
		s := r.m.session(sid)
		if s == nil {
			continue
		}
		r.m.mu.Lock()
		for name, h := range s.holds {
			st.Holds = append(st.Holds, fmt.Sprintf("sess=%d %s shared=%d excl=%v", k, name, h.shared, h.excl))
		}
		r.m.mu.Unlock()
	}
	sort.Strings(st.Holds)
	// The locks themselves, probed from outside: a fresh session's tries
	// say whether each name is free, read-held or write-held, so a lock
	// left held with no hold record (or the reverse) cannot hide.
	probe := mustOpen(t, r.m, time.Hour)
	for _, name := range []string{"a", "b", "c"} {
		mode := "excl-held"
		if r.m.Acquire(probe, name, true, 0) == nil {
			mode = "free"
		} else if r.m.Acquire(probe, name, false, 0) == nil {
			mode = "shared-held"
		}
		st.Locks = append(st.Locks, name+" "+mode)
	}
	// Wait and hold times are wall-clock measurements; the sample counts
	// above them are what must match.
	st.Stats.WaitMeanUS, st.Stats.WaitP50US, st.Stats.WaitP99US = 0, 0, 0
	st.Stats.WaitMaxUS, st.Stats.WaitTotalSecs = 0, 0
	st.Stats.HoldMeanUS, st.Stats.HoldP50US, st.Stats.HoldP99US, st.Stats.HoldMaxUS = 0, 0, 0, 0
	st.Stats.Wait, st.Stats.Hold = stats.Histogram{}, stats.Histogram{}
	return st
}

func diffOne(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ops := diffStream(rng, 40+rng.Intn(40))

	// Random batches first: ops on other Tags overtake a parked acquire
	// and whatever is deferred behind it, so this run decides the order
	// the stream takes effect in, and the other two replay that order.
	batched := newDiffRun(ops)
	defer batched.m.Close()
	var order []int
	for i := 0; i < len(ops); {
		var idx []int
		for n := 1 + rng.Intn(8); len(idx) < n && i < len(ops); {
			idx = append(idx, i)
			i++
			if ops[i-1].kind == BatchOpen {
				break // later ops may name the new session: they need its id
			}
		}
		order = append(order, batched.batch(idx)...)
		checkInvariants(t, batched.m) // a batch is one hold: no state between its ops to check
	}
	scalar, single := newDiffRun(ops), newDiffRun(ops)
	defer scalar.m.Close()
	defer single.m.Close()
	for _, i := range order {
		scalar.scalar(i)
		single.batch([]int{i})
		checkInvariants(t, scalar.m)
		checkInvariants(t, single.m)
	}

	want := scalar.state(t)
	if want.Stats.Waiting != 0 {
		t.Fatalf("seed %d: scalar run left Waiting = %d", seed, want.Stats.Waiting)
	}
	for _, r := range []struct {
		name string
		run  *diffRun
	}{{"ExecBatch of one op", single}, {"ExecBatch in random batches", batched}} {
		got := r.run.state(t)
		if reflect.DeepEqual(got, want) {
			continue
		}
		for _, i := range order {
			if got.Errs[i] != want.Errs[i] {
				t.Errorf("seed %d: op %d %+v: %s = %v, scalar = %v", seed, i, ops[i], r.name, got.Errs[i], want.Errs[i])
			}
		}
		got.Errs, want.Errs = nil, nil
		t.Fatalf("seed %d: %s diverges from the scalar API\n got  %+v\n want %+v", seed, r.name, got, want)
	}
}

func TestDifferentialScalarVsBatch(t *testing.T) {
	for seed := int64(1); seed <= 250; seed++ {
		diffOne(t, seed)
	}
}
