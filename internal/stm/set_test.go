package stm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fairrw/internal/machine"
)

// TestAtomicSteadyStateAllocs asserts that a warmed transaction attempt —
// open, shadow, sort, lock, validate, write back, release — allocates
// nothing on any engine: the access set, the shadow words, the lock list
// and the Txn itself are all reused.
func TestAtomicSteadyStateAllocs(t *testing.T) {
	for _, engine := range []string{"swonly", "lcu", "fraser"} {
		t.Run(engine, func(t *testing.T) {
			m, tm := newTM(t, engine)
			objs := make([]*Obj, 4)
			for i := range objs {
				objs[i] = tm.NewObj(2)
			}
			m.Spawn("t", 1, 0, func(c *machine.Ctx) {
				var sum uint64
				readOnly := func() {
					tm.Atomic(c, func(tx *Txn) {
						for _, o := range objs {
							sum += tx.Read(o, 0)
						}
					})
					c.Compute(400) // let the lock releases drain
				}
				readWrite := func() {
					tm.Atomic(c, func(tx *Txn) {
						for _, o := range objs {
							tx.Write(o, 1, tx.Read(o, 0)+1)
						}
					})
					c.Compute(400)
				}
				for i := 0; i < 8; i++ {
					readOnly()
					readWrite()
				}
				if avg := testing.AllocsPerRun(100, readOnly); avg != 0 {
					t.Errorf("read-only Atomic allocates %.1f objects, want 0", avg)
				}
				if avg := testing.AllocsPerRun(100, readWrite); avg != 0 {
					t.Errorf("4-object read-write Atomic allocates %.1f objects, want 0", avg)
				}
			})
			m.Run()
			if tm.Aborts != 0 {
				t.Errorf("aborts = %d, want an uncontended run", tm.Aborts)
			}
		})
	}
}

// refTxn is the map-based access set the value-typed one replaced, kept
// here as the oracle: object → version at first open, object → shadow.
type refTxn struct {
	reads  map[*Obj]uint64
	writes map[*Obj][]uint64
}

func (r *refTxn) open(o *Obj) {
	if _, ok := r.reads[o]; !ok {
		r.reads[o] = o.version
	}
}

func (r *refTxn) read(o *Obj, w int) uint64 {
	if sh, ok := r.writes[o]; ok {
		return sh[w]
	}
	r.open(o)
	return o.vals[w]
}

func (r *refTxn) write(o *Obj, w int, v uint64) {
	if _, ok := r.writes[o]; !ok {
		r.open(o)
		r.writes[o] = slices.Clone(o.vals)
	}
	r.writes[o][w] = v
}

// recLockOps is a lockOps that grants everything and records the order it
// was asked in, after checking the committing Txn's set against the oracle.
type recLockOps struct {
	t     *testing.T
	cur   **Txn
	ref   *refTxn
	order []int // ids, in acquisition order
}

func (r *recLockOps) acquireSet(c *machine.Ctx, set []objMode) bool {
	tx := *r.cur
	if len(set) != len(r.ref.reads) || len(tx.set) != len(r.ref.reads) {
		r.t.Errorf("commit over %d locks / %d set elements, oracle opened %d objects",
			len(set), len(tx.set), len(r.ref.reads))
	}
	// Validation and write-back both walk tx.set front to back.
	for i := range tx.set {
		if i > 0 && tx.set[i-1].o.id >= tx.set[i].o.id {
			r.t.Errorf("set not strictly ascending at %d: id %d then %d", i, tx.set[i-1].o.id, tx.set[i].o.id)
		}
	}
	for i, om := range set {
		if i > 0 && set[i-1].o.id <= om.o.id {
			r.t.Errorf("lock order not strictly descending at %d: id %d then %d", i, set[i-1].o.id, om.o.id)
		}
		if _, w := r.ref.writes[om.o]; w != om.write {
			r.t.Errorf("obj %d locked write=%v, oracle says %v", om.o.id, om.write, w)
		}
		r.order = append(r.order, om.o.id)
	}
	return true
}

func (r *recLockOps) releaseSet(c *machine.Ctx, set []objMode, n int) {}

// TestAccessSetMatchesMapOracle drives random Read/Write/Alloc programs
// over 1…200 objects — below, at and far past linearSet, so both the scan
// and the index serve lookups — and checks every observable against the
// map oracle: values read (read-your-writes included), the version kept
// from first open, the lock order, the validation/write-back order, the
// committed result.
func TestAccessSetMatchesMapOracle(t *testing.T) {
	for _, nObjs := range []int{1, 2, 7, 42, linearSet - 1, linearSet, linearSet + 1, 120, 200} {
		t.Run(fmt.Sprint(nObjs), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(nObjs)))
			m := machine.ModelA()
			tm := New(m, "swonly")
			var cur *Txn
			ref := &refTxn{reads: map[*Obj]uint64{}, writes: map[*Obj][]uint64{}}
			rec := &recLockOps{t: t, cur: &cur, ref: ref}
			tm.engine = &lockEngine{ops: rec}

			const words = 3
			objs := make([]*Obj, nObjs)
			for i := range objs {
				objs[i] = tm.NewObj(words)
				for w := 0; w < words; w++ {
					objs[i].RawWrite(w, rng.Uint64())
				}
				objs[i].version = uint64(2 * rng.Intn(5))
			}
			// Shuffle so open order is unrelated to id order.
			rng.Shuffle(len(objs), func(i, j int) { objs[i], objs[j] = objs[j], objs[i] })

			// The observer polls every cycle for an object gone odd: the
			// order they turn is the write-back order.
			var wbOrder []int
			done := false
			m.Spawn("observer", 2, 1, func(c *machine.Ctx) {
				odd := map[*Obj]bool{}
				for !done {
					for o := range ref.writes {
						if o.version&1 == 1 && !odd[o] {
							odd[o] = true
							wbOrder = append(wbOrder, o.id)
						}
					}
					c.P.Wait(1)
				}
			})
			m.Spawn("t", 1, 0, func(c *machine.Ctx) {
				attempts := tm.Atomic(c, func(tx *Txn) {
					cur = tx
					for op := 0; op < 6*nObjs; op++ {
						o, w := objs[rng.Intn(len(objs))], rng.Intn(words)
						switch k := rng.Intn(20); {
						case k == 0:
							o = tx.Alloc(words)
							ref.open(o)
							ref.writes[o] = make([]uint64, words)
							objs = append(objs, o)
						case k < 8:
							v := rng.Uint64()
							tx.Write(o, w, v)
							ref.write(o, w, v)
						default:
							if got, want := tx.Read(o, w), ref.read(o, w); got != want {
								t.Fatalf("op %d: Read(obj %d, %d) = %#x, oracle %#x", op, o.id, w, got, want)
							}
						}
					}
					if tx.Aborted() {
						t.Fatal("attempt doomed without a conflict")
					}
					for i := range tx.set {
						a := &tx.set[i]
						if ver, ok := ref.reads[a.o]; !ok || ver != a.ver {
							t.Errorf("obj %d opened at version %d, oracle %d (opened=%v)", a.o.id, a.ver, ver, ok)
						}
						if sh, ok := ref.writes[a.o]; ok != a.write() || (ok && !slices.Equal(sh, tx.shadow(i))) {
							t.Errorf("obj %d shadow mismatch (written=%v, oracle %v)", a.o.id, a.write(), ok)
						}
					}
				})
				done = true
				if attempts != 1 {
					t.Errorf("attempts = %d, want 1", attempts)
				}
			})
			m.Run()

			if len(rec.order) != len(ref.reads) {
				t.Errorf("locked %d objects, oracle opened %d", len(rec.order), len(ref.reads))
			}
			if len(wbOrder) != len(ref.writes) || !slices.IsSorted(wbOrder) {
				t.Errorf("write-back touched %d objects in order %v, want the %d written in ascending id order",
					len(wbOrder), wbOrder, len(ref.writes))
			}
			for o, ver := range ref.reads {
				sh, written := ref.writes[o]
				if !written {
					sh, ver = o.vals, ver-2
				}
				if o.version != ver+2 || !slices.Equal(o.vals, sh) {
					t.Errorf("obj %d committed as version %d vals %v, oracle version %d vals %v (written=%v)",
						o.id, o.version, o.vals, ver+2, sh, written)
				}
			}
		})
	}
}

// TestTxnRecycledClean checks what a retry and a pooled Txn start from: no
// reads, writes, shadows, allocs, steps, index or doom left over; aborted
// Allocs back in the TM's free pool, and handed out again zeroed.
func TestTxnRecycledClean(t *testing.T) {
	m, tm := newTM(t, "swonly")
	objs := make([]*Obj, 2*linearSet)
	for i := range objs {
		objs[i] = tm.NewObj(2)
		objs[i].RawWrite(0, uint64(i))
	}
	clean := func(tx *Txn) {
		t.Helper()
		if len(tx.set) != 0 || len(tx.words) != 0 || len(tx.allocs) != 0 || len(tx.index) != 0 ||
			tx.indexed != 0 || tx.steps != 0 || tx.aborted {
			t.Errorf("attempt starts dirty: set=%d words=%d allocs=%d index=%d indexed=%d steps=%d aborted=%v",
				len(tx.set), len(tx.words), len(tx.allocs), len(tx.index), tx.indexed, tx.steps, tx.aborted)
		}
	}
	m.Spawn("t", 1, 0, func(c *machine.Ctx) {
		var first *Txn
		var a, b *Obj
		attempts := tm.Atomic(c, func(tx *Txn) {
			clean(tx)
			if first == nil {
				first = tx
				// A large (indexed) set, two allocations with dirty shadows.
				for _, o := range objs {
					tx.Write(o, 1, tx.Read(o, 0)+1)
				}
				a, b = tx.Alloc(2), tx.Alloc(2)
				tx.Write(a, 0, 7)
				tx.Write(b, 1, 9)
				tx.Abort()
				return
			}
			if tx != first {
				t.Error("retry did not reuse the attempt's Txn")
			}
			if pool := tm.freed[2]; len(pool) != 2 || pool[0] != a || pool[1] != b {
				t.Errorf("freed[2] = %v, want the two objects the aborted attempt allocated", pool)
			}
			fresh := tx.Alloc(2)
			if fresh != b || tx.Read(fresh, 0) != 0 || tx.Read(fresh, 1) != 0 {
				t.Error("recycled object not handed out again, or its shadow is not zeroed")
			}
			// objs[0] was opened (and indexed) by the aborted attempt: it
			// must be opened again, not found.
			if tx.Read(objs[0], 1) != 0 || len(tx.set) != 2 {
				t.Errorf("stale entry served a read: set=%d", len(tx.set))
			}
		})
		if attempts != 2 || tm.Aborts != 1 {
			t.Errorf("attempts = %d, aborts = %d, want 2 and 1", attempts, tm.Aborts)
		}
		tm.Atomic(c, func(tx *Txn) {
			clean(tx)
			if tx != first {
				t.Error("next Atomic did not take the pooled Txn")
			}
		})
	})
	m.Run()
}

// TestOpenVersionSemantics pins the two version rules of an open: an odd
// version (a committer mid-writeback) dooms the attempt, and the version
// recorded is the one seen at first open, so a commit that lands between
// two reads of the same object fails validation.
func TestOpenVersionSemantics(t *testing.T) {
	for _, engine := range []string{"swonly", "lcu", "fraser"} {
		t.Run(engine, func(t *testing.T) {
			m, tm := newTM(t, engine)
			o := tm.NewObj(1)
			m.Spawn("t", 1, 0, func(c *machine.Ctx) {
				o.version = 3
				attempts := tm.Atomic(c, func(tx *Txn) {
					tx.Read(o, 0)
					if o.version&1 == 1 {
						if !tx.Aborted() {
							t.Error("reading an object at an odd version did not doom the attempt")
						}
						o.version++ // the committer finishes
					}
				})
				if attempts != 2 {
					t.Errorf("odd version: attempts = %d, want 2", attempts)
				}
				interfered := false
				attempts = tm.Atomic(c, func(tx *Txn) {
					before := tx.Read(o, 0)
					if !interfered {
						interfered = true
						o.version += 2 // another thread's commit lands here
						o.vals[0] = before + 1
						tx.Read(o, 0)
						if i := tx.find(o); tx.set[i].ver != o.version-2 {
							t.Errorf("re-read moved the recorded version to %d", tx.set[i].ver)
						}
					}
				})
				if attempts != 2 {
					t.Errorf("stale first-open version: attempts = %d, want 2", attempts)
				}
			})
			m.Run()
		})
	}
}
