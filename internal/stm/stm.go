// Package stm implements an object-based software transactional memory in
// the style of Fraser's OSTM, with three interchangeable commit engines
// (Section IV-B):
//
//   - swonly: lock-based commit with per-object software reader-writer
//     trylocks and visible readers — read sets are read-locked during
//     commit, which congests hot objects such as a tree root.
//   - lcu / ssb: the same lock-based commit, but the per-object locks are
//     the machine's hardware lock device (LCU+LRT, or the SSB baseline).
//   - fraser: nonblocking commit with invisible readers (no read locking;
//     commit-time version validation). Faster, but does not support the
//     privatization idiom — the paper's "unsafe" reference point.
//
// Every shared access is charged through the simulated memory system, so
// the coherence cost of visible readers is measured, not asserted.
package stm

import (
	"cmp"
	"fmt"
	"slices"

	"fairrw/internal/machine"
	"fairrw/internal/memmodel"
	"fairrw/internal/sim"
)

// Obj is one transactional object: a header word (lock), a version word,
// and a payload of 8-byte words.
type Obj struct {
	id     int
	hdr    memmodel.Addr
	ver    memmodel.Addr
	data   memmodel.Addr
	nWords int

	version uint64
	vals    []uint64
}

// ID returns the object's table index (0 is reserved as nil).
func (o *Obj) ID() int { return o.id }

// TM is one transactional heap bound to a machine.
type TM struct {
	M      *machine.Machine
	engine Engine
	objs   []*Obj
	// freed recycles objects allocated by aborted transactions, keyed by
	// payload size. Without it an abort storm leaks simulated memory and
	// real heap alike.
	freed map[int][]*Obj
	// txns holds idle Txns for Atomic to reuse.
	txns []*Txn

	// Stats
	Commits, Aborts uint64
	// ExecCycles and CommitCycles dissect transaction time (Figure 11).
	ExecCycles, CommitCycles sim.Time

	// StepBudget bounds reads per transaction attempt; a doomed attempt
	// walking inconsistent pointers terminates and retries (opacity guard).
	StepBudget int
}

// New creates a TM on m using the named engine: "swonly", "lcu", "ssb"
// (these two require the corresponding device installed on m), "fraser".
func New(m *machine.Machine, engine string) *TM {
	tm := &TM{M: m, StepBudget: 100_000, freed: make(map[int][]*Obj)}
	tm.objs = []*Obj{nil} // id 0 = nil
	switch engine {
	case "swonly":
		tm.engine = &lockEngine{ops: swLockOps{}}
	case "lcu", "ssb":
		tm.engine = &lockEngine{ops: hwLockOps{}}
	case "fraser":
		tm.engine = &fraserEngine{}
	default:
		panic(fmt.Sprintf("stm: unknown engine %q", engine))
	}
	return tm
}

// NewObj allocates a transactional object with nWords payload words.
func (tm *TM) NewObj(nWords int) *Obj {
	o := &Obj{
		id:     len(tm.objs),
		hdr:    tm.M.Mem.AllocLine(),
		data:   tm.M.Mem.Alloc(memmodel.Addr(nWords)*8, 64),
		nWords: nWords,
		vals:   make([]uint64, nWords),
	}
	o.ver = o.hdr + 8 // version shares the header line
	tm.objs = append(tm.objs, o)
	return o
}

// Get returns the object with the given id (nil for id 0).
func (tm *TM) Get(id int) *Obj {
	if id == 0 {
		return nil
	}
	return tm.objs[id]
}

// RawRead reads a committed word without simulation cost (setup/checks).
func (o *Obj) RawRead(w int) uint64 { return o.vals[w] }

// RawWrite writes a committed word without simulation cost (setup only).
func (o *Obj) RawWrite(w int, v uint64) { o.vals[w] = v }

// access is one element of a transaction's access set. Every object an
// attempt opens is in the set exactly once (Write and Alloc open for
// reading too), so the write set is the elements that have a shadow.
type access struct {
	o   *Obj
	ver uint64 // version at first open
	sh  int32  // offset of the shadow copy in Txn.words; noShadow until written
}

const noShadow = -1

func (a *access) write() bool { return a.sh != noShadow }

// linearSet is the access-set size up to which a lookup scans the set.
// Measured sets stay under it (EXPERIMENTS.md, "Where sim-stm's host time
// went": max 41); a doomed attempt chasing mixed-version pointers can open
// up to StepBudget objects, and past this size lookups go through an
// index instead.
const linearSet = 64

// Txn is one transaction attempt. Txns are pooled per TM: a body must not
// retain its Txn after Atomic returns.
type Txn struct {
	tm *TM
	c  *machine.Ctx

	// set is the access set: in open order while the body runs, sorted by
	// ascending id once commit starts.
	set   []access
	words []uint64 // the shadow copies, back to back
	// index maps an object's id to its position in set, plus one, for
	// set[:indexed]. It is built only when a set outgrows linearSet.
	index   map[int]int32
	indexed int
	locks   []objMode // commit scratch: the set in lock-acquisition order

	allocs  []*Obj // objects created by this attempt (recycled on abort)
	aborted bool
	steps   int
}

// reset empties t for the next attempt, keeping its storage.
func (t *Txn) reset() {
	t.set, t.words, t.allocs = t.set[:0], t.words[:0], t.allocs[:0]
	clear(t.index)
	t.indexed = 0
	t.aborted, t.steps = false, 0
}

// find returns o's position in the access set, or -1.
func (t *Txn) find(o *Obj) int {
	if len(t.set) <= linearSet {
		// Newest first: a walk re-reads the node it has just opened.
		for i := len(t.set) - 1; i >= 0; i-- {
			if t.set[i].o == o {
				return i
			}
		}
		return -1
	}
	if t.index == nil {
		t.index = make(map[int]int32)
	}
	for ; t.indexed < len(t.set); t.indexed++ {
		t.index[t.set[t.indexed].o.id] = int32(t.indexed + 1)
	}
	return int(t.index[o.id]) - 1
}

// open appends o to the access set at its current version, after fetching
// the version word. It returns -1, dooming the attempt, when a committer
// is mid-writeback on o: the data would be torn.
func (t *Txn) open(o *Obj) int {
	t.c.Load(o.ver)
	if o.version&1 == 1 {
		t.aborted = true
		return -1
	}
	t.set = append(t.set, access{o: o, ver: o.version, sh: noShadow})
	return len(t.set) - 1
}

// shadow returns the shadow copy of the i-th element of the access set.
func (t *Txn) shadow(i int) []uint64 {
	a := &t.set[i]
	return t.words[a.sh : int(a.sh)+a.o.nWords]
}

// Aborted reports whether this attempt has been doomed (conflict or step
// budget); subsequent reads return zero and the attempt will retry.
func (t *Txn) Aborted() bool { return t.aborted }

// Abort dooms the current attempt explicitly.
func (t *Txn) Abort() { t.aborted = true }

// Read returns word w of o within the transaction.
func (t *Txn) Read(o *Obj, w int) uint64 {
	if t.aborted || o == nil {
		t.aborted = true
		return 0
	}
	t.steps++
	if t.steps > t.tm.StepBudget {
		t.aborted = true
		return 0
	}
	i := t.find(o)
	if i >= 0 && t.set[i].write() {
		t.c.Compute(1)
		return t.shadow(i)[w]
	}
	if i < 0 {
		if t.open(o) < 0 {
			return 0
		}
		t.c.Compute(12) // open-for-read bookkeeping instructions
	}
	t.c.Load(o.data + memmodel.Addr(w)*8)
	return o.vals[w]
}

// ReadObj reads word w and resolves it as an object reference.
func (t *Txn) ReadObj(o *Obj, w int) *Obj {
	return t.tm.Get(int(t.Read(o, w)))
}

// Write sets word w of o within the transaction (redo-log shadow copy).
func (t *Txn) Write(o *Obj, w int, v uint64) {
	if t.aborted || o == nil {
		t.aborted = true
		return
	}
	i := t.find(o)
	if i < 0 || !t.set[i].write() {
		// Open for write: copy the payload into a shadow.
		if i < 0 {
			if i = t.open(o); i < 0 {
				return
			}
		}
		t.set[i].sh = int32(len(t.words))
		t.words = append(t.words, o.vals...)
		t.c.Load(o.data) // fetch the object payload
		t.c.Compute(20)  // open-for-write bookkeeping + shadow copy
	}
	t.c.Compute(1)
	t.shadow(i)[w] = v
}

// Alloc creates a new object inside the transaction. Fresh objects are
// private until commit publishes a reference, so they join the write set;
// if the attempt aborts they are recycled.
func (t *Txn) Alloc(nWords int) *Obj {
	var o *Obj
	if pool := t.tm.freed[nWords]; len(pool) > 0 {
		o = pool[len(pool)-1]
		t.tm.freed[nWords] = pool[:len(pool)-1]
	} else {
		o = t.tm.NewObj(nWords)
	}
	t.set = append(t.set, access{o: o, ver: o.version, sh: int32(len(t.words))})
	t.words = append(t.words, make([]uint64, nWords)...)
	t.allocs = append(t.allocs, o)
	t.c.Compute(10) // allocator cost
	return o
}

// Atomic runs body as a transaction, retrying on conflict, and returns the
// number of attempts it took.
func (tm *TM) Atomic(c *machine.Ctx, body func(t *Txn)) int {
	// Procs interleave inside Atomic, so each call takes its own Txn.
	var t *Txn
	if n := len(tm.txns); n > 0 {
		t, tm.txns = tm.txns[n-1], tm.txns[:n-1]
		t.c = c
	} else {
		t = &Txn{tm: tm, c: c}
	}
	attempts := 0
	backoff := 0
	for {
		attempts++
		t.reset()
		t0 := c.P.Now()
		body(t)
		t1 := c.P.Now()
		ok := false
		if !t.aborted {
			ok = tm.engine.Commit(t)
		}
		t2 := c.P.Now()
		tm.ExecCycles += t1 - t0
		tm.CommitCycles += t2 - t1
		if ok {
			tm.Commits++
			tm.txns = append(tm.txns, t)
			return attempts
		}
		tm.Aborts++
		for _, o := range t.allocs {
			tm.freed[o.nWords] = append(tm.freed[o.nWords], o)
		}
		swlocksBackoff(c, &backoff)
	}
}

func swlocksBackoff(c *machine.Ctx, n *int) {
	d := sim.Time(100) << uint(*n)
	if d > 25600 {
		d = 25600
	} else {
		*n++
	}
	d += sim.Time(c.TID*17) % 97
	c.Compute(d)
}

// Engine is a commit strategy.
type Engine interface {
	Commit(t *Txn) bool
}

// sortSet puts the access set in ascending id order, the canonical order
// of validation and write-back (open order would differ from attempt to
// attempt). Ids are unique, so the result does not depend on the sort.
func (t *Txn) sortSet() []access {
	slices.SortFunc(t.set, func(a, b access) int { return cmp.Compare(a.o.id, b.o.id) })
	return t.set
}

// validate reports whether a is still at the version it was opened at.
func (t *Txn) validate(a *access) bool {
	t.c.Load(a.o.ver)
	return a.o.version == a.ver && a.o.version&1 == 0
}

// writeBack publishes the shadow copies and bumps versions, in ascending
// id order. Call with all write locks held (lock engines) or ownership
// CASed (fraser), and the set sorted.
func writeBack(t *Txn) {
	for i := range t.set {
		if !t.set[i].write() {
			continue
		}
		o, sh := t.set[i].o, t.shadow(i)
		// Odd version marks the object busy: invisible readers that open it
		// mid-writeback (fraser engine) see the odd version and abort
		// rather than consuming torn data. Committed versions are even.
		o.version++
		t.c.Store(o.ver, o.version)
		for w := 0; w < o.nWords; w++ {
			if sh[w] != o.vals[w] {
				t.c.Store(o.data+memmodel.Addr(w)*8, sh[w])
				o.vals[w] = sh[w]
			}
		}
		o.version++
		t.c.Store(o.ver, o.version)
	}
}
