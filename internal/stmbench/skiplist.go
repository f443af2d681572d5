package stmbench

import (
	"math/rand"

	"fairrw/internal/machine"
	"fairrw/internal/stm"
)

// skip-list node layout: w0=key, w1=val, w2=level, w3..w3+level-1 = next.
const (
	slKey = iota
	slVal
	slLevel
	slNext0
)

const slMaxLevel = 12

// SkipList is a transactional skip-list. The head tower is the hot entry
// point analogous to the tree root.
type SkipList struct {
	tm   *stm.TM
	head *stm.Obj
	rng  *rand.Rand
}

// NewSkipList creates an empty skip-list on tm with a deterministic level
// generator.
func NewSkipList(tm *stm.TM, seed int64) *SkipList {
	head := tm.NewObj(slNext0 + slMaxLevel)
	head.RawWrite(slLevel, slMaxLevel)
	return &SkipList{tm: tm, head: head, rng: rand.New(rand.NewSource(seed))}
}

func (sl *SkipList) randomLevel() int {
	l := 1
	for l < slMaxLevel && sl.rng.Intn(2) == 0 {
		l++
	}
	return l
}

// Lookup returns the value for key within transaction t.
func (sl *SkipList) Lookup(t *stm.Txn, key uint64) (uint64, bool) {
	x := sl.head
	for lvl := slMaxLevel - 1; lvl >= 0 && !t.Aborted(); lvl-- {
		for {
			nxt := t.ReadObj(x, slNext0+lvl)
			if nxt == nil || t.Aborted() {
				break
			}
			k := t.Read(nxt, slKey)
			if k < key {
				x = nxt
				continue
			}
			if k == key {
				return t.Read(nxt, slVal), true
			}
			break
		}
	}
	return 0, false
}

// findPreds fills preds with the predecessor at every level.
func (sl *SkipList) findPreds(t *stm.Txn, key uint64, preds []*stm.Obj) {
	x := sl.head
	for lvl := slMaxLevel - 1; lvl >= 0 && !t.Aborted(); lvl-- {
		for {
			nxt := t.ReadObj(x, slNext0+lvl)
			if nxt == nil || t.Aborted() {
				break
			}
			if t.Read(nxt, slKey) < key {
				x = nxt
				continue
			}
			break
		}
		preds[lvl] = x
	}
}

// Insert adds or updates key within transaction t.
func (sl *SkipList) Insert(t *stm.Txn, key, val uint64) {
	preds := make([]*stm.Obj, slMaxLevel)
	sl.findPreds(t, key, preds)
	if t.Aborted() {
		return
	}
	// Existing?
	if nxt := t.ReadObj(preds[0], slNext0); nxt != nil && t.Read(nxt, slKey) == key {
		t.Write(nxt, slVal, val)
		return
	}
	lvl := sl.randomLevel()
	n := t.Alloc(slNext0 + lvl)
	t.Write(n, slKey, key)
	t.Write(n, slVal, val)
	t.Write(n, slLevel, uint64(lvl))
	for i := 0; i < lvl && !t.Aborted(); i++ {
		if preds[i] == nil {
			continue
		}
		t.Write(n, slNext0+i, t.Read(preds[i], slNext0+i))
		t.Write(preds[i], slNext0+i, uint64(n.ID()))
	}
}

// Delete removes key within transaction t (no-op if absent).
func (sl *SkipList) Delete(t *stm.Txn, key uint64) {
	preds := make([]*stm.Obj, slMaxLevel)
	sl.findPreds(t, key, preds)
	if t.Aborted() {
		return
	}
	victim := t.ReadObj(preds[0], slNext0)
	if victim == nil || t.Read(victim, slKey) != key || t.Aborted() {
		return
	}
	lvl := int(t.Read(victim, slLevel))
	for i := 0; i < lvl && !t.Aborted(); i++ {
		if preds[i] == nil {
			continue
		}
		if t.ReadObj(preds[i], slNext0+i) == victim {
			t.Write(preds[i], slNext0+i, t.Read(victim, slNext0+i))
		}
	}
}

// CheckInvariants verifies level-0 key ordering and tower consistency.
func (sl *SkipList) CheckInvariants() string {
	prev := uint64(0)
	first := true
	for id := int(sl.head.RawRead(slNext0)); id != 0; {
		o := sl.tm.Get(id)
		k := o.RawRead(slKey)
		if !first && k <= prev {
			return "level-0 keys out of order"
		}
		prev, first = k, false
		id = int(o.RawRead(slNext0))
	}
	// Every higher-level chain must be a subsequence of level 0.
	for lvl := 1; lvl < slMaxLevel; lvl++ {
		prev := uint64(0)
		first := true
		for id := int(sl.head.RawRead(slNext0 + lvl)); id != 0; {
			o := sl.tm.Get(id)
			if int(o.RawRead(slLevel)) <= lvl {
				return "node linked above its level"
			}
			k := o.RawRead(slKey)
			if !first && k <= prev {
				return "upper-level keys out of order"
			}
			prev, first = k, false
			id = int(o.RawRead(slNext0 + lvl))
		}
	}
	return ""
}

// LookupOp runs a whole lookup transaction.
func (sl *SkipList) LookupOp(c *machine.Ctx, key uint64) (val uint64, found bool) {
	sl.tm.Atomic(c, func(t *stm.Txn) { val, found = sl.Lookup(t, key) })
	return val, found
}

// InsertOp runs a whole insert transaction.
func (sl *SkipList) InsertOp(c *machine.Ctx, key, val uint64) {
	sl.tm.Atomic(c, func(t *stm.Txn) { sl.Insert(t, key, val) })
}

// DeleteOp runs a whole delete transaction.
func (sl *SkipList) DeleteOp(c *machine.Ctx, key uint64) {
	sl.tm.Atomic(c, func(t *stm.Txn) { sl.Delete(t, key) })
}
