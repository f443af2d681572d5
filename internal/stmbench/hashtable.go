package stmbench

import (
	"fairrw/internal/machine"
	"fairrw/internal/stm"
)

// chain node layout: w0=key, w1=val, w2=next.
const (
	htKey = iota
	htVal
	htNext
	htWords
)

// HashTable is a transactional chained hash table. Unlike the tree and the
// skip-list it has no single entry point, so it avoids the root-congestion
// pathology (Figure 12's third benchmark).
type HashTable struct {
	tm      *stm.TM
	buckets []*stm.Obj // each bucket object: w0 = chain head id
}

// NewHashTable creates a table with nBuckets chains.
func NewHashTable(tm *stm.TM, nBuckets int) *HashTable {
	ht := &HashTable{tm: tm, buckets: make([]*stm.Obj, nBuckets)}
	for i := range ht.buckets {
		ht.buckets[i] = tm.NewObj(1)
	}
	return ht
}

func (ht *HashTable) bucket(key uint64) *stm.Obj {
	return ht.buckets[(key*0x9e3779b97f4a7c15)>>32%uint64(len(ht.buckets))]
}

// Lookup returns the value for key within transaction t.
func (ht *HashTable) Lookup(t *stm.Txn, key uint64) (uint64, bool) {
	n := t.ReadObj(ht.bucket(key), 0)
	for n != nil && !t.Aborted() {
		if t.Read(n, htKey) == key {
			return t.Read(n, htVal), true
		}
		n = t.ReadObj(n, htNext)
	}
	return 0, false
}

// Insert adds or updates key within transaction t.
func (ht *HashTable) Insert(t *stm.Txn, key, val uint64) {
	b := ht.bucket(key)
	n := t.ReadObj(b, 0)
	for n != nil && !t.Aborted() {
		if t.Read(n, htKey) == key {
			t.Write(n, htVal, val)
			return
		}
		n = t.ReadObj(n, htNext)
	}
	if t.Aborted() {
		return
	}
	fresh := t.Alloc(htWords)
	t.Write(fresh, htKey, key)
	t.Write(fresh, htVal, val)
	t.Write(fresh, htNext, t.Read(b, 0))
	t.Write(b, 0, uint64(fresh.ID()))
}

// Delete removes key within transaction t (no-op if absent).
func (ht *HashTable) Delete(t *stm.Txn, key uint64) {
	b := ht.bucket(key)
	prev, prevWord := b, 0
	n := t.ReadObj(b, 0)
	for n != nil && !t.Aborted() {
		if t.Read(n, htKey) == key {
			t.Write(prev, prevWord, t.Read(n, htNext))
			return
		}
		prev, prevWord = n, htNext
		n = t.ReadObj(n, htNext)
	}
}

// CheckInvariants verifies every key hashes to the bucket holding it.
func (ht *HashTable) CheckInvariants() string {
	for _, b := range ht.buckets {
		for id := int(b.RawRead(0)); id != 0; {
			o := ht.tm.Get(id)
			if ht.bucket(o.RawRead(htKey)) != b {
				return "key in wrong bucket"
			}
			id = int(o.RawRead(htNext))
		}
	}
	return ""
}

// LookupOp runs a whole lookup transaction.
func (ht *HashTable) LookupOp(c *machine.Ctx, key uint64) (val uint64, found bool) {
	ht.tm.Atomic(c, func(t *stm.Txn) { val, found = ht.Lookup(t, key) })
	return val, found
}

// InsertOp runs a whole insert transaction.
func (ht *HashTable) InsertOp(c *machine.Ctx, key, val uint64) {
	ht.tm.Atomic(c, func(t *stm.Txn) { ht.Insert(t, key, val) })
}

// DeleteOp runs a whole delete transaction.
func (ht *HashTable) DeleteOp(c *machine.Ctx, key uint64) {
	ht.tm.Atomic(c, func(t *stm.Txn) { ht.Delete(t, key) })
}
