// Package stmbench provides the three transactional data-structure
// microbenchmarks of Section IV-B — red-black tree, skip-list and
// hash-table — implemented over the stm package, plus the workload driver
// that regenerates Figures 11 and 12.
package stmbench

import (
	"fairrw/internal/machine"
	"fairrw/internal/stm"
)

// Node word layout for the red-black tree (left-leaning variant).
const (
	rbKey = iota
	rbVal
	rbLeft
	rbRight
	rbRed
	rbWords
)

// RBTree is a transactional left-leaning red-black tree. The root pointer
// lives in a holder object that every operation opens — the hot object
// whose reader-locking congestion Figures 11 and 12 measure.
type RBTree struct {
	tm   *stm.TM
	root *stm.Obj // w0 = root node id
}

// NewRBTree creates an empty tree on tm.
func NewRBTree(tm *stm.TM) *RBTree {
	return &RBTree{tm: tm, root: tm.NewObj(1)}
}

func (rb *RBTree) isRed(t *stm.Txn, h *stm.Obj) bool {
	if h == nil || t.Aborted() {
		return false
	}
	return t.Read(h, rbRed) == 1
}

func (rb *RBTree) rotateLeft(t *stm.Txn, h *stm.Obj) *stm.Obj {
	x := t.ReadObj(h, rbRight)
	if x == nil || t.Aborted() {
		return h
	}
	t.Write(h, rbRight, t.Read(x, rbLeft))
	t.Write(x, rbLeft, uint64(h.ID()))
	t.Write(x, rbRed, t.Read(h, rbRed))
	t.Write(h, rbRed, 1)
	return x
}

func (rb *RBTree) rotateRight(t *stm.Txn, h *stm.Obj) *stm.Obj {
	x := t.ReadObj(h, rbLeft)
	if x == nil || t.Aborted() {
		return h
	}
	t.Write(h, rbLeft, t.Read(x, rbRight))
	t.Write(x, rbRight, uint64(h.ID()))
	t.Write(x, rbRed, t.Read(h, rbRed))
	t.Write(h, rbRed, 1)
	return x
}

func (rb *RBTree) flipColors(t *stm.Txn, h *stm.Obj) {
	t.Write(h, rbRed, 1-t.Read(h, rbRed))
	if l := t.ReadObj(h, rbLeft); l != nil {
		t.Write(l, rbRed, 1-t.Read(l, rbRed))
	}
	if r := t.ReadObj(h, rbRight); r != nil {
		t.Write(r, rbRed, 1-t.Read(r, rbRed))
	}
}

func (rb *RBTree) fixUp(t *stm.Txn, h *stm.Obj) *stm.Obj {
	if h == nil || t.Aborted() {
		return h
	}
	if rb.isRed(t, rb.child(t, h, rbRight)) && !rb.isRed(t, rb.child(t, h, rbLeft)) {
		h = rb.rotateLeft(t, h)
	}
	if l := rb.child(t, h, rbLeft); rb.isRed(t, l) && rb.isRed(t, rb.child(t, l, rbLeft)) {
		h = rb.rotateRight(t, h)
	}
	if rb.isRed(t, rb.child(t, h, rbLeft)) && rb.isRed(t, rb.child(t, h, rbRight)) {
		rb.flipColors(t, h)
	}
	return h
}

func (rb *RBTree) child(t *stm.Txn, h *stm.Obj, w int) *stm.Obj {
	if h == nil || t.Aborted() {
		return nil
	}
	return t.ReadObj(h, w)
}

// Lookup returns the value for key within transaction t.
func (rb *RBTree) Lookup(t *stm.Txn, key uint64) (uint64, bool) {
	h := t.ReadObj(rb.root, 0)
	for h != nil && !t.Aborted() {
		k := t.Read(h, rbKey)
		switch {
		case key == k:
			return t.Read(h, rbVal), true
		case key < k:
			h = t.ReadObj(h, rbLeft)
		default:
			h = t.ReadObj(h, rbRight)
		}
	}
	return 0, false
}

// Insert adds or updates key within transaction t. The root holder is
// written only when the root node actually changes, so most updates do not
// write-lock the hottest object in the structure.
func (rb *RBTree) Insert(t *stm.Txn, key, val uint64) {
	old := t.Read(rb.root, 0)
	r := rb.insert(t, rb.tm.Get(int(old)), key, val)
	if t.Aborted() || r == nil {
		return
	}
	if t.Read(r, rbRed) == 1 {
		t.Write(r, rbRed, 0)
	}
	if uint64(r.ID()) != old {
		t.Write(rb.root, 0, uint64(r.ID()))
	}
}

func (rb *RBTree) insert(t *stm.Txn, h *stm.Obj, key, val uint64) *stm.Obj {
	if t.Aborted() {
		return h
	}
	if h == nil {
		n := t.Alloc(rbWords)
		t.Write(n, rbKey, key)
		t.Write(n, rbVal, val)
		t.Write(n, rbRed, 1)
		return n
	}
	k := t.Read(h, rbKey)
	switch {
	case key == k:
		t.Write(h, rbVal, val)
	case key < k:
		if nl := rb.insert(t, t.ReadObj(h, rbLeft), key, val); nl != nil {
			t.Write(h, rbLeft, uint64(nl.ID()))
		}
	default:
		if nr := rb.insert(t, t.ReadObj(h, rbRight), key, val); nr != nil {
			t.Write(h, rbRight, uint64(nr.ID()))
		}
	}
	return rb.fixUp(t, h)
}

// Delete removes key within transaction t (no-op if absent).
func (rb *RBTree) Delete(t *stm.Txn, key uint64) {
	if _, ok := rb.Lookup(t, key); !ok || t.Aborted() {
		return
	}
	old := t.Read(rb.root, 0)
	r := rb.delete(t, rb.tm.Get(int(old)), key)
	if t.Aborted() {
		return
	}
	if r != nil {
		if t.Read(r, rbRed) == 1 {
			t.Write(r, rbRed, 0)
		}
		if uint64(r.ID()) != old {
			t.Write(rb.root, 0, uint64(r.ID()))
		}
	} else {
		t.Write(rb.root, 0, 0)
	}
}

func (rb *RBTree) moveRedLeft(t *stm.Txn, h *stm.Obj) *stm.Obj {
	rb.flipColors(t, h)
	if r := rb.child(t, h, rbRight); rb.isRed(t, rb.child(t, r, rbLeft)) {
		t.Write(h, rbRight, uint64(idOf(rb.rotateRight(t, r))))
		h = rb.rotateLeft(t, h)
		rb.flipColors(t, h)
	}
	return h
}

func (rb *RBTree) moveRedRight(t *stm.Txn, h *stm.Obj) *stm.Obj {
	rb.flipColors(t, h)
	if l := rb.child(t, h, rbLeft); rb.isRed(t, rb.child(t, l, rbLeft)) {
		h = rb.rotateRight(t, h)
		rb.flipColors(t, h)
	}
	return h
}

func (rb *RBTree) minNode(t *stm.Txn, h *stm.Obj) *stm.Obj {
	for {
		l := rb.child(t, h, rbLeft)
		if l == nil || t.Aborted() {
			return h
		}
		h = l
	}
}

func (rb *RBTree) deleteMin(t *stm.Txn, h *stm.Obj) *stm.Obj {
	if h == nil || t.Aborted() {
		return nil
	}
	if rb.child(t, h, rbLeft) == nil {
		return nil
	}
	if l := rb.child(t, h, rbLeft); !rb.isRed(t, l) && !rb.isRed(t, rb.child(t, l, rbLeft)) {
		h = rb.moveRedLeft(t, h)
	}
	t.Write(h, rbLeft, uint64(idOf(rb.deleteMin(t, rb.child(t, h, rbLeft)))))
	return rb.fixUp(t, h)
}

func (rb *RBTree) delete(t *stm.Txn, h *stm.Obj, key uint64) *stm.Obj {
	if h == nil || t.Aborted() {
		return nil
	}
	if key < t.Read(h, rbKey) {
		if rb.child(t, h, rbLeft) == nil {
			return rb.fixUp(t, h)
		}
		if l := rb.child(t, h, rbLeft); !rb.isRed(t, l) && !rb.isRed(t, rb.child(t, l, rbLeft)) {
			h = rb.moveRedLeft(t, h)
		}
		t.Write(h, rbLeft, uint64(idOf(rb.delete(t, rb.child(t, h, rbLeft), key))))
	} else {
		if rb.isRed(t, rb.child(t, h, rbLeft)) {
			h = rb.rotateRight(t, h)
		}
		if key == t.Read(h, rbKey) && rb.child(t, h, rbRight) == nil {
			return nil
		}
		if r := rb.child(t, h, rbRight); r != nil && !rb.isRed(t, r) && !rb.isRed(t, rb.child(t, r, rbLeft)) {
			h = rb.moveRedRight(t, h)
		}
		if key == t.Read(h, rbKey) {
			m := rb.minNode(t, rb.child(t, h, rbRight))
			if m != nil && !t.Aborted() {
				t.Write(h, rbKey, t.Read(m, rbKey))
				t.Write(h, rbVal, t.Read(m, rbVal))
				t.Write(h, rbRight, uint64(idOf(rb.deleteMin(t, rb.child(t, h, rbRight)))))
			}
		} else {
			t.Write(h, rbRight, uint64(idOf(rb.delete(t, rb.child(t, h, rbRight), key))))
		}
	}
	return rb.fixUp(t, h)
}

func idOf(o *stm.Obj) int {
	if o == nil {
		return 0
	}
	return o.ID()
}

// CheckInvariants verifies BST order and red-black properties without
// simulation cost, returning an explanatory string or "" if valid.
func (rb *RBTree) CheckInvariants() string {
	var walk func(id int, min, max uint64) (black int, msg string)
	walk = func(id int, min, max uint64) (int, string) {
		if id == 0 {
			return 1, ""
		}
		o := rb.tm.Get(id)
		k := o.RawRead(rbKey)
		if k < min || k > max {
			return 0, "BST order violated"
		}
		red := o.RawRead(rbRed) == 1
		l, r := int(o.RawRead(rbLeft)), int(o.RawRead(rbRight))
		if red {
			if l != 0 && rb.tm.Get(l).RawRead(rbRed) == 1 {
				return 0, "red node with red left child"
			}
			if r != 0 && rb.tm.Get(r).RawRead(rbRed) == 1 {
				return 0, "red node with red right child"
			}
		}
		lb, msg := walk(l, min, k)
		if msg != "" {
			return 0, msg
		}
		var rbk int
		rbk, msg = walk(r, k, max)
		if msg != "" {
			return 0, msg
		}
		if lb != rbk {
			return 0, "black height mismatch"
		}
		if red {
			return lb, ""
		}
		return lb + 1, ""
	}
	rootID := int(rb.root.RawRead(0))
	if rootID != 0 && rb.tm.Get(rootID).RawRead(rbRed) == 1 {
		return "red root"
	}
	_, msg := walk(rootID, 0, ^uint64(0))
	return msg
}

// LookupOp runs a whole lookup transaction.
func (rb *RBTree) LookupOp(c *machine.Ctx, key uint64) (val uint64, found bool) {
	rb.tm.Atomic(c, func(t *stm.Txn) {
		val, found = rb.Lookup(t, key)
	})
	return val, found
}

// InsertOp runs a whole insert transaction.
func (rb *RBTree) InsertOp(c *machine.Ctx, key, val uint64) {
	rb.tm.Atomic(c, func(t *stm.Txn) { rb.Insert(t, key, val) })
}

// DeleteOp runs a whole delete transaction.
func (rb *RBTree) DeleteOp(c *machine.Ctx, key uint64) {
	rb.tm.Atomic(c, func(t *stm.Txn) { rb.Delete(t, key) })
}
