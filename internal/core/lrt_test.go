package core

import (
	"testing"

	"fairrw/internal/machine"
	"fairrw/internal/memmodel"
)

// lrtHarness builds a tiny LRT for white-box table tests.
func lrtHarness(t *testing.T, entries, assoc int) *lrt {
	t.Helper()
	m := machine.ModelA()
	m.P.LRTEntries = entries
	m.P.LRTAssoc = assoc
	d := New(m, Options{})
	return d.lrts[0]
}

func TestLRTPlaceAndLookup(t *testing.T) {
	l := lrtHarness(t, 8, 2)
	e, extra := l.create(0x1000)
	if extra != 0 {
		t.Fatalf("create into empty set cost %d", extra)
	}
	got, extra := l.lookup(0x1000)
	if got != e || extra != 0 {
		t.Fatalf("lookup returned %v (extra %d)", got, extra)
	}
	if miss, _ := l.lookup(0x9999000); miss != nil {
		t.Fatal("lookup of absent address returned an entry")
	}
}

func TestLRTEvictionToOverflowAndBack(t *testing.T) {
	// 1 set x 2 ways: the third same-set entry must evict the LRU into the
	// memory overflow table, and looking the victim up must swap it back.
	l := lrtHarness(t, 2, 2)
	addrs := []memmodel.Addr{}
	// All addresses land in the single set.
	for a := memmodel.Addr(0x1000); len(addrs) < 3; a += 64 {
		addrs = append(addrs, a)
	}
	e0, _ := l.create(addrs[0])
	l.create(addrs[1])
	// Touch e0 so addrs[1] is LRU.
	l.lookup(addrs[0])
	l.create(addrs[2]) // evicts addrs[1]
	if len(l.ovf) != 1 {
		t.Fatalf("overflow table has %d entries, want 1", len(l.ovf))
	}
	if l.ovf[addrs[1]] == nil {
		t.Fatal("evicted the wrong victim (LRU should be addrs[1])")
	}
	// Swap back: costs memory latency and displaces another entry.
	got, extra := l.lookup(addrs[1])
	if got == nil || got.addr != addrs[1] {
		t.Fatal("overflowed entry not found")
	}
	if extra == 0 {
		t.Fatal("overflow lookup should charge memory latency")
	}
	_ = e0
}

func TestLRTMissWithOverflowChargesMemory(t *testing.T) {
	l := lrtHarness(t, 2, 2)
	for a := memmodel.Addr(0x1000); a < 0x1000+3*64; a += 64 {
		l.create(a)
	}
	// Overflow flag set: even a miss must consult the memory table.
	got, extra := l.lookup(0x77770000)
	if got != nil {
		t.Fatal("phantom entry")
	}
	if extra == 0 {
		t.Fatal("miss with overflow flag should charge memory latency")
	}
}

func TestLRTRemove(t *testing.T) {
	l := lrtHarness(t, 2, 2)
	for a := memmodel.Addr(0x1000); a < 0x1000+3*64; a += 64 {
		l.create(a)
	}
	// 0x1000 was the LRU victim, so it lives in the overflow table; remove
	// it there, then remove one resident entry.
	l.remove(0x1000)
	if len(l.ovf) != 0 {
		t.Fatalf("overflow still has %d entries", len(l.ovf))
	}
	l.remove(0x1040)
	n := 0
	for _, set := range l.sets {
		n += len(set)
	}
	if n != 1 {
		t.Fatalf("%d entries remain, want 1", n)
	}
	// Removing an absent address is a no-op.
	l.remove(0xdead000)
	if n := len(l.sets[0]); n != 1 {
		t.Fatalf("no-op remove changed the table: %d", n)
	}
}

func TestLRTEntryFreePredicate(t *testing.T) {
	e := &lrtEntry{}
	if !e.free() {
		t.Fatal("empty entry should be free")
	}
	e.readerCnt = 1
	if e.free() {
		t.Fatal("entry with overflow readers is not free")
	}
	e.readerCnt = 0
	e.head = nodeRef{valid: true, tid: 1, lcu: 0}
	if e.free() {
		t.Fatal("entry with a queue head is not free")
	}
}

func TestSameRef(t *testing.T) {
	a := nodeRef{valid: true, tid: 3, lcu: 5, write: true}
	b := nodeRef{valid: true, tid: 3, lcu: 5, write: false}
	if !sameRef(a, b) {
		t.Fatal("sameRef ignores mode and must match on (tid,lcu)")
	}
	if sameRef(a, nodeRef{}) || sameRef(nodeRef{}, nodeRef{}) {
		t.Fatal("invalid refs never match")
	}
}
