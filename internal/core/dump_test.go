package core

import (
	"fmt"
	"strings"
	"testing"

	"fairrw/internal/machine"
	"fairrw/internal/memmodel"
)

// TestDumpStateLiveEntries freezes a contended run mid-flight and checks
// the dump names every live protocol entry: each LCU entry that is not
// free, and the LRT entry of the contended lock with its current holder
// and queue tail. The dump is the wedged-state debugging tool, so missing
// entries would hide exactly the state one is hunting.
func TestDumpStateLiveEntries(t *testing.T) {
	m := machine.ModelA()
	d := New(m, Options{})
	addr := memmodel.Addr(0x1000)

	const threads = 6
	for i := 0; i < threads; i++ {
		tid := uint64(i + 1)
		m.Spawn("dump", tid, i%m.P.Cores, func(c *machine.Ctx) {
			c.HwLock(addr, true)
			c.Compute(200_000) // hold far past the freeze point
			c.HwUnlock(addr, true)
		})
	}
	// Freeze mid-protocol: one holder plus a queue of waiters.
	m.K.RunUntil(5_000)

	dump := d.DumpState()
	if dump == "" {
		t.Fatal("no live entries at freeze point; the run never contended")
	}

	// Every allocated LCU entry must be reported with its thread.
	live := 0
	for _, u := range d.lcus {
		for _, e := range u.entries {
			if e.status == StatusFree {
				continue
			}
			live++
			line := fmt.Sprintf("lcu%-3d %-7s t%-4d", u.core, e.status, e.tid)
			if !strings.Contains(dump, line) {
				t.Errorf("dump is missing LCU entry %q:\n%s", line, dump)
			}
		}
	}
	if live < 2 {
		t.Fatalf("only %d live LCU entries at freeze point, want a contended queue:\n%s", live, dump)
	}

	// The contended lock's LRT entry must be reported, granted, with a
	// non-nil queue head.
	lrtLines := 0
	for _, l := range strings.Split(dump, "\n") {
		if strings.HasPrefix(l, "lrt") {
			lrtLines++
			if !strings.Contains(l, fmt.Sprintf("%#x", uint64(addr))) {
				t.Errorf("unexpected LRT entry (wrong address): %q", l)
			}
			if !strings.Contains(l, "granted=true") {
				t.Errorf("LRT entry not granted at freeze point: %q", l)
			}
		}
	}
	if lrtLines != 1 {
		t.Fatalf("got %d LRT lines, want exactly 1 (the contended lock):\n%s", lrtLines, dump)
	}

	// Drain the run to completion: the dump must then be empty (no leaked
	// entries).
	m.Run()
	if rest := d.DumpState(); rest != "" {
		t.Fatalf("entries leaked after completion:\n%s", rest)
	}
}

// TestDumpStateOverflowInAddressOrder holds more locks than a 2-entry LRT
// has slots, so most of them live in the memory overflow table, and checks
// that the dump lists each LRT's entries in address order and that two
// dumps of the same state are identical: the overflow map's iteration
// order must not reach the output.
func TestDumpStateOverflowInAddressOrder(t *testing.T) {
	m := machine.ModelA()
	m.P.LRTEntries = 2
	m.P.LRTAssoc = 2
	d := New(m, Options{})
	var locks []memmodel.Addr
	for len(locks) < 12 {
		if a := m.Mem.AllocLine(); m.Mem.HomeOf(a) == 0 {
			locks = append(locks, a)
		}
	}
	m.Spawn("holder", 1, 0, func(c *machine.Ctx) {
		for _, a := range locks {
			c.HwLock(a, true)
		}
		c.Compute(200_000) // hold far past the freeze point
		for _, a := range locks {
			c.HwUnlock(a, true)
		}
	})
	m.K.RunUntil(100_000)
	if n := len(d.lrts[0].ovf); n != len(locks)-2 {
		t.Fatalf("overflow table holds %d entries, want %d", n, len(locks)-2)
	}

	dump := d.DumpState()
	var got []memmodel.Addr
	for _, line := range strings.Split(dump, "\n") {
		if !strings.HasPrefix(line, "lrt0 ") {
			continue
		}
		var a memmodel.Addr
		if _, err := fmt.Sscanf(strings.Fields(line)[1], "%v", &a); err != nil {
			t.Fatalf("unparsable LRT line %q: %v", line, err)
		}
		got = append(got, a)
	}
	if len(got) != len(locks) {
		t.Fatalf("dump lists %d LRT entries, want %d:\n%s", len(got), len(locks), dump)
	}
	for i := range got {
		if got[i] != locks[i] { // AllocLine hands out ascending addresses
			t.Fatalf("LRT line %d is %#x, want %#x (address order):\n%s", i, got[i], locks[i], dump)
		}
	}
	for i := 0; i < 5; i++ {
		if again := d.DumpState(); again != dump {
			t.Fatalf("second dump differs:\n%s\nvs\n%s", dump, again)
		}
	}
	m.Run()
	if rest := d.DumpState(); rest != "" {
		t.Fatalf("entries leaked after completion:\n%s", rest)
	}
}
