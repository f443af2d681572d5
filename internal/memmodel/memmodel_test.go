package memmodel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestAllocAlignment(t *testing.T) {
	m := New(4)
	a := m.Alloc(24, 8)
	if a%8 != 0 {
		t.Fatalf("addr %#x not 8-aligned", a)
	}
	b := m.Alloc(8, 64)
	if b%64 != 0 {
		t.Fatalf("addr %#x not 64-aligned", b)
	}
	if b < a+24 {
		t.Fatalf("allocations overlap: a=%#x..%#x b=%#x", a, a+24, b)
	}
}

func TestAllocBadAlignmentPanics(t *testing.T) {
	m := New(1)
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two alignment did not panic")
		}
	}()
	m.Alloc(8, 12)
}

func TestAllocLinePrivate(t *testing.T) {
	m := New(2)
	a := m.AllocLine()
	b := m.AllocLine()
	if LineOf(a) == LineOf(b) {
		t.Fatal("AllocLine returned two words on the same line")
	}
}

func TestHomeInterleaving(t *testing.T) {
	m := New(8)
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		a := m.AllocLine()
		h := m.HomeOf(a)
		if h < 0 || h >= 8 {
			t.Fatalf("home %d out of range", h)
		}
		seen[h] = true
	}
	if len(seen) != 8 {
		t.Fatalf("interleaving used %d homes, want 8", len(seen))
	}
	// Same line, same home regardless of offset.
	a := m.AllocLine()
	if m.HomeOf(a) != m.HomeOf(a+56) {
		t.Fatal("words on one line mapped to different homes")
	}
}

func TestReadWrite(t *testing.T) {
	m := New(1)
	a := m.AllocWords(2)
	if m.Read(a) != 0 {
		t.Fatal("fresh word not zero")
	}
	m.Write(a, 42)
	m.Write(a+8, 7)
	if m.Read(a) != 42 || m.Read(a+8) != 7 {
		t.Fatal("read after write mismatch")
	}
	m.Write(a, 0)
	if m.Read(a) != 0 {
		t.Fatal("zero write not visible")
	}
	if m.Words() != 1 {
		t.Fatalf("Words() = %d, want 1 (zero words are not stored)", m.Words())
	}
}

func TestLineOf(t *testing.T) {
	if LineOf(0x1238) != 0x1200 {
		t.Fatalf("LineOf(0x1238) = %#x", LineOf(0x1238))
	}
	if LineOf(0x1200) != 0x1200 {
		t.Fatal("LineOf not idempotent on aligned addr")
	}
}

func TestAllocZeroSizePanics(t *testing.T) {
	m := New(1)
	defer func() {
		if recover() == nil {
			t.Error("Alloc(0, 8) did not panic")
		}
	}()
	m.Alloc(0, 8)
}

func TestAllocExhaustionPanics(t *testing.T) {
	// Both failure shapes must panic rather than wrap brk: a request larger
	// than the remaining address space, and a size so large that base+size
	// overflows uint64.
	for _, size := range []Addr{addrSpace, ^Addr(0) - 7} {
		func() {
			m := New(1)
			defer func() {
				if recover() == nil {
					t.Errorf("Alloc(%#x, 8) did not panic", size)
				}
			}()
			m.Alloc(size, 8)
		}()
	}
}

func TestWordAccessNoAllocs(t *testing.T) {
	m := New(1)
	a := m.AllocWords(64)
	if avg := testing.AllocsPerRun(200, func() {
		m.Write(a+8, 7)
		if m.Read(a+8) != 7 {
			t.Fatal("read after write mismatch")
		}
		m.Write(a+8, 0)
	}); avg != 0 {
		t.Fatalf("heap word access allocates %.1f/op, want 0", avg)
	}
}

// TestOffHeapWordPanics: simulated state lives at heap addresses only, so
// an unaligned word and a word past the page table each panic, on Read and
// on Write, and the panic names the address.
func TestOffHeapWordPanics(t *testing.T) {
	m := New(1)
	a := m.AllocWords(4)
	pastTable := Addr(len(m.pages)) << PageShift
	for _, tc := range []struct {
		name string
		addr Addr
	}{
		{"unaligned", a + 3},
		{"past the page table", pastTable},
		{"far past the page table", pastTable + 64*PageWords*8},
	} {
		for _, op := range []struct {
			name string
			do   func()
		}{
			{"Read", func() { m.Read(tc.addr) }},
			{"Write", func() { m.Write(tc.addr, 1) }},
		} {
			t.Run(tc.name+"/"+op.name, func(t *testing.T) {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("%s(%#x) did not panic", op.name, tc.addr)
					}
					if msg := fmt.Sprint(r); !strings.Contains(msg, fmt.Sprintf("%#x", tc.addr)) {
						t.Fatalf("panic %q does not name %#x", msg, tc.addr)
					}
				}()
				op.do()
			})
		}
	}
	// The last page's words past brk are still in the table.
	m.Write(pastTable-8, 5)
	if m.Read(pastTable-8) != 5 {
		t.Fatal("word in the last page past brk not readable")
	}
}

// mapStore is the pre-paging sparse word store, kept as the reference
// oracle for the differential test below.
type mapStore struct{ words map[Addr]uint64 }

func (s *mapStore) read(a Addr) uint64 { return s.words[a] }
func (s *mapStore) write(a Addr, v uint64) {
	if v == 0 {
		delete(s.words, a)
		return
	}
	s.words[a] = v
}

// TestDifferentialVsMapStore drives random Alloc/Read/Write/CAS sequences
// against the paged store and the old map-based store in lockstep, with
// the heap growing (sometimes by whole pages) as it goes.
func TestDifferentialVsMapStore(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New(4)
	oracle := &mapStore{words: make(map[Addr]uint64)}

	var addrs []Addr
	pick := func() Addr { return addrs[rng.Intn(len(addrs))] }
	for i := 0; i < 8; i++ {
		addrs = append(addrs, m.AllocWords(16))
	}

	for op := 0; op < 20000; op++ {
		switch rng.Intn(100) {
		case 0: // occasional growth, sometimes by whole pages
			n := 1 + rng.Intn(2*PageWords)
			addrs = append(addrs, m.AllocWords(n))
		case 1, 2, 3, 4:
			a := pick()
			v := uint64(rng.Intn(3)) // include zero: the delete path
			m.Write(a, v)
			oracle.write(a, v)
		case 5, 6: // CAS built from read+write, as the coherence layer does
			a := pick()
			old, new := uint64(rng.Intn(3)), uint64(rng.Intn(3))
			if m.Read(a) == old {
				m.Write(a, new)
			}
			if oracle.read(a) == old {
				oracle.write(a, new)
			}
		default:
			a := pick()
			if got, want := m.Read(a), oracle.read(a); got != want {
				t.Fatalf("op %d: Read(%#x) = %d, oracle says %d", op, a, got, want)
			}
		}
	}
	// Full sweep: every address either store ever saw must agree.
	for _, a := range addrs {
		for off := Addr(0); off < 16*8; off += 8 {
			if got, want := m.Read(a+off), oracle.read(a+off); got != want {
				t.Fatalf("final sweep: Read(%#x) = %d, oracle says %d", a+off, got, want)
			}
		}
	}
	for a, want := range oracle.words {
		if got := m.Read(a); got != want {
			t.Fatalf("final sweep: Read(%#x) = %d, oracle says %d", a, got, want)
		}
	}
}

func TestResetClearsButKeepsPages(t *testing.T) {
	m := New(2)
	a := m.AllocWords(PageWords * 3)
	m.Write(a, 9)
	m.Write(a+PageWords*8, 5)
	m.Reset()
	if m.Words() != 0 {
		t.Fatalf("Words() = %d after Reset, want 0", m.Words())
	}
	if m.Brk() != heapBase {
		t.Fatalf("brk = %#x after Reset, want %#x", m.Brk(), heapBase)
	}
	b := m.AllocWords(1)
	if m.Read(b) != 0 {
		t.Fatal("reused page not zeroed")
	}
}
