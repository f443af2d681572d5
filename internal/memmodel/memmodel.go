// Package memmodel provides the simulated physical memory: a paged
// word-granular backing store, a bump allocator for workloads, and the
// address-to-home-controller interleaving used by the directory, the LRT
// and the SSB.
package memmodel

import "fmt"

// LineShift is log2 of the coherence line size (64 bytes).
const LineShift = 6

// LineSize is the coherence line size in bytes.
const LineSize = 1 << LineShift

// PageShift is log2 of the backing-store page size in bytes. Pages hold
// 512 words (4 KB), so a page index is addr >> PageShift and the word
// slot within it is (addr >> 3) & (PageWords - 1).
const PageShift = 12

// PageWords is the number of 8-byte words per backing-store page.
const PageWords = 1 << (PageShift - 3)

// Addr is a simulated physical address.
type Addr = uint64

// LineOf returns the line-aligned address containing a.
func LineOf(a Addr) Addr { return a &^ (LineSize - 1) }

// PageOf returns the page index containing a.
func PageOf(a Addr) uint64 { return a >> PageShift }

// page is one fixed backing-store page of 512 words.
type page [PageWords]uint64

// Memory is the simulated physical memory of one machine.
//
// The heap — everything handed out by Alloc, which is all addresses the
// workloads ever touch — is backed by a flat table of fixed 4 KB pages, so
// the word load/store hot path is two array indexations with no hashing
// and no allocation at steady state. Simulated state lives at heap
// addresses only: a word that is not 8-byte aligned, or lies past the
// page table, panics on Read or Write and names its address.
type Memory struct {
	pages   []*page // indexed by PageOf(addr), covers [0, brk) rounded up
	brk     Addr
	numHome int
}

// heapBase is the initial brk: the heap starts at a non-zero base so that
// address 0 can serve as a nil sentinel.
const heapBase Addr = 0x1000

// addrSpace bounds the simulated physical address space. The bump
// allocator refuses to cross it, so page indices stay small and brk
// arithmetic cannot wrap.
const addrSpace Addr = 1 << 40 // 1 TB

// New creates a memory with the given number of home controllers.
func New(numHome int) *Memory {
	if numHome <= 0 {
		panic("memmodel: need at least one home controller")
	}
	m := &Memory{brk: heapBase, numHome: numHome}
	m.growPages()
	return m
}

// HomeOf returns the memory controller index owning address a. Lines are
// interleaved across controllers, as in the evaluated systems.
func (m *Memory) HomeOf(a Addr) int {
	return int((a >> LineShift) % uint64(m.numHome))
}

// growPages extends (and materializes) the page table to cover [0, brk).
// Pages are allocated eagerly so that Read/Write never allocate.
func (m *Memory) growPages() {
	want := int(PageOf(m.brk-1)) + 1
	for len(m.pages) < want {
		m.pages = append(m.pages, new(page))
	}
}

// Alloc reserves size bytes aligned to align (a power of two) and returns
// the base address. Allocation is simulation-level bookkeeping only; it
// costs no cycles.
//
// A zero size panics: the caller would receive an address aliasing the
// next allocation, a silent sharing bug.
func (m *Memory) Alloc(size, align Addr) Addr {
	if size == 0 {
		panic("memmodel: Alloc(size=0) would alias the next allocation")
	}
	if align == 0 {
		align = 8
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("memmodel: alignment %d is not a power of two", align))
	}
	base := (m.brk + align - 1) &^ (align - 1)
	end := base + size
	if base < m.brk || end < base || end > addrSpace {
		panic(fmt.Sprintf("memmodel: Alloc(%d, %d) exhausts the %d-byte address space (brk=%#x)",
			size, align, addrSpace, m.brk))
	}
	m.brk = end
	m.growPages()
	return base
}

// AllocWords reserves n 8-byte words and returns the base address.
func (m *Memory) AllocWords(n int) Addr {
	return m.Alloc(Addr(n)*8, 8)
}

// AllocLine reserves one full line-aligned coherence line, so the returned
// word shares its line with nothing else. Queue-lock nodes use this to get
// private spin lines.
func (m *Memory) AllocLine() Addr {
	return m.Alloc(LineSize, LineSize)
}

// word returns the backing slot of the aligned heap word at a. Any other
// address panics with an offHeap, whose message is built only then, so
// word inlines into Read and Write.
func (m *Memory) word(a Addr) *uint64 {
	if pi := PageOf(a); a&7 == 0 && pi < uint64(len(m.pages)) {
		return &m.pages[pi][(a>>3)&(PageWords-1)]
	}
	panic(offHeap{a, m.brk})
}

// offHeap is the panic value for a word access outside the heap.
type offHeap struct{ addr, brk Addr }

func (e offHeap) Error() string {
	return fmt.Sprintf("memmodel: word access at %#x is unaligned or past the heap (brk %#x)", e.addr, e.brk)
}

// Read returns the 8-byte word at address a (zero if never written).
func (m *Memory) Read(a Addr) uint64 { return *m.word(a) }

// Write stores the 8-byte word v at address a.
func (m *Memory) Write(a Addr, v uint64) { *m.word(a) = v }

// Words returns the number of distinct non-zero words stored, for tests.
func (m *Memory) Words() int {
	n := 0
	for _, p := range m.pages {
		for _, w := range p {
			if w != 0 {
				n++
			}
		}
	}
	return n
}

// Brk returns the current heap break, for tests and reuse bookkeeping.
func (m *Memory) Brk() Addr { return m.brk }

// Reset returns the memory to its post-New state while keeping the page
// arrays, so a reused machine rebuilds no backing store. Pages that were
// ever materialized are zeroed in place.
func (m *Memory) Reset() {
	for _, p := range m.pages {
		*p = page{}
	}
	m.brk = heapBase
}
