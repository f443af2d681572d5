// Package coherence is the cycle-approximate memory-system timing model:
// per-core set-associative L1s, per-chip L2s, and a directory at each
// line's home memory controller that tracks one exclusive owner or a set
// of sharers. Transactions (read, write/upgrade, read-modify-write) are
// resolved atomically at the directory and charge the latency of the hop
// sequence they would take on real hardware, including invalidation
// fan-out to sharers and cache-to-cache forwarding — the effects that
// differentiate the software locks in Figures 10, 12 and 13.
//
// Spinning is event-driven: a waiter parks on a line's watch list and is
// woken when the line's content changes, instead of polling the simulator.
package coherence

import (
	"fmt"

	"fairrw/internal/memmodel"
	"fairrw/internal/obs"
	"fairrw/internal/sim"
	"fairrw/internal/topo"
)

// Params configures the memory hierarchy timing.
type Params struct {
	Cores        int
	CoresPerChip int

	L1Lat   sim.Time // L1 hit latency
	L2Lat   sim.Time // L2 access latency (miss path adder / hit cost)
	DRAMLat sim.Time // DRAM array access at the home controller
	CtrlLat sim.Time // directory/controller processing per transaction
	OpLat   sim.Time // ALU cost of the RMW in an atomic

	L1Sets, L1Ways int
	L2Sets, L2Ways int
}

// Stats aggregates system-wide coherence event counts.
type Stats struct {
	Reads, Writes, RMWs uint64
	L1Hits, L1Misses    uint64
	Invalidations       uint64
	Forwards            uint64 // cache-to-cache transfers
	DRAMAccesses        uint64
}

// dirEntry is the directory state of one coherence line, stored by value
// inside a dirPage so the steady state allocates nothing per line.
type dirEntry struct {
	owner   int    // core holding the line exclusively (M/E), or -1
	sharers uint64 // bitmask of cores holding the line shared
	watch   []*sim.Proc
	// busy serializes ownership transfers of this line: a cache line can
	// only move between cores one transfer at a time, which is what turns
	// a shared counter into a hotspot (e.g. the MRSW reader counter of
	// Section IV-A and the STM root lock word of Section IV-B).
	busy sim.Time
}

// dirPageLines is the number of coherence lines per directory page — the
// lines of one 4 KB memmodel page.
const dirPageLines = (memmodel.PageWords * 8) / memmodel.LineSize

// dirPage holds the directory entries of one heap page inline.
type dirPage [dirPageLines]dirEntry

// newDirPage returns a page with every line unowned.
func newDirPage() *dirPage {
	p := new(dirPage)
	for i := range p {
		p[i].owner = -1
	}
	return p
}

// System is the coherent memory system of one simulated machine.
type System struct {
	K   *sim.Kernel
	Net *topo.Network
	Mem *memmodel.Memory
	P   Params

	l1 []cacheArray // one slab per level, not one object per cache
	l2 []cacheArray

	// dir is the directory, paged in lockstep with the memory heap: entry
	// pages materialize on first touch and entries are addressed by line
	// number, so lookups are two loads with no hashing.
	dir []*dirPage

	// watchPool recycles watch-list slices drained by wake, so parking and
	// waking spinners allocates only until the pool warms up.
	watchPool [][]*sim.Proc

	// Obs, when non-nil, receives cache-transaction records.
	Obs *obs.Capture

	Stats Stats
}

// New builds a coherent memory system over the given network and memory.
func New(k *sim.Kernel, net *topo.Network, mem *memmodel.Memory, p Params) *System {
	chips := (p.Cores + p.CoresPerChip - 1) / p.CoresPerChip
	return &System{K: k, Net: net, Mem: mem, P: p,
		l1: newCacheArrays(p.Cores, p.L1Sets, p.L1Ways),
		l2: newCacheArrays(chips, p.L2Sets, p.L2Ways)}
}

func (s *System) chipOf(core int) int { return core / s.P.CoresPerChip }

// entry returns the directory entry for line, materializing its page on
// first touch. Pointers stay valid for the lifetime of the System: pages
// are fixed arrays and are never moved or dropped. A line past the
// memory's page table panics: simulated state lives at heap addresses only.
func (s *System) entry(line memmodel.Addr) *dirEntry {
	pi := memmodel.PageOf(line)
	if pi >= uint64(len(s.dir)) {
		if pi > memmodel.PageOf(s.Mem.Brk()-1) {
			panic(fmt.Sprintf("coherence: directory touch at line %#x is past the heap (brk %#x)", line, s.Mem.Brk()))
		}
		// Heap grew since the last directory touch: extend the page table.
		s.dir = append(s.dir, make([]*dirPage, int(pi)+1-len(s.dir))...)
	}
	p := s.dir[pi]
	if p == nil {
		p = newDirPage()
		s.dir[pi] = p
	}
	return &p[(line>>memmodel.LineShift)%dirPageLines]
}

// peekEntry returns the directory entry for line without materializing
// anything, or nil if the line was never tracked.
func (s *System) peekEntry(line memmodel.Addr) *dirEntry {
	if pi := memmodel.PageOf(line); pi < uint64(len(s.dir)) && s.dir[pi] != nil {
		return &s.dir[pi][(line>>memmodel.LineShift)%dirPageLines]
	}
	return nil
}

// evictFrom handles an L1 victim: the directory forgets this core.
func (s *System) evictFrom(core int, line memmodel.Addr) {
	e := s.peekEntry(line)
	if e == nil {
		return
	}
	if e.owner == core {
		e.owner = -1 // silent writeback; data is already in the backing store
	}
	e.sharers &^= 1 << uint(core)
}

// install records line presence in the core's L1 and its chip's L2.
func (s *System) install(core int, line memmodel.Addr) {
	if victim, ev := s.l1[core].insert(line); ev {
		s.evictFrom(core, victim)
	}
	s.l2[s.chipOf(core)].insert(line)
}

// watchAppend parks p on e's watch list, drawing a recycled slice from the
// pool when the entry has none.
func (s *System) watchAppend(e *dirEntry, p *sim.Proc) {
	if e.watch == nil {
		if n := len(s.watchPool); n > 0 {
			e.watch = s.watchPool[n-1]
			s.watchPool = s.watchPool[:n-1]
		}
	}
	e.watch = append(e.watch, p)
}

// wake releases every proc parked on the line's watch list after delay
// cycles — the point at which the writing transaction completes and its
// invalidations have reached the spinners. The drained slice returns to
// the pool for the next watcher instead of being dropped to the GC.
func (s *System) wake(e *dirEntry, delay sim.Time) {
	if len(e.watch) == 0 {
		return
	}
	ws := e.watch
	e.watch = nil
	for _, p := range ws {
		if p.Blocked() {
			p.Wake(delay)
		}
	}
	clear(ws)
	s.watchPool = append(s.watchPool, ws[:0])
}

// Read performs a coherent load of the 8-byte word at addr from core,
// blocking p for the access latency, and returns the value.
func (s *System) Read(p *sim.Proc, core int, addr memmodel.Addr) uint64 {
	s.Stats.Reads++
	line := memmodel.LineOf(addr)
	e := s.entry(line)

	if s.l1[core].has(line) && (e.owner == core || e.sharers&(1<<uint(core)) != 0) {
		s.Stats.L1Hits++
		p.Wait(s.P.L1Lat)
		return s.Mem.Read(addr)
	}
	s.Stats.L1Misses++
	lat := s.readMissLatency(core, line, e)
	if s.Obs != nil {
		s.Obs.CacheEvent(uint64(s.K.Now()), core, obs.KCacheRd, uint64(line), uint64(lat))
	}
	e.sharers |= 1 << uint(core)
	if e.owner == core {
		e.owner = -1
	}
	s.install(core, line)
	p.Wait(lat)
	return s.Mem.Read(addr)
}

// readMissLatency computes (and charges link occupancy for) a GetS miss.
func (s *System) readMissLatency(core int, line memmodel.Addr, e *dirEntry) sim.Time {
	home := topo.Mem(s.Mem.HomeOf(line))
	src := topo.Core(core)
	t := s.K.Now()
	lat := s.P.L1Lat // miss detection

	chip := s.chipOf(core)
	if e.owner == -1 && s.l2[chip].has(line) {
		// Chip-local L2 hit with no remote dirty copy.
		return lat + s.P.L2Lat
	}

	lat += s.P.L2Lat // L2 lookup on the miss path
	lat += s.Net.DelayAt(t+lat, src, home)
	lat += s.P.CtrlLat
	if e.owner != -1 && e.owner != core {
		// Dirty remote: forward to owner, owner supplies data to requestor.
		s.Stats.Forwards++
		own := topo.Core(e.owner)
		lat += s.Net.DelayAt(t+lat, home, own)
		lat += s.P.L1Lat
		lat += s.Net.DelayAt(t+lat, own, src)
		// Owner downgrades to shared.
		e.sharers |= 1 << uint(e.owner)
		e.owner = -1
		return lat
	}
	// Clean at home: DRAM (or home L2) supplies data.
	s.Stats.DRAMAccesses++
	lat += s.P.DRAMLat
	lat += s.Net.DelayAt(t+lat, home, src)
	return lat
}

// Write performs a coherent store of v to the word at addr from core.
func (s *System) Write(p *sim.Proc, core int, addr memmodel.Addr, v uint64) {
	s.Stats.Writes++
	line := memmodel.LineOf(addr)
	e := s.entry(line)
	lat := s.ownLatency(core, line, e)
	s.Mem.Write(addr, v)
	s.wake(e, lat)
	p.Wait(lat)
}

// RMW performs an atomic read-modify-write: f receives the old value and
// returns the new value to store. It returns the old value. The line is
// owned exclusively for the operation.
func (s *System) RMW(p *sim.Proc, core int, addr memmodel.Addr, f func(old uint64) uint64) uint64 {
	s.Stats.RMWs++
	line := memmodel.LineOf(addr)
	e := s.entry(line)
	lat := s.ownLatency(core, line, e) + s.P.OpLat
	old := s.Mem.Read(addr)
	s.Mem.Write(addr, f(old))
	s.wake(e, lat)
	p.Wait(lat)
	return old
}

// CAS performs an atomic compare-and-swap, returning whether it succeeded.
func (s *System) CAS(p *sim.Proc, core int, addr memmodel.Addr, old, new uint64) bool {
	ok := false
	s.RMW(p, core, addr, func(cur uint64) uint64 {
		if cur == old {
			ok = true
			return new
		}
		return cur
	})
	return ok
}

// FetchAdd atomically adds delta and returns the previous value.
func (s *System) FetchAdd(p *sim.Proc, core int, addr memmodel.Addr, delta uint64) uint64 {
	return s.RMW(p, core, addr, func(cur uint64) uint64 { return cur + delta })
}

// Swap atomically stores v and returns the previous value.
func (s *System) Swap(p *sim.Proc, core int, addr memmodel.Addr, v uint64) uint64 {
	return s.RMW(p, core, addr, func(uint64) uint64 { return v })
}

// ownLatency acquires exclusive ownership of e's line for core, computing
// the latency (hit, upgrade with invalidation fan-out, or full GetM) and
// updating directory state. Concurrent ownership transfers of one line
// serialize behind each other.
func (s *System) ownLatency(core int, line memmodel.Addr, e *dirEntry) sim.Time {
	me := uint64(1) << uint(core)

	if e.owner == core && s.l1[core].has(line) {
		return s.P.L1Lat
	}

	home := topo.Mem(s.Mem.HomeOf(line))
	src := topo.Core(core)
	t := s.K.Now()
	var lat sim.Time
	if e.busy > t {
		lat += e.busy - t // queue behind an in-flight transfer of this line
	}
	lat += s.P.L1Lat

	inL1Shared := e.sharers&me != 0 && s.l1[core].peek(line)

	// Reach the home (upgrade or GetM both consult the directory).
	lat += s.P.L2Lat
	lat += s.Net.DelayAt(t+lat, src, home)
	lat += s.P.CtrlLat

	// Fetch data if we do not have a valid copy.
	if !inL1Shared {
		if e.owner != -1 && e.owner != core {
			s.Stats.Forwards++
			own := topo.Core(e.owner)
			fw := s.Net.DelayAt(t+lat, home, own) + s.P.L1Lat + s.Net.DelayAt(t+lat, own, src)
			s.l1[e.owner].invalidate(line)
			s.Stats.Invalidations++
			lat += fw
			e.owner = -1
		} else {
			s.Stats.DRAMAccesses++
			lat += s.P.DRAMLat + s.Net.DelayAt(t+lat, home, src)
		}
	}

	// Invalidate all other sharers (in parallel; latency is the slowest).
	var worst sim.Time
	for c := 0; c < s.P.Cores; c++ {
		bit := uint64(1) << uint(c)
		if c == core || e.sharers&bit == 0 {
			continue
		}
		d := s.Net.DelayAt(t+lat, home, topo.Core(c)) + s.P.L1Lat +
			s.Net.DelayAt(t+lat, topo.Core(c), home)
		if d > worst {
			worst = d
		}
		s.l1[c].invalidate(line)
		s.Stats.Invalidations++
	}
	if e.owner != -1 && e.owner != core { // exclusive holder not yet handled (upgrade path)
		d := s.Net.DelayAt(t+lat, home, topo.Core(e.owner)) + s.P.L1Lat +
			s.Net.DelayAt(t+lat, topo.Core(e.owner), home)
		if d > worst {
			worst = d
		}
		s.l1[e.owner].invalidate(line)
		s.Stats.Invalidations++
		e.owner = -1
	}
	lat += worst
	if inL1Shared {
		// Upgrade ack returns to the requestor.
		lat += s.Net.DelayAt(t+lat, home, src)
	}

	e.owner = core
	e.sharers = 0
	e.busy = t + lat
	s.install(core, line)
	if s.Obs != nil {
		s.Obs.CacheEvent(uint64(t), core, obs.KCacheOwn, uint64(line), uint64(lat))
	}
	return lat
}

// WaitChange parks p until the word at addr changes from old (or returns
// immediately if it already differs). Spin loops use it so that waiting
// costs no simulator events until the writer arrives.
func (s *System) WaitChange(p *sim.Proc, addr memmodel.Addr, old uint64) {
	if s.Mem.Read(addr) != old {
		return
	}
	s.watchAppend(s.entry(memmodel.LineOf(addr)), p)
	p.Block()
}

// WaitChangeTimeout is WaitChange with an upper bound; it returns false if
// the timeout fired first.
func (s *System) WaitChangeTimeout(p *sim.Proc, addr memmodel.Addr, old uint64, d sim.Time) bool {
	if s.Mem.Read(addr) != old {
		return true
	}
	e := s.entry(memmodel.LineOf(addr))
	s.watchAppend(e, p)
	ok := p.BlockTimeout(d)
	if !ok {
		// Drop the stale registration so a later wake does not hit us.
		for i, w := range e.watch {
			if w == p {
				e.watch = append(e.watch[:i], e.watch[i+1:]...)
				break
			}
		}
	}
	return ok
}

// L1Stats returns hit/miss counters for one core's L1, for tests.
func (s *System) L1Stats(core int) (hits, misses uint64) {
	return s.l1[core].Hits, s.l1[core].Misses
}

// Reset clears all coherence state — caches, directory pages, watch lists
// and statistics — while keeping every backing array, so a reused machine
// rebuilds neither cache ways nor directory pages.
func (s *System) Reset() {
	for i := range s.l1 {
		s.l1[i].reset()
	}
	for i := range s.l2 {
		s.l2[i].reset()
	}
	for _, p := range s.dir {
		if p == nil {
			continue
		}
		for i := range p {
			if w := p[i].watch; w != nil {
				clear(w)
				s.watchPool = append(s.watchPool, w[:0])
			}
			p[i] = dirEntry{owner: -1}
		}
	}
	s.Obs = nil
	s.Stats = Stats{}
}
