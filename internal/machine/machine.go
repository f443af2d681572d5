// Package machine assembles a simulated multiprocessor: cores, the
// coherent memory system, the interconnect, a thread scheduler with
// preemption and migration, and an attachment point for a hardware lock
// device (the LCU/LRT of internal/core, or the SSB baseline).
//
// Two machine models mirror the paper's Figure 8:
//
//   - Model A: 32 single-core chips on a hierarchical-switch network with
//     uniform 186-cycle memory latency (SunFire E25K-like, MESI).
//   - Model B: 4 chips x 8 cores (Sun T5440-like m-CMP), shared per-chip
//     L2, 210/315-cycle local/remote memory, scarce inter-chip bandwidth.
package machine

import (
	"fairrw/internal/coherence"
	"fairrw/internal/memmodel"
	"fairrw/internal/obs"
	"fairrw/internal/sim"
	"fairrw/internal/topo"
)

// LockDevice is the hardware locking unit plugged into a machine. The
// LCU/LRT mechanism and the SSB baseline both implement it. Acq and Rel
// mirror the paper's ISA primitives: they do not block for the lock; they
// return immediately with success or failure and the software iterates.
type LockDevice interface {
	// Acq attempts to acquire addr for thread tid from core in read or
	// write mode. It returns true once the lock is held.
	Acq(p *sim.Proc, core int, tid uint64, addr memmodel.Addr, write bool) bool
	// Rel attempts to release addr. It returns true once the release has
	// been initiated successfully.
	Rel(p *sim.Proc, core int, tid uint64, addr memmodel.Addr, write bool) bool
	// WaitEvent parks p until the device state relevant to (core, tid,
	// addr) may have changed — a grant or retry arriving — or until the
	// timeout elapses. A device with no local state (SSB) just backs off.
	WaitEvent(p *sim.Proc, core int, tid uint64, addr memmodel.Addr, timeout sim.Time)
}

// Params holds per-model structural and timing parameters (Figure 8).
type Params struct {
	Name         string
	Cores        int
	CoresPerChip int
	NumMem       int // memory controllers == LRT modules

	LCUOrdinary int      // ordinary LCU entries per core (8 or 16)
	LCULat      sim.Time // LCU access latency
	LRTEntries  int      // LRT entries per module
	LRTAssoc    int
	LRTLat      sim.Time

	GrantTimeout sim.Time // LCU grant timer (suspended/migrated requestor)
	MemLat       sim.Time // DRAM latency for LRT overflow-table accesses

	Quantum    sim.Time // scheduler timeslice when cores are oversubscribed
	SwitchCost sim.Time // context-switch cost
}

// Machine is one simulated system instance. A machine runs one experiment
// at a time; Reset returns it to its freshly-built state so sweep workers
// can reuse one machine per model instead of rebuilding caches, directory
// pages and route tables for every sweep point.
type Machine struct {
	K    *sim.Kernel
	Net  *topo.Network
	Mem  *memmodel.Memory
	Sys  *coherence.System
	P    Params
	Lock LockDevice

	// Obs is the machine's observability capture, nil unless EnableObs was
	// called. Devices read it lazily per event, so it may be attached any
	// time before Run.
	Obs *obs.Capture

	sched []coreSched // one slab, indexed by core
}

// ModelA builds the 32-chip in-order machine (Figure 8, left column).
func ModelA() *Machine {
	k := sim.New()
	net := topo.NewModelA(k, topo.DefaultModelA())
	mem := memmodel.New(32)
	cp := coherence.Params{
		Cores: 32, CoresPerChip: 1,
		L1Lat: 3, L2Lat: 10, DRAMLat: 37, CtrlLat: 6, OpLat: 1,
		L1Sets: 256, L1Ways: 4, // 64 KB, 4-way
		L2Sets: 2048, L2Ways: 8, // 1 MB per chip
	}
	sys := coherence.New(k, net, mem, cp)
	p := Params{
		Name: "A", Cores: 32, CoresPerChip: 1, NumMem: 32,
		LCUOrdinary: 8, LCULat: 3,
		LRTEntries: 512, LRTAssoc: 16, LRTLat: 6,
		GrantTimeout: 1000, MemLat: 186,
		Quantum: 50_000, SwitchCost: 200,
	}
	return newMachine(k, net, mem, sys, p)
}

// ModelB builds the 4x8 m-CMP machine (Figure 8, right column).
func ModelB() *Machine {
	k := sim.New()
	net := topo.NewModelB(k, topo.DefaultModelB())
	mem := memmodel.New(8)
	cp := coherence.Params{
		Cores: 32, CoresPerChip: 8,
		L1Lat: 3, L2Lat: 16, DRAMLat: 141, CtrlLat: 6, OpLat: 1,
		L1Sets: 256, L1Ways: 4, // 64 KB, 4-way
		L2Sets: 4096, L2Ways: 8, // 8 banks x 256 KB shared per chip
	}
	sys := coherence.New(k, net, mem, cp)
	p := Params{
		Name: "B", Cores: 32, CoresPerChip: 8, NumMem: 8,
		LCUOrdinary: 16, LCULat: 3,
		LRTEntries: 512, LRTAssoc: 16, LRTLat: 6,
		GrantTimeout: 1000, MemLat: 210,
		Quantum: 50_000, SwitchCost: 200,
	}
	return newMachine(k, net, mem, sys, p)
}

func newMachine(k *sim.Kernel, net *topo.Network, mem *memmodel.Memory, sys *coherence.System, p Params) *Machine {
	m := &Machine{
		K: k, Net: net, Mem: mem, Sys: sys, P: p,
		sched: make([]coreSched, p.Cores),
	}
	for i := range m.sched {
		m.sched[i].core = i
	}
	return m
}

// EnableObs attaches an observability capture to the machine and every
// instrumented subsystem (interconnect, memory system). name
// labels the run in exported traces. It returns the capture so a harness
// can collect it after the run.
func (m *Machine) EnableObs(o obs.Options, name string) *obs.Capture {
	links := make([]string, len(m.Net.Links))
	for i, l := range m.Net.Links {
		links[i] = l.Name
	}
	cap := obs.New(o, obs.Meta{Name: name, Cores: m.P.Cores, LRTs: m.P.NumMem, Links: links})
	m.Obs = cap
	m.Net.Obs = cap
	m.Sys.Obs = cap
	return cap
}

// Run executes the simulation to completion and returns the final cycle.
func (m *Machine) Run() sim.Time { return m.K.Run() }

// Reset returns the machine to its freshly-built state: time zero, empty
// memory, cold caches and directory, idle links, no lock device and no
// capture attached. Backing storage — cache ways, directory pages, route
// tables, the kernel's event wheel — is kept, so a reused machine
// allocates almost nothing on its next run. The lock device is per-run
// state and must be reinstalled after Reset.
func (m *Machine) Reset() {
	m.K.Reset()
	m.Mem.Reset()
	m.Sys.Reset()
	m.Net.ResetStats()
	m.Net.Obs = nil
	m.Lock = nil
	m.Obs = nil
	for i := range m.sched {
		m.sched[i] = coreSched{core: i, ctxs: m.sched[i].ctxs[:0]}
	}
}
