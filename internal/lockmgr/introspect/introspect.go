// Package introspect is the live observability substrate for the lock
// service: a grant-path flight recorder of obs.Records and Prometheus
// text-format helpers. It knows nothing about lockmgr or the server —
// both layers record into a shared Recorder, in internal/obs's event
// vocabulary, and the admin plane (internal/lockmgr/server) renders them
// with obs.WriteRecords — so there is no import cycle and the recorder
// can be reused by any subsystem.
//
// The design carries over internal/obs's rules: recording is allocation
// free, a nil *Recorder is a no-op on every method (zero overhead when
// observability is disabled), and memory is bounded up front (fixed-size
// rings that overwrite the oldest record, never grow).
package introspect

import (
	"sort"
	"sync"
	"time"

	"fairrw/internal/obs"
)

// ring is one writer-sharded record buffer. pos counts records ever
// written, so pos%len is the next slot and min(pos, len) the population.
// The trailing pad keeps neighbouring rings' mutexes and cursors off a
// shared cache line.
type ring struct {
	mu  sync.Mutex
	pos uint64
	buf []obs.Record
	_   [88]byte
}

// Recorder is a fixed-size, sharded flight recorder. Writers pick a ring
// by key (the server uses its worker index, the manager the lock-name
// hash), so in steady state each ring has one writer and the per-event
// mutex is uncontended. All methods are safe on a nil receiver and do
// nothing — callers thread a possibly-nil *Recorder and pay only a nil
// check when observability is off.
type Recorder struct {
	mask  uint32
	rings []ring
}

// NewRecorder creates a recorder with rings rings (rounded up to a power
// of two, default 4) of perRing events each (default 256).
func NewRecorder(rings, perRing int) *Recorder {
	if rings <= 0 {
		rings = 4
	}
	for rings&(rings-1) != 0 {
		rings++
	}
	if perRing <= 0 {
		perRing = 256
	}
	r := &Recorder{mask: uint32(rings - 1), rings: make([]ring, rings)}
	for i := range r.rings {
		r.rings[i].buf = make([]obs.Record, perRing)
	}
	return r
}

// Record appends rec to the ring selected by key, overwriting the oldest
// record once the ring is full. rec.At is stamped here (UnixNano) if zero:
// the manager stamps its own records off its clock, the server's get the
// wall clock.
func (r *Recorder) Record(key uint32, rec obs.Record) {
	if r == nil {
		return
	}
	if rec.At == 0 {
		rec.At = uint64(time.Now().UnixNano())
	}
	rg := &r.rings[key&r.mask]
	rg.mu.Lock()
	rg.buf[rg.pos%uint64(len(rg.buf))] = rec
	rg.pos++
	rg.mu.Unlock()
}

// Events returns a snapshot of every retained record across all rings,
// oldest first: each ring is read from its oldest slot, then the rings
// are merged by time, records with equal times keeping the order they
// were recorded in within a ring. Nil-safe; allocates — dump path only.
func (r *Recorder) Events() []obs.Record {
	if r == nil {
		return nil
	}
	var out []obs.Record
	for i := range r.rings {
		rg := &r.rings[i]
		rg.mu.Lock()
		if n := uint64(len(rg.buf)); rg.pos > n {
			at := rg.pos % n
			out = append(append(out, rg.buf[at:]...), rg.buf[:at]...)
		} else {
			out = append(out, rg.buf[:rg.pos]...)
		}
		rg.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Hash is FNV-1a over a lock name, string or bytes alike (a name that
// aliases a parse buffer hashes without a conversion allocation): the
// hash carried in records' Lock and kept on lockmgr's table entry, so a
// flight-recorder hash maps back, via the hot-lock table, usually to a
// name.
func Hash[T string | []byte](s T) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}
