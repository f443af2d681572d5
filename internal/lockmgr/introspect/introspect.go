// Package introspect is the live observability substrate for the lock
// service: a grant-path flight recorder and Prometheus text-format
// helpers. It deliberately knows nothing about lockmgr or the server —
// both layers write events into a shared Recorder and the admin plane
// (internal/lockmgr/server) renders them — so there is no import cycle
// and the recorder can be reused by any subsystem.
//
// The design carries over internal/obs's rules: recording is allocation
// free, a nil *Recorder is a no-op on every method (zero overhead when
// observability is disabled), and memory is bounded up front (fixed-size
// rings that overwrite the oldest event, never grow).
package introspect

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Kind classifies one flight-recorder event. The set covers the grant
// path of a contended acquire end to end: the park that takes it off the
// event loop, the resolution (grant, timeout, lease revocation), the
// completion's delivery to the owning worker, plus the session- and
// connection-lifecycle events that explain why a grant never came.
type Kind uint8

const (
	// EvPark: an acquire would block; the manager queued it and the
	// server parked its connection. Wait carries the request's wait bound
	// (ns; <0 means until the lease expires).
	EvPark Kind = iota + 1
	// EvGrant: a contended acquire was granted. Wait is the measured
	// queue wait in ns.
	EvGrant
	// EvTimeout: a contended acquire timed out after Wait ns.
	EvTimeout
	// EvRevoke: a contended acquire was cancelled by session expiry
	// after waiting Wait ns.
	EvRevoke
	// EvSlow: a grant's queue wait crossed the slow-lock threshold
	// (recorded in addition to EvGrant; also hits the slow-lock log).
	EvSlow
	// EvExpire: a session's lease ran out and the manager revoked it, at
	// its deadline (the manager's timer) or on the first op after it.
	// Wait carries the number of holds revoked.
	EvExpire
	// EvUnpark: the parked acquire's completion reached the owning
	// event-loop worker (response write + deferred-frame re-parse). Wait
	// is the measured queue wait in ns.
	EvUnpark
	// EvCondemn: a connection was condemned (malformed frame or write
	// error); buffered responses still flush, then it drops.
	EvCondemn
	// EvDrain: a connection drained cleanly (EOF with no frames left).
	EvDrain
)

// String names the event kind for dumps.
func (k Kind) String() string {
	switch k {
	case EvPark:
		return "PARK"
	case EvGrant:
		return "GRANT"
	case EvTimeout:
		return "TIMEOUT"
	case EvRevoke:
		return "REVOKE"
	case EvSlow:
		return "SLOW"
	case EvExpire:
		return "EXPIRE"
	case EvUnpark:
		return "UNPARK"
	case EvCondemn:
		return "CONDEMN"
	case EvDrain:
		return "DRAIN"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one flight-recorder record. Fields that do not apply to a
// kind are zero; lock names are carried as their FNV-1a hash so the
// record stays fixed-size and recording never allocates.
type Event struct {
	TS   int64  // wall clock, UnixNano
	Wait int64  // ns (see the Kind constants for per-kind meaning)
	SID  uint64 // session id (0 = none)
	Hash uint32 // lock-name hash (0 = none)
	Conn int32  // connection id (0 = none)
	Kind Kind
}

// ring is one writer-sharded event buffer. pos counts events ever
// written, so pos%len is the next slot and min(pos, len) the population.
// The trailing pad keeps neighbouring rings' mutexes and cursors off a
// shared cache line.
type ring struct {
	mu  sync.Mutex
	pos uint64
	buf []Event
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
		r.rings[i].buf = make([]Event, perRing)
	}
	return r
}

// Record appends ev to the ring selected by key, overwriting the oldest
// event once the ring is full. ev.TS is stamped here if zero: the manager
// stamps its own events off its clock, the server's get the wall clock.
func (r *Recorder) Record(key uint32, ev Event) {
	if r == nil {
		return
	}
	if ev.TS == 0 {
		ev.TS = time.Now().UnixNano()
	}
	rg := &r.rings[key&r.mask]
	rg.mu.Lock()
	rg.buf[rg.pos%uint64(len(rg.buf))] = ev
	rg.pos++
	rg.mu.Unlock()
}

// Events returns a snapshot of every retained event across all rings,
// oldest first (merged by timestamp). Nil-safe; allocates — dump path
// only.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for i := range r.rings {
		rg := &r.rings[i]
		rg.mu.Lock()
		n := rg.pos
		if n > uint64(len(rg.buf)) {
			n = uint64(len(rg.buf))
		}
		out = append(out, rg.buf[:n]...)
		rg.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// Dump renders the retained events as text, one line per event, oldest
// first — the wire-service analogue of obs.Capture.WriteFlight.
func (r *Recorder) Dump(w io.Writer) {
	evs := r.Events()
	if len(evs) == 0 {
		fmt.Fprintln(w, "(flight recorder empty)")
		return
	}
	t0 := evs[0].TS
	for _, ev := range evs {
		fmt.Fprintf(w, "[%+12.6fs] %-8s conn=%-4d sid=%-6d lock=%08x wait=%s\n",
			float64(ev.TS-t0)/1e9, ev.Kind, ev.Conn, ev.SID, ev.Hash,
			time.Duration(ev.Wait))
	}
}

// Hash is FNV-1a over a lock name, string or bytes alike (a name that
// aliases a parse buffer hashes without a conversion allocation): the
// hash carried in events and kept on lockmgr's table entry, so a
// flight-recorder hash maps back, via the hot-lock table, usually to a
// name.
func Hash[T string | []byte](s T) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}
