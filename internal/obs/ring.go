package obs

import (
	"sort"
	"sync"
	"time"
)

// ring keeps the newest records put into it, at most max of them: it grows
// by append until it holds max, then each record overwrites the oldest.
// n counts records ever put, so n-len(buf) were dropped and the oldest kept
// record sits at slot (n-len(buf)) % len(buf). The simulator's Capture
// lets it grow from empty; the Recorder's rings are sized up front.
type ring struct {
	buf []Record
	n   uint64
	max int
}

func (r *ring) put(rec Record) {
	if len(r.buf) < r.max {
		r.buf = append(r.buf, rec)
	} else {
		r.buf[r.n%uint64(r.max)] = rec
	}
	r.n++
}

// dropped counts the records overwritten so far.
func (r *ring) dropped() uint64 { return r.n - uint64(len(r.buf)) }

// appendTo appends the kept records to dst, oldest first.
func (r *ring) appendTo(dst []Record) []Record {
	if len(r.buf) == 0 {
		return dst
	}
	at := r.dropped() % uint64(len(r.buf))
	return append(append(dst, r.buf[at:]...), r.buf[:at]...)
}

// shard is one of a Recorder's rings behind its own mutex, padded so that
// neighbouring shards share no cache line.
type shard struct {
	mu sync.Mutex
	ring
	_ [80]byte
}

// Recorder is lockd's flight recorder: a fixed-size ring per shard, each
// behind its own mutex. Writers pick a shard by key (the server uses its
// worker index, the manager the lock-name hash), so in steady state each
// shard has one writer and the per-event mutex is uncontended. All methods
// are safe on a nil receiver and do nothing — callers thread a possibly-nil
// *Recorder and pay only a nil check when observability is off.
type Recorder struct {
	mask   uint32
	shards []shard
}

// NewRecorder creates a recorder with shards rings (rounded up to a power
// of two, default 4) of perRing records each (default 256).
func NewRecorder(shards, perRing int) *Recorder {
	if shards <= 0 {
		shards = 4
	}
	for shards&(shards-1) != 0 {
		shards++
	}
	if perRing <= 0 {
		perRing = 256
	}
	r := &Recorder{mask: uint32(shards - 1), shards: make([]shard, shards)}
	for i := range r.shards {
		r.shards[i].ring = ring{buf: make([]Record, 0, perRing), max: perRing}
	}
	return r
}

// Record puts rec in the ring selected by key, overwriting the oldest
// record once the ring is full. rec.At is stamped here (UnixNano) if zero:
// the manager stamps its own records off its clock, the server's get the
// wall clock.
func (r *Recorder) Record(key uint32, rec Record) {
	if r == nil {
		return
	}
	if rec.At == 0 {
		rec.At = uint64(time.Now().UnixNano())
	}
	s := &r.shards[key&r.mask]
	s.mu.Lock()
	s.put(rec)
	s.mu.Unlock()
}

// Events returns a snapshot of every kept record across all shards, oldest
// first: each ring is read from its oldest record, then the shards are
// merged by time, records with equal times keeping the order they were
// recorded in within a shard. Nil-safe; allocates — dump path only.
func (r *Recorder) Events() []Record {
	if r == nil {
		return nil
	}
	var out []Record
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		out = s.appendTo(out)
		s.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Hash is FNV-1a over a lock name, string or bytes alike (a name that
// aliases a parse buffer hashes without a conversion allocation): the
// hash lockd carries in records' Lock and keeps on lockmgr's table entry,
// so a flight-recorder hash maps back, via the hot-lock table, usually to
// a name.
func Hash[T string | []byte](s T) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}
