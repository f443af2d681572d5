package obs

import (
	"fmt"
	"testing"
	"unsafe"
)

func ats(recs []Record) string {
	var at []uint64
	for _, r := range recs {
		at = append(at, r.At)
	}
	return fmt.Sprint(at)
}

// TestRingOrderAfterWrap: once full, each put overwrites the oldest record,
// and the ring reads back oldest first from wherever its cursor stands.
func TestRingOrderAfterWrap(t *testing.T) {
	r := ring{max: 4}
	for i := 1; i <= 10; i++ {
		r.put(Record{At: uint64(i)})
		want := fmt.Sprint(seq(max(1, i-3), i))
		if got := ats(r.appendTo(nil)); got != want {
			t.Fatalf("after %d puts records %s, want %s", i, got, want)
		}
		if got := ats(r.appendTo([]Record{{At: 99}})); got != "[99 "+want[1:] {
			t.Fatalf("after %d puts appendTo %s, want 99 then %s", i, got, want)
		}
	}
}

func seq(lo, hi int) []uint64 {
	var s []uint64
	for i := lo; i <= hi; i++ {
		s = append(s, uint64(i))
	}
	return s
}

// TestRingDropped: every put past the cap drops exactly one record.
func TestRingDropped(t *testing.T) {
	r := ring{max: 3}
	for i := 0; i < 3; i++ {
		r.put(Record{})
	}
	if d := r.dropped(); d != 0 {
		t.Fatalf("full ring dropped %d, want 0", d)
	}
	for i := 1; i <= 7; i++ {
		r.put(Record{})
		if d := r.dropped(); d != uint64(i) {
			t.Fatalf("%d puts past the cap dropped %d", i, d)
		}
	}
}

// TestRingGrowsLazily: an unsized ring (the simulator's) allocates as it
// fills and never past its cap; a pre-sized one (the recorder's) never
// allocates; an empty ring reads as no records.
func TestRingGrowsLazily(t *testing.T) {
	r := ring{max: 1000}
	if len(r.appendTo(nil)) != 0 || cap(r.buf) != 0 {
		t.Fatal("an empty ring holds storage")
	}
	for i := 0; i < 10; i++ {
		r.put(Record{})
	}
	if c := cap(r.buf); c < 10 || c >= 1000 {
		t.Fatalf("10 records in a 1000-record ring: capacity %d", c)
	}
	for i := 0; i < 5000; i++ {
		r.put(Record{})
	}
	if len(r.buf) != 1000 {
		t.Fatalf("ring holds %d records, want its cap 1000", len(r.buf))
	}
	sized := ring{buf: make([]Record, 0, 16), max: 16}
	if n := testing.AllocsPerRun(100, func() { sized.put(Record{At: 1}) }); n != 0 {
		t.Fatalf("put into a pre-sized ring allocates %v/op", n)
	}
}

// TestNilRecorder: every method must be a no-op on a nil receiver —
// that is the whole "observability off" contract.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Record(0, Record{Kind: KEnq})
	if recs := r.Events(); recs != nil {
		t.Fatalf("nil recorder Events() = %v, want nil", recs)
	}
}

// TestRecorderSharding: keys land in key&mask shards; the shard count
// rounds up to a power of two, and each shard fills one cache-line pair.
func TestRecorderSharding(t *testing.T) {
	r := NewRecorder(3, 4) // rounds up to 4 shards
	if got := len(r.shards); got != 4 {
		t.Fatalf("shards = %d, want 4", got)
	}
	if sz := unsafe.Sizeof(shard{}); sz != 128 {
		t.Fatalf("shard is %d bytes, want 128", sz)
	}
	// 8 distinct keys across 4 shards: 2 records per shard, none evicted.
	for k := uint32(0); k < 8; k++ {
		r.Record(k, Record{At: uint64(k) + 1, Kind: KGrant})
	}
	if recs := r.Events(); len(recs) != 8 {
		t.Fatalf("len(Events) = %d, want 8", len(recs))
	}
	for i := range r.shards {
		if n := len(r.shards[i].buf); n != 2 {
			t.Fatalf("shard %d holds %d records, want 2", i, n)
		}
	}
}

// TestHashMatchesBytes: the string and byte-slice hashes must agree —
// the server hashes wire names as bytes, the manager as strings, and
// flight-event correlation depends on them colliding on purpose.
func TestHashMatchesBytes(t *testing.T) {
	for _, s := range []string{"", "k", "key-0007", "a longer lock name"} {
		if Hash(s) != Hash([]byte(s)) {
			t.Fatalf("Hash(%q) = %08x, Hash(bytes) = %08x", s, Hash(s), Hash([]byte(s)))
		}
	}
	if Hash("a") == Hash("b") {
		t.Fatal("distinct names hash equal")
	}
}
