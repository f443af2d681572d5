package introspect

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestNilRecorder: every method must be a no-op on a nil receiver —
// that is the whole "observability off" contract.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Record(0, Event{Kind: EvPark})
	if evs := r.Events(); evs != nil {
		t.Fatalf("nil recorder Events() = %v, want nil", evs)
	}
	var sb strings.Builder
	r.Dump(&sb)
	if !strings.Contains(sb.String(), "empty") {
		t.Fatalf("nil recorder Dump() = %q", sb.String())
	}
}

func TestRecorderRetainsAndOrders(t *testing.T) {
	r := NewRecorder(1, 8)
	for i := 1; i <= 5; i++ {
		r.Record(0, Event{TS: int64(i), Kind: EvGrant, SID: uint64(i)})
	}
	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("len(Events) = %d, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.TS != int64(i+1) || ev.SID != uint64(i+1) {
			t.Fatalf("event %d = %+v, out of order", i, ev)
		}
	}
}

// TestRecorderWrapAround: a full ring overwrites oldest-first and never
// grows.
func TestRecorderWrapAround(t *testing.T) {
	const perRing = 8
	r := NewRecorder(1, perRing)
	for i := 1; i <= 3*perRing; i++ {
		r.Record(0, Event{TS: int64(i), Kind: EvPark})
	}
	evs := r.Events()
	if len(evs) != perRing {
		t.Fatalf("len(Events) = %d, want %d", len(evs), perRing)
	}
	// The survivors are exactly the last perRing events, oldest first.
	for i, ev := range evs {
		want := int64(2*perRing + i + 1)
		if ev.TS != want {
			t.Fatalf("event %d TS = %d, want %d", i, ev.TS, want)
		}
	}
}

// TestRecorderSharding: keys land in key&mask rings; ring count rounds
// up to a power of two.
func TestRecorderSharding(t *testing.T) {
	r := NewRecorder(3, 4) // rounds up to 4 rings
	if got := len(r.rings); got != 4 {
		t.Fatalf("rings = %d, want 4", got)
	}
	// 8 distinct keys across 4 rings: 2 events per ring, none evicted.
	for k := uint32(0); k < 8; k++ {
		r.Record(k, Event{TS: int64(k) + 1, Kind: EvUnpark})
	}
	if evs := r.Events(); len(evs) != 8 {
		t.Fatalf("len(Events) = %d, want 8", len(evs))
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(4, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Record(uint32(g), Event{Kind: EvGrant, SID: uint64(g)})
				if i%100 == 0 {
					r.Events()
				}
			}
		}()
	}
	wg.Wait()
	if evs := r.Events(); len(evs) != 4*64 {
		t.Fatalf("len(Events) = %d, want %d (all rings full)", len(evs), 4*64)
	}
}

func TestDumpFormat(t *testing.T) {
	r := NewRecorder(1, 4)
	r.Record(0, Event{TS: 1000, Kind: EvPark, Conn: 7, SID: 42, Hash: Hash("k"), Wait: 5e6})
	r.Record(0, Event{TS: 2000, Kind: EvGrant, Conn: 7, SID: 42, Hash: Hash("k"), Wait: 1e6})
	var sb strings.Builder
	r.Dump(&sb)
	out := sb.String()
	for _, want := range []string{"PARK", "GRANT", "sid=42", fmt.Sprintf("lock=%08x", Hash("k"))} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestRecordAllocFree(t *testing.T) {
	r := NewRecorder(2, 16)
	ev := Event{TS: 1, Kind: EvGrant, SID: 3, Hash: 4}
	if n := testing.AllocsPerRun(100, func() { r.Record(1, ev) }); n != 0 {
		t.Fatalf("Record allocates %v/op, want 0", n)
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

func TestPromWriter(t *testing.T) {
	var sb strings.Builder
	pw := &PromWriter{W: &sb}
	pw.Counter("x_total", "", 3)
	pw.Counter("x_total", `worker="1"`, 4) // same family: one TYPE header
	pw.Gauge("g", `name="a\"b"`, 1.5)
	out := sb.String()
	if strings.Count(out, "# TYPE x_total counter") != 1 {
		t.Fatalf("TYPE header not deduped:\n%s", out)
	}
	for _, want := range []string{
		"x_total 3\n", `x_total{worker="1"} 4`, "# TYPE g gauge", `g{name="a\"b"} 1.5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestEscapeLabel(t *testing.T) {
	got := EscapeLabel("a\"b\\c\nd")
	want := `a\"b\\c\nd`
	if got != want {
		t.Fatalf("EscapeLabel = %q, want %q", got, want)
	}
}
