package introspect

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"fairrw/internal/obs"
)

// TestNilRecorder: every method must be a no-op on a nil receiver —
// that is the whole "observability off" contract.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Record(0, obs.Record{Kind: obs.KEnq})
	if recs := r.Events(); recs != nil {
		t.Fatalf("nil recorder Events() = %v, want nil", recs)
	}
}

func TestRecorderRetainsAndOrders(t *testing.T) {
	r := NewRecorder(1, 8)
	for i := 1; i <= 5; i++ {
		r.Record(0, obs.Record{At: uint64(i), Kind: obs.KLRTGrant, Tid: uint64(i)})
	}
	recs := r.Events()
	if len(recs) != 5 {
		t.Fatalf("len(Events) = %d, want 5", len(recs))
	}
	for i, rec := range recs {
		if rec.At != uint64(i+1) || rec.Tid != uint64(i+1) {
			t.Fatalf("record %d = %+v, out of order", i, rec)
		}
	}
}

// TestRecorderWrapAround: a full ring overwrites oldest-first and never
// grows.
func TestRecorderWrapAround(t *testing.T) {
	const perRing = 8
	r := NewRecorder(1, perRing)
	for i := 1; i <= 3*perRing; i++ {
		r.Record(0, obs.Record{At: uint64(i), Kind: obs.KEnq})
	}
	recs := r.Events()
	if len(recs) != perRing {
		t.Fatalf("len(Events) = %d, want %d", len(recs), perRing)
	}
	// The survivors are exactly the last perRing records, oldest first.
	for i, rec := range recs {
		want := uint64(2*perRing + i + 1)
		if rec.At != want {
			t.Fatalf("record %d At = %d, want %d", i, rec.At, want)
		}
	}
}

// TestEventsTiesKeepRecordOrder: records with one timestamp come back in
// the order they were recorded, also once the ring has wrapped — as a
// grant and its SLOW report do, which share a time and a ring.
func TestEventsTiesKeepRecordOrder(t *testing.T) {
	r := NewRecorder(1, 4)
	for i := 1; i <= 5; i++ {
		r.Record(0, obs.Record{At: 7, Kind: obs.KLRTGrant, Tid: uint64(i)})
	}
	var got []uint64
	for _, rec := range r.Events() {
		got = append(got, rec.Tid)
	}
	if fmt.Sprint(got) != "[2 3 4 5]" {
		t.Fatalf("Tids %v, want [2 3 4 5]: the oldest surviving record first", got)
	}
}

// TestRecorderSharding: keys land in key&mask rings; ring count rounds
// up to a power of two.
func TestRecorderSharding(t *testing.T) {
	r := NewRecorder(3, 4) // rounds up to 4 rings
	if got := len(r.rings); got != 4 {
		t.Fatalf("rings = %d, want 4", got)
	}
	// 8 distinct keys across 4 rings: 2 records per ring, none evicted.
	for k := uint32(0); k < 8; k++ {
		r.Record(k, obs.Record{At: uint64(k) + 1, Kind: obs.KGrant})
	}
	if recs := r.Events(); len(recs) != 8 {
		t.Fatalf("len(Events) = %d, want 8", len(recs))
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
				r.Record(uint32(g), obs.Record{Kind: obs.KLRTGrant, Tid: uint64(g)})
				if i%100 == 0 {
					r.Events()
				}
			}
		}()
	}
	wg.Wait()
	if recs := r.Events(); len(recs) != 4*64 {
		t.Fatalf("len(Events) = %d, want %d (all rings full)", len(recs), 4*64)
	}
}

// TestFlightRendering: one record of each kind lockd produces, and one
// simulator record, through the one renderer: each line names the kind,
// the track, the actor, the lock and the aux value; times are since t0.
// A nil recorder's (empty) history renders as the empty marker.
func TestFlightRendering(t *testing.T) {
	h := uint64(Hash("k"))
	for _, tc := range []struct {
		rec  obs.Record
		want string
	}{
		{obs.Record{At: 1000, Node: obs.ConnNode(7), Kind: obs.KEnq, Tid: 42, Lock: h, Aux: 5e6},
			fmt.Sprintf("[         0] conn7   ENQ       t42   %#x aux=5000000", h)},
		{obs.Record{At: 1500, Node: obs.LRTNode(0), Kind: obs.KLRTGrant, Tid: 42, Lock: h, Aux: 1e6},
			fmt.Sprintf("[       500] lrt0    LRT_GRANT t42   %#x aux=1000000", h)},
		{obs.Record{At: 1500, Node: obs.LRTNode(0), Kind: obs.KSlow, Tid: 42, Lock: h, Aux: 1e6},
			fmt.Sprintf("[       500] lrt0    SLOW      t42   %#x aux=1000000", h)},
		{obs.Record{At: 2000, Node: obs.ConnNode(7), Kind: obs.KGrant, Tid: 42, Lock: h, Aux: 1e6},
			fmt.Sprintf("[      1000] conn7   GRANT     t42   %#x aux=1000000", h)},
		{obs.Record{At: 3000, Node: obs.LRTNode(0), Kind: obs.KTimeout, Tid: 9, Lock: h, Aux: 2e6},
			fmt.Sprintf("[      2000] lrt0    TIMEOUT   t9    %#x aux=2000000", h)},
		{obs.Record{At: 4000, Node: obs.LRTNode(0), Kind: obs.KCancel, Tid: 9, Lock: h, Aux: 3e6},
			fmt.Sprintf("[      3000] lrt0    CANCEL    t9    %#x aux=3000000", h)},
		{obs.Record{At: 5000, Node: obs.LRTNode(0), Kind: obs.KExpire, Tid: 9, Aux: 2},
			"[      4000] lrt0    EXPIRE    t9    0x0 aux=2"},
		{obs.Record{At: 6000, Node: obs.ConnNode(1234), Kind: obs.KCondemn},
			"[      5000] conn1234 CONDEMN   t0    0x0 aux=0"},
		{obs.Record{At: 7000, Node: obs.ConnNode(8), Kind: obs.KDrain},
			"[      6000] conn8   DRAIN     t0    0x0 aux=0"},
		// A simulator record: an LCU grant at cycle 1 500 (head|fromLRT).
		{obs.Record{At: 1500, Node: obs.CoreNode(3), Kind: obs.KGrant, Tid: 5, Lock: 0x80, Aux: 5},
			"[       500] core3   GRANT     t5    0x80 aux=5"},
	} {
		var sb strings.Builder
		obs.WriteRecords(&sb, []obs.Record{tc.rec}, 1000)
		if got := strings.TrimSuffix(sb.String(), "\n"); got != tc.want {
			t.Errorf("%v renders\n%q, want\n%q", tc.rec.Kind, got, tc.want)
		}
	}
	var r *Recorder
	var sb strings.Builder
	obs.WriteRecords(&sb, r.Events(), 0)
	if sb.String() != "(flight recorder empty)\n" {
		t.Fatalf("nil recorder renders %q, want the empty marker", sb.String())
	}
}

func TestRecordAllocFree(t *testing.T) {
	r := NewRecorder(2, 16)
	rec := obs.Record{At: 1, Kind: obs.KLRTGrant, Tid: 3, Lock: 4}
	if n := testing.AllocsPerRun(100, func() { r.Record(1, rec) }); n != 0 {
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
