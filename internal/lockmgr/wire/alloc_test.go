package wire

import (
	"testing"
)

// TestEncodeDecodeSteadyStateAllocs pins the hot path at zero
// allocations: the server's per-request cycle is DecodeRequestRaw into a
// reused RawRequest, then AppendResponseFrame into a caller-owned
// buffer. Any allocation here multiplies by every request the server
// ever handles, so a regression is a test failure, not a benchmark
// footnote.
func TestEncodeDecodeSteadyStateAllocs(t *testing.T) {
	reqFrame, err := AppendRequestFrame(nil, &Request{
		Op: OpAcquire, SID: 42, Wait: -1, Excl: true, Name: "alloc-guard",
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := reqFrame[4:]
	var raw RawRequest
	resp := Response{Status: StatusOK, SID: 42}
	wbuf := make([]byte, 0, 256)

	allocs := testing.AllocsPerRun(200, func() {
		if err := DecodeRequestRaw(payload, &raw); err != nil {
			t.Fatal(err)
		}
		var err error
		wbuf, err = AppendResponseFrame(wbuf[:0], &resp)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("decode+encode steady state allocs = %.1f, want 0", allocs)
	}
}

// TestBufferPoolReuse: GetBuffer hands back recycled backing arrays and
// drops oversized ones instead of pinning them in the pool.
func TestBufferPoolReuse(t *testing.T) {
	b := GetBuffer()
	if len(b.B) != 0 {
		t.Fatalf("pooled buffer not reset: len %d", len(b.B))
	}
	b.B = append(b.B, make([]byte, MaxFrame+1)...)
	b.Free() // oversized: must be dropped
	c := GetBuffer()
	if cap(c.B) > MaxFrame {
		t.Fatalf("oversized buffer returned to pool: cap %d", cap(c.B))
	}
	c.Free()
}

// TestBufferRetainBound sweeps Free across capacities straddling
// MaxRetain: no sequence of frees may ever let a later GetBuffer hand
// back a backing array larger than the bound. This is the memory-ceiling
// contract — a response burst can grow a chunk to megabytes, and
// retaining such one-off giants would pin their memory in the pool for
// the life of the process.
func TestBufferRetainBound(t *testing.T) {
	for _, extra := range []int{-1, 0, 1, MaxRetain} {
		b := GetBuffer()
		b.B = append(b.B, make([]byte, MaxRetain+extra)...)
		b.Free()
	}
	for i := 0; i < 64; i++ {
		b := GetBuffer()
		if cap(b.B) > MaxRetain {
			t.Fatalf("GetBuffer returned cap %d > MaxRetain %d", cap(b.B), MaxRetain)
		}
		b.Free()
	}
}

// TestBufferPoolSteadyStateAllocs pins the pooled get→grow→free cycle
// at zero allocations for chunks within the retain bound — the server
// does this once per coalesced response chunk it has to queue, so a miss
// here is a per-flush allocation.
func TestBufferPoolSteadyStateAllocs(t *testing.T) {
	var chunk [512]byte
	// Warm the per-P pool slot.
	for i := 0; i < 8; i++ {
		b := GetBuffer()
		b.B = append(b.B, chunk[:]...)
		b.Free()
	}
	allocs := testing.AllocsPerRun(200, func() {
		b := GetBuffer()
		b.B = append(b.B, chunk[:]...)
		b.Free()
	})
	if allocs != 0 {
		t.Fatalf("pooled buffer cycle allocs = %.1f, want 0", allocs)
	}
}

// BenchmarkDecodeRequestRaw measures the zero-copy request decode.
func BenchmarkDecodeRequestRaw(b *testing.B) {
	f, _ := AppendRequestFrame(nil, &Request{
		Op: OpAcquire, SID: 42, Wait: -1, Excl: true, Name: "bench-key",
	})
	p := f[4:]
	var raw RawRequest
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DecodeRequestRaw(p, &raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendResponseFrame measures response encoding into a reused
// buffer.
func BenchmarkAppendResponseFrame(b *testing.B) {
	resp := Response{Status: StatusOK, SID: 42}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendResponseFrame(buf[:0], &resp)
		if err != nil {
			b.Fatal(err)
		}
	}
}
