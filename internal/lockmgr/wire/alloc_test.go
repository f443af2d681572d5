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
