package wire

import (
	"bytes"
	"strings"
	"testing"
)

// Fuzz harnesses for the decoders. They double as seed-corpus regression
// tests: `go test` (without -fuzz) runs every f.Add seed plus the files
// under testdata/fuzz, so a decoder regression on a past input fails CI
// even when nobody is fuzzing.

// seedRequests are valid encodings fed to the fuzzer as structure hints.
func seedRequests() [][]byte {
	var out [][]byte
	for _, r := range []Request{
		{Op: OpOpen, Lease: int64(10e9)},
		{Op: OpKeepAlive, SID: 3, Lease: int64(1e9)},
		{Op: OpClose, SID: 3},
		{Op: OpAcquire, SID: 3, Wait: -1, Excl: true, Name: "cache/config"},
		{Op: OpAcquire, SID: 3, Wait: int64(5e6), Name: "a"},
		{Op: OpRelease, SID: 3, Excl: true, Name: "cache/config"},
		{Op: OpStats},
		{Op: OpClusterInfo},
		{Op: OpAcquire, Name: strings.Repeat("n", MaxName)},
	} {
		frame, err := AppendRequestFrame(nil, &r)
		if err != nil {
			panic(err)
		}
		out = append(out, frame[4:]) // payload without length prefix
	}
	return out
}

// FuzzDecodeRequest fuzzes DecodeRequestRaw, the server's decoder:
// malformed request payloads must error — never panic, never
// over-allocate — and every accepted payload must re-encode to exactly
// the same bytes (the encoding is canonical).
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range seedRequests() {
		f.Add(s)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add(bytes.Repeat([]byte{0x41}, reqHeader))
	f.Fuzz(func(t *testing.T, p []byte) {
		req, err := decodeRequest(p)
		if err != nil {
			return
		}
		if len(req.Name) > MaxName {
			t.Fatalf("decoded name of %d bytes", len(req.Name))
		}
		frame, err := AppendRequestFrame(nil, &req)
		if err != nil {
			t.Fatalf("accepted request failed to re-encode: %v", err)
		}
		if !bytes.Equal(frame[4:], p) {
			t.Fatalf("non-canonical encoding:\n in: %x\nout: %x", p, frame[4:])
		}
	})
}

// FuzzDecodeResponse mirrors FuzzDecodeRequest for the response side.
func FuzzDecodeResponse(f *testing.F) {
	notOwner, err := AppendMembership(nil, &Membership{Epoch: 2, Members: []string{"127.0.0.1:7600", "127.0.0.1:7601", "127.0.0.1:7602"}})
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []Response{
		{Status: StatusOK, SID: 9},
		{Status: StatusTimeout},
		{Status: StatusOK, Payload: []byte(`{"shared_grants":1}`)},
		{Status: StatusNotOwner, Payload: notOwner},
	} {
		frame, err := AppendResponseFrame(nil, &r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x01}, respHeader))
	f.Fuzz(func(t *testing.T, p []byte) {
		resp, err := DecodeResponse(p)
		if err != nil {
			return
		}
		if len(resp.Payload) > MaxFrame {
			t.Fatalf("decoded payload of %d bytes", len(resp.Payload))
		}
		frame, err := AppendResponseFrame(nil, &resp)
		if err != nil {
			t.Fatalf("accepted response failed to re-encode: %v", err)
		}
		if !bytes.Equal(frame[4:], p) {
			t.Fatalf("non-canonical encoding:\n in: %x\nout: %x", p, frame[4:])
		}
	})
}

// FuzzDecodeMembership extends the decode∘encode identity to the cluster
// membership payload carried by StatusNotOwner and OpClusterInfo replies.
func FuzzDecodeMembership(f *testing.F) {
	for _, m := range []Membership{
		{Epoch: 1, Members: []string{"127.0.0.1:7600"}},
		{Epoch: 2, Members: []string{"127.0.0.1:7600", "127.0.0.1:7601", "127.0.0.1:7602"}},
		{Epoch: 0},
		{Epoch: 1 << 40, Members: []string{strings.Repeat("a", MaxMemberAddr)}},
	} {
		p, err := AppendMembership(nil, &m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x02}, 12))
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := DecodeMembership(p)
		if err != nil {
			return
		}
		if len(m.Members) > MaxMembers {
			t.Fatalf("decoded %d members", len(m.Members))
		}
		out, err := AppendMembership(nil, &m)
		if err != nil {
			t.Fatalf("accepted membership failed to re-encode: %v", err)
		}
		if !bytes.Equal(out, p) {
			t.Fatalf("non-canonical encoding:\n in: %x\nout: %x", p, out)
		}
	})
}

// FuzzReadFrame feeds arbitrary byte streams to the framer: it must never
// panic and never hand back a payload larger than MaxFrame, no matter
// what length the header claims.
func FuzzReadFrame(f *testing.F) {
	frame, err := AppendRequestFrame(nil, &Request{Op: OpAcquire, SID: 1, Name: "k"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x00})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, stream []byte) {
		var buf []byte
		r := bytes.NewReader(stream)
		for {
			p, err := ReadFrame(r, &buf)
			if err != nil {
				return
			}
			if len(p) == 0 || len(p) > MaxFrame {
				t.Fatalf("ReadFrame returned %d bytes", len(p))
			}
		}
	})
}
