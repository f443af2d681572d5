package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// decodeRequest is DecodeRequestRaw with the name copied out, so a
// decoded request compares and re-encodes as a Request.
func decodeRequest(p []byte) (Request, error) {
	var raw RawRequest
	if err := DecodeRequestRaw(p, &raw); err != nil {
		return Request{}, err
	}
	return Request{Op: raw.Op, SID: raw.SID, Lease: raw.Lease, Wait: raw.Wait, Excl: raw.Excl, Name: string(raw.Name)}, nil
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpOpen, Lease: int64(5e9)},
		{Op: OpKeepAlive, SID: 42, Lease: int64(1e9)},
		{Op: OpClose, SID: 42},
		{Op: OpAcquire, SID: 7, Wait: -1, Excl: true, Name: "users/alice"},
		{Op: OpAcquire, SID: 7, Wait: 0, Name: ""},
		{Op: OpAcquire, SID: 7, Wait: int64(250e6), Name: strings.Repeat("k", MaxName)},
		{Op: OpRelease, SID: 7, Excl: false, Name: "users/alice"},
		{Op: OpStats},
		{Op: OpClusterInfo},
	}
	var buf []byte
	for i, req := range reqs {
		frame, err := AppendRequestFrame(buf[:0], &req)
		if err != nil {
			t.Fatalf("req %d: encode: %v", i, err)
		}
		var rbuf []byte
		p, err := ReadFrame(bytes.NewReader(frame), &rbuf)
		if err != nil {
			t.Fatalf("req %d: ReadFrame: %v", i, err)
		}
		got, err := decodeRequest(p)
		if err != nil {
			t.Fatalf("req %d: decode: %v", i, err)
		}
		if got != req {
			t.Fatalf("req %d: round trip %+v -> %+v", i, req, got)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{Status: StatusOK, SID: 99},
		{Status: StatusTimeout},
		{Status: StatusExpired},
		{Status: StatusNotHeld},
		{Status: StatusHeld},
		{Status: StatusErr},
		{Status: StatusOK, Payload: []byte(`{"grants":12}`)},
		{Status: StatusNotOwner, Payload: mustMembership(&Membership{
			Epoch:   3,
			Members: []string{"127.0.0.1:7600", "127.0.0.1:7601"},
		})},
	}
	for i, resp := range resps {
		frame, err := AppendResponseFrame(nil, &resp)
		if err != nil {
			t.Fatalf("resp %d: encode: %v", i, err)
		}
		var rbuf []byte
		p, err := ReadFrame(bytes.NewReader(frame), &rbuf)
		if err != nil {
			t.Fatalf("resp %d: ReadFrame: %v", i, err)
		}
		got, err := DecodeResponse(p)
		if err != nil {
			t.Fatalf("resp %d: decode: %v", i, err)
		}
		if got.Status != resp.Status || got.SID != resp.SID || !bytes.Equal(got.Payload, resp.Payload) {
			t.Fatalf("resp %d: round trip %+v -> %+v", i, resp, got)
		}
	}
}

func TestEncodeRejects(t *testing.T) {
	if _, err := AppendRequestFrame(nil, &Request{Op: OpAcquire, Name: strings.Repeat("x", MaxName+1)}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversized name: %v", err)
	}
	if _, err := AppendRequestFrame(nil, &Request{Op: 0}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("zero op: %v", err)
	}
	if _, err := AppendResponseFrame(nil, &Response{Status: 0}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("zero status: %v", err)
	}
	if _, err := AppendResponseFrame(nil, &Response{Status: StatusOK, Payload: make([]byte, MaxFrame)}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized payload: %v", err)
	}
}

func TestDecodeRejects(t *testing.T) {
	valid, err := AppendRequestFrame(nil, &Request{Op: OpAcquire, SID: 1, Name: "k"})
	if err != nil {
		t.Fatal(err)
	}
	payload := valid[4:]

	cases := []struct {
		name string
		p    []byte
	}{
		{"empty", nil},
		{"truncated header", payload[:reqHeader-1]},
		{"unknown op", append([]byte{0xff}, payload[1:]...)},
		{"bad excl byte", func() []byte {
			p := append([]byte(nil), payload...)
			p[25] = 2
			return p
		}()},
		{"name length beyond payload", func() []byte {
			p := append([]byte(nil), payload...)
			p[26], p[27] = 0x00, 0x09
			return p
		}()},
		{"name length over MaxName", func() []byte {
			p := append([]byte(nil), payload...)
			p[26], p[27] = 0xff, 0xff
			return p
		}()},
		{"trailing garbage", append(append([]byte(nil), payload...), 0)},
	}
	for _, tc := range cases {
		var raw RawRequest
		if err := DecodeRequestRaw(tc.p, &raw); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", tc.name, err)
		}
	}

	if _, err := DecodeResponse([]byte{1, 2, 3}); !errors.Is(err, ErrMalformed) {
		t.Errorf("short response: %v", err)
	}
	if _, err := DecodeResponse([]byte{byte(StatusOK), 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("huge response payload claim: %v", err)
	}
}

// TestDecodeRequestRaw: the server's decoder accepts well-formed
// payloads field for field and rejects each malformed shape.
func TestDecodeRequestRaw(t *testing.T) {
	frame := func(req Request) []byte {
		f, err := AppendRequestFrame(nil, &req)
		if err != nil {
			t.Fatal(err)
		}
		return f[4:]
	}
	corrupt := func(i int, b byte) []byte {
		p := frame(Request{Op: OpOpen})
		p[i] = b
		return p
	}
	accept := []Request{
		{Op: OpOpen, Lease: 5e9},
		{Op: OpAcquire, SID: 7, Wait: 3, Excl: true, Name: "k"},
		{Op: OpStats},
	}
	for _, want := range accept {
		if got, err := decodeRequest(frame(want)); err != nil || got != want {
			t.Fatalf("decoded %+v, %v; want %+v", got, err, want)
		}
	}
	reject := map[string][]byte{
		"short":                  {1, 2, 3},
		"bad op":                 append([]byte{99}, make([]byte, RequestHeaderLen-1)...),
		"bad excl":               corrupt(25, 2),
		"name the payload lacks": corrupt(27, 9),
	}
	for name, p := range reject {
		var raw RawRequest
		if err := DecodeRequestRaw(p, &raw); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
}

func mustMembership(m *Membership) []byte {
	p, err := AppendMembership(nil, m)
	if err != nil {
		panic(err)
	}
	return p
}

func TestMembershipRoundTrip(t *testing.T) {
	members := make([]string, MaxMembers)
	for i := range members {
		members[i] = strings.Repeat("m", MaxMemberAddr)
	}
	cases := []Membership{
		{Epoch: 1, Members: []string{"127.0.0.1:7600"}},
		{Epoch: 9, Members: []string{"a:1", "b:2", "c:3"}},
		{Epoch: 0, Members: nil}, // legal on the wire: an emptied cluster
		{Epoch: 1 << 62, Members: members},
	}
	for i, m := range cases {
		p, err := AppendMembership(nil, &m)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		got, err := DecodeMembership(p)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if got.Epoch != m.Epoch || len(got.Members) != len(m.Members) {
			t.Fatalf("case %d: round trip %+v -> %+v", i, m, got)
		}
		for j := range m.Members {
			if got.Members[j] != m.Members[j] {
				t.Fatalf("case %d member %d: %q != %q", i, j, got.Members[j], m.Members[j])
			}
		}
	}
}

func TestMembershipRejects(t *testing.T) {
	if _, err := AppendMembership(nil, &Membership{Members: make([]string, MaxMembers+1)}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("too many members: %v", err)
	}
	if _, err := AppendMembership(nil, &Membership{Members: []string{""}}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("empty address: %v", err)
	}
	if _, err := AppendMembership(nil, &Membership{Members: []string{strings.Repeat("x", MaxMemberAddr+1)}}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversized address: %v", err)
	}

	valid := mustMembership(&Membership{Epoch: 2, Members: []string{"n1:1", "n2:2"}})
	cases := []struct {
		name string
		p    []byte
	}{
		{"empty", nil},
		{"short header", valid[:9]},
		{"count beyond payload", func() []byte {
			p := append([]byte(nil), valid...)
			p[8], p[9] = 0x00, 0x07
			return p
		}()},
		{"count over MaxMembers", func() []byte {
			p := append([]byte(nil), valid...)
			p[8], p[9] = 0xff, 0xff
			return p
		}()},
		{"zero-length address", func() []byte {
			p := append([]byte(nil), valid...)
			p[10], p[11] = 0, 0
			return p
		}()},
		{"truncated address", valid[:len(valid)-1]},
		{"trailing garbage", append(append([]byte(nil), valid...), 0)},
	}
	for _, tc := range cases {
		if _, err := DecodeMembership(tc.p); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", tc.name, err)
		}
	}
}

func TestReadFrameGuards(t *testing.T) {
	var buf []byte
	// A frame claiming more than MaxFrame must error before allocating.
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(huge), &buf); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized claim: %v", err)
	}
	if cap(buf) > 0 {
		t.Fatalf("oversized claim allocated %d bytes", cap(buf))
	}
	// Zero-length frames are malformed (nothing legal is empty).
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0}), &buf); !errors.Is(err, ErrMalformed) {
		t.Fatalf("zero-length frame: %v", err)
	}
	// A truncated body is an io error, not a hang or panic.
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 9, 1, 2}), &buf); err == nil {
		t.Fatal("truncated body decoded")
	}
	// The buffer is reused across calls: same backing array, no growth.
	frame, err := AppendRequestFrame(nil, &Request{Op: OpStats})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(bytes.NewReader(frame), &buf); err != nil {
		t.Fatal(err)
	}
	c := cap(buf)
	for i := 0; i < 4; i++ {
		if _, err := ReadFrame(bytes.NewReader(frame), &buf); err != nil {
			t.Fatal(err)
		}
	}
	if cap(buf) != c {
		t.Fatalf("buffer regrown: %d -> %d", c, cap(buf))
	}
	// EOF propagates untouched so callers can tell clean close from junk.
	if _, err := ReadFrame(bytes.NewReader(nil), &buf); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
}
