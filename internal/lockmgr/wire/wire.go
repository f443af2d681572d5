// Package wire defines lockd's length-prefixed binary protocol.
//
// Every message travels in one frame:
//
//	uint32 big-endian payload length | payload
//
// A request payload is a fixed 28-byte header followed by the lock name:
//
//	op:1 | sid:8 | lease:8 | wait:8 | excl:1 | nameLen:2 | name:nameLen
//
// A response payload is a fixed 13-byte header followed by an opaque
// payload (stats JSON):
//
//	status:1 | sid:8 | payloadLen:4 | payload
//
// All integers are big-endian. Decoding is strict: unknown ops or
// statuses, non-boolean excl bytes, lengths that disagree with the
// payload size, and frames over MaxFrame are errors — never panics, and
// never an allocation larger than MaxFrame (the fuzz harness pins this).
// Strictness buys a canonical encoding: any payload that decodes
// re-encodes to identical bytes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxFrame bounds a frame payload; ReadFrame rejects larger claims before
// allocating. MaxName bounds lock names (mirrors lockmgr.MaxNameLen).
// RequestHeaderLen is the fixed request-header size, so the largest
// well-formed request payload is MaxRequestPayload — framing layers can
// condemn a stream claiming more without waiting for the bytes.
const (
	MaxFrame          = 1 << 16
	MaxName           = 1024
	RequestHeaderLen  = 1 + 8 + 8 + 8 + 1 + 2
	MaxRequestPayload = RequestHeaderLen + MaxName
)

// Op identifies a request.
type Op uint8

const (
	OpOpen        Op = 1 // register a session; lease = requested lease ns
	OpKeepAlive   Op = 2 // extend sid's lease
	OpClose       Op = 3 // gracefully end sid, releasing all holds
	OpAcquire     Op = 4 // take name; wait ns: 0 try, >0 timed, <0 until lease expiry
	OpRelease     Op = 5 // drop one hold on name
	OpStats       Op = 6 // server counters as JSON payload
	OpClusterInfo Op = 7 // cluster membership (epoch + members) as a Membership payload
)

// Status is a response code.
type Status uint8

const (
	StatusOK       Status = 1
	StatusTimeout  Status = 2 // try/timed acquire did not get the lock
	StatusExpired  Status = 3 // session unknown, lapsed, or revoked
	StatusNotHeld  Status = 4 // release of a lock the session does not hold
	StatusHeld     Status = 5 // exclusive re-acquire by the same session
	StatusErr      Status = 6 // malformed name or unknown op
	StatusNotOwner Status = 7 // this node does not own the name; payload = Membership
)

// Request is one client message.
type Request struct {
	Op    Op
	SID   uint64
	Lease int64 // nanoseconds (OpOpen, OpKeepAlive)
	Wait  int64 // nanoseconds (OpAcquire)
	Excl  bool  // OpAcquire, OpRelease
	Name  string
}

// Response is one server message.
type Response struct {
	Status  Status
	SID     uint64 // OpOpen result
	Payload []byte // OpStats result (aliases the decode buffer)
}

// Decode errors. Both wrap ErrMalformed so callers can test with
// errors.Is regardless of the specific violation.
var (
	ErrMalformed = errors.New("wire: malformed message")
	ErrTooLarge  = errors.New("wire: frame exceeds MaxFrame")
)

const (
	reqHeader  = RequestHeaderLen
	respHeader = 1 + 8 + 4
)

// AppendRequestFrame appends req's complete frame (length prefix
// included) to buf and returns the extended slice. It errors on names the
// protocol cannot carry.
func AppendRequestFrame(buf []byte, req *Request) ([]byte, error) {
	if len(req.Name) > MaxName {
		return buf, fmt.Errorf("%w: name length %d > %d", ErrMalformed, len(req.Name), MaxName)
	}
	if req.Op < OpOpen || req.Op > OpClusterInfo {
		return buf, fmt.Errorf("%w: unknown op %d", ErrMalformed, req.Op)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(reqHeader+len(req.Name)))
	buf = append(buf, byte(req.Op))
	buf = binary.BigEndian.AppendUint64(buf, req.SID)
	buf = binary.BigEndian.AppendUint64(buf, uint64(req.Lease))
	buf = binary.BigEndian.AppendUint64(buf, uint64(req.Wait))
	if req.Excl {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(req.Name)))
	return append(buf, req.Name...), nil
}

// RawRequest is Request with the name still aliasing the decode buffer.
// The event-loop server decodes straight out of per-connection read
// buffers and only materializes a string if an op actually parks, so
// the request hot path performs no allocation at all.
type RawRequest struct {
	Op    Op
	SID   uint64
	Lease int64
	Wait  int64
	Excl  bool
	Name  []byte // aliases the decode buffer; copy to retain
}

// DecodeRequestRaw parses one request payload (the frame's contents,
// without the length prefix) without allocating; req.Name aliases p.
func DecodeRequestRaw(p []byte, req *RawRequest) error {
	if len(p) < reqHeader {
		return fmt.Errorf("%w: request payload %d bytes, need %d", ErrMalformed, len(p), reqHeader)
	}
	op := Op(p[0])
	if op < OpOpen || op > OpClusterInfo {
		return fmt.Errorf("%w: unknown op %d", ErrMalformed, op)
	}
	if p[25] > 1 {
		return fmt.Errorf("%w: excl byte %d", ErrMalformed, p[25])
	}
	nameLen := int(binary.BigEndian.Uint16(p[26:28]))
	if nameLen > MaxName {
		return fmt.Errorf("%w: name length %d > %d", ErrMalformed, nameLen, MaxName)
	}
	if len(p) != reqHeader+nameLen {
		return fmt.Errorf("%w: payload %d bytes, header claims %d", ErrMalformed, len(p), reqHeader+nameLen)
	}
	req.Op = op
	req.SID = binary.BigEndian.Uint64(p[1:9])
	req.Lease = int64(binary.BigEndian.Uint64(p[9:17]))
	req.Wait = int64(binary.BigEndian.Uint64(p[17:25]))
	req.Excl = p[25] == 1
	req.Name = p[28:]
	return nil
}

// AppendResponseFrame appends resp's complete frame (length prefix
// included) to buf. Oversized payloads are a programming error on the
// sending side and panic-free truncation would corrupt the stream, so
// they are rejected.
func AppendResponseFrame(buf []byte, resp *Response) ([]byte, error) {
	if resp.Status < StatusOK || resp.Status > StatusNotOwner {
		return buf, fmt.Errorf("%w: unknown status %d", ErrMalformed, resp.Status)
	}
	if len(resp.Payload) > MaxFrame-respHeader {
		return buf, fmt.Errorf("%w: payload %d bytes", ErrTooLarge, len(resp.Payload))
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(respHeader+len(resp.Payload)))
	buf = append(buf, byte(resp.Status))
	buf = binary.BigEndian.AppendUint64(buf, resp.SID)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(resp.Payload)))
	return append(buf, resp.Payload...), nil
}

// DecodeResponse parses one response payload. The returned Payload
// aliases p; callers that keep it past the next read must copy.
func DecodeResponse(p []byte) (Response, error) {
	var resp Response
	if len(p) < respHeader {
		return resp, fmt.Errorf("%w: response payload %d bytes, need %d", ErrMalformed, len(p), respHeader)
	}
	st := Status(p[0])
	if st < StatusOK || st > StatusNotOwner {
		return resp, fmt.Errorf("%w: unknown status %d", ErrMalformed, st)
	}
	plen := int(binary.BigEndian.Uint32(p[9:13]))
	if plen > MaxFrame-respHeader {
		return resp, fmt.Errorf("%w: payload length %d", ErrTooLarge, plen)
	}
	if len(p) != respHeader+plen {
		return resp, fmt.Errorf("%w: payload %d bytes, header claims %d", ErrMalformed, len(p), respHeader+plen)
	}
	resp.Status = st
	resp.SID = binary.BigEndian.Uint64(p[1:9])
	if plen > 0 {
		resp.Payload = p[respHeader:]
	}
	return resp, nil
}

// Membership is the payload of StatusNotOwner responses and OpClusterInfo
// replies: the responding node's view of the cluster at a given epoch.
// Members are listener addresses; the epoch only ever rises (each member
// death bumps it), so routers adopt a membership iff its epoch exceeds
// the cached one.
//
// Encoding: epoch:8 | n:2 | n × (addrLen:2 | addr). Strict like the rest
// of the protocol: member counts over MaxMembers, empty or oversized
// addresses, and trailing bytes are all errors, so decode∘encode is the
// identity here too.
type Membership struct {
	Epoch   uint64
	Members []string
}

// MaxMembers bounds a membership frame; MaxMemberAddr bounds one
// address. 64 × (2+255) + 10 stays far under MaxFrame.
const (
	MaxMembers    = 64
	MaxMemberAddr = 255
)

// AppendMembership appends m's encoding to buf and returns the extended
// slice.
func AppendMembership(buf []byte, m *Membership) ([]byte, error) {
	if len(m.Members) > MaxMembers {
		return buf, fmt.Errorf("%w: %d members > %d", ErrMalformed, len(m.Members), MaxMembers)
	}
	buf = binary.BigEndian.AppendUint64(buf, m.Epoch)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Members)))
	for _, addr := range m.Members {
		if len(addr) == 0 || len(addr) > MaxMemberAddr {
			return buf, fmt.Errorf("%w: member address length %d", ErrMalformed, len(addr))
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(addr)))
		buf = append(buf, addr...)
	}
	return buf, nil
}

// DecodeMembership parses one membership payload.
func DecodeMembership(p []byte) (Membership, error) {
	var m Membership
	if len(p) < 10 {
		return m, fmt.Errorf("%w: membership payload %d bytes, need 10", ErrMalformed, len(p))
	}
	m.Epoch = binary.BigEndian.Uint64(p[0:8])
	n := int(binary.BigEndian.Uint16(p[8:10]))
	if n > MaxMembers {
		return m, fmt.Errorf("%w: %d members > %d", ErrMalformed, n, MaxMembers)
	}
	p = p[10:]
	if n > 0 {
		m.Members = make([]string, 0, n)
	}
	for i := 0; i < n; i++ {
		if len(p) < 2 {
			return Membership{}, fmt.Errorf("%w: truncated member %d", ErrMalformed, i)
		}
		alen := int(binary.BigEndian.Uint16(p[0:2]))
		if alen == 0 || alen > MaxMemberAddr {
			return Membership{}, fmt.Errorf("%w: member %d address length %d", ErrMalformed, i, alen)
		}
		if len(p) < 2+alen {
			return Membership{}, fmt.Errorf("%w: truncated member %d address", ErrMalformed, i)
		}
		m.Members = append(m.Members, string(p[2:2+alen]))
		p = p[2+alen:]
	}
	if len(p) != 0 {
		return Membership{}, fmt.Errorf("%w: %d trailing bytes after membership", ErrMalformed, len(p))
	}
	return m, nil
}

// ReadFrame reads one frame from r into *buf (grown as needed, never past
// MaxFrame) and returns the payload slice. The caller owns *buf across
// calls, so steady-state reads do not allocate: once *buf exists the
// length prefix is read into it too (a local array escapes through the
// io.Reader call, one allocation per frame).
func ReadFrame(r io.Reader, buf *[]byte) ([]byte, error) {
	hdr := *buf
	if cap(hdr) < 4 {
		hdr = make([]byte, 4)
	}
	hdr = hdr[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 {
		return nil, fmt.Errorf("%w: zero-length frame", ErrMalformed)
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: frame claims %d bytes", ErrTooLarge, n)
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	p := (*buf)[:n]
	if _, err := io.ReadFull(r, p); err != nil {
		return nil, err
	}
	return p, nil
}
