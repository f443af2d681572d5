// Package client is the synchronous Go client for lockd's wire protocol.
// A Conn issues one request at a time over one TCP connection and reuses
// its buffers, so the steady-state cost of an operation is one write, one
// read, and zero allocations. Acquire/release traffic can additionally be
// pipelined (QueueAcquire/QueueRelease/Flush): several requests go out in
// one write and the server coalesces the responses into one segment,
// which matters when the syscall, not the lock, is the bottleneck. A Conn
// is not safe for concurrent use: give each goroutine its own (sessions
// are independent of connections, so a keepalive for a session blocked on
// another Conn can ride any Conn).
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"fairrw/internal/lockmgr"
	"fairrw/internal/lockmgr/wire"
)

// ErrClientClosed is returned by every operation on a closed Conn,
// including Flush of requests that were queued before Close. It is
// deliberately distinct from the transport's write-on-closed-socket
// error: callers racing a shutdown path against an in-flight pipeline
// can test for it with errors.Is instead of parsing net.OpError.
var ErrClientClosed = errors.New("lockd client: connection closed")

// Cluster errors. ErrNotOwner means the node addressed does not own the
// name under its current membership; the response carried that
// membership and Conn.Membership exposes it, so a router can re-aim.
// ErrNoQuorum means an operation ran out of routing attempts — every
// candidate owner was unreachable or denied ownership, which is what a
// client sees from outside a partitioned or mid-failover cluster.
var (
	ErrNotOwner = errors.New("lockd client: node does not own this lock name")
	ErrNoQuorum = errors.New("lockd client: no reachable owner for this lock name")
)

// Conn is one client connection to a lockd server.
type Conn struct {
	nc      net.Conn
	br      *bufio.Reader
	rbuf    []byte
	wbuf    []byte
	pending int
	closed  bool
	resp    wire.Response // exchange's last response; its Payload aliases rbuf
	out     [1]error      // a one-frame exchange's outcome

	// Last membership seen in a NotOwner response or ClusterInfo reply.
	member    wire.Membership
	hasMember bool
}

// Dial connects to a lockd server at addr (host:port), making up to four
// connect attempts with capped jittered backoff between them.
func Dial(addr string) (*Conn, error) {
	return dial(addr, 4)
}

// Close closes the connection. Sessions opened on it live on until their
// leases lapse (or CloseSession is called from another connection).
// Requests queued but not flushed are discarded; a later Flush reports
// ErrClientClosed rather than silently dropping them.
func (c *Conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.nc.Close()
}

// Armed sets the socket deadline of c's exchanges to by, or to none if
// by is zero, and returns c. Conn's other methods set no deadline, so the
// plain client path issues the same syscalls as ever; a caller that must
// not wait on a silent peer without bound (the Router, a cluster
// heartbeat) arms one before every exchange. A deadline that fires fails
// the exchange, and the conn is unusable after it.
func (c *Conn) Armed(by time.Time) *Conn {
	_ = c.nc.SetDeadline(by) // fails only on a closed conn, and so does the exchange after it
	return c
}

// roundTrip is the exchange of one frame: it sends req and returns its
// response, with the outcome the response's status maps to.
func (c *Conn) roundTrip(req *wire.Request) (wire.Response, error) {
	if c.closed {
		return wire.Response{}, ErrClientClosed
	}
	if c.pending != 0 {
		return wire.Response{}, errors.New("lockd client: Flush queued requests before a synchronous call")
	}
	var err error
	if c.wbuf, err = wire.AppendRequestFrame(c.wbuf[:0], req); err != nil {
		return wire.Response{}, err
	}
	out, err := c.exchange(1, c.out[:0])
	if err != nil {
		return wire.Response{}, err
	}
	return c.resp, out[0]
}

// exchange is the one request path: it writes the n frames in wbuf in one
// write, then reads their n responses in order, appending each one's
// outcome to errs. The second result is a transport error; after one the
// connection is unusable.
func (c *Conn) exchange(n int, errs []error) ([]error, error) {
	_, err := c.nc.Write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	if err != nil {
		return errs, err
	}
	for ; n > 0; n-- {
		p, err := wire.ReadFrame(c.br, &c.rbuf)
		if err == nil {
			c.resp, err = wire.DecodeResponse(p)
		}
		if err != nil {
			return errs, err
		}
		c.noteMembership(&c.resp)
		errs = append(errs, statusErr(c.resp.Status))
	}
	return errs, nil
}

// noteMembership captures the membership payload a NotOwner response
// carries, so the caller can re-aim without an extra round trip.
func (c *Conn) noteMembership(resp *wire.Response) {
	if resp.Status != wire.StatusNotOwner || len(resp.Payload) == 0 {
		return
	}
	if m, err := wire.DecodeMembership(resp.Payload); err == nil {
		c.member = m // strings are copies; safe past the next read
		c.hasMember = true
	}
}

// Membership returns the most recent cluster membership this connection
// has seen (from a NotOwner response or a ClusterInfo call), and whether
// one has been seen at all.
func (c *Conn) Membership() (wire.Membership, bool) {
	return c.member, c.hasMember
}

// statusErr maps a response status to the manager's sentinel errors, so
// remote and in-process callers handle failures identically.
func statusErr(st wire.Status) error {
	switch st {
	case wire.StatusOK:
		return nil
	case wire.StatusTimeout:
		return lockmgr.ErrTimeout
	case wire.StatusExpired:
		return lockmgr.ErrExpired
	case wire.StatusNotHeld:
		return lockmgr.ErrNotHeld
	case wire.StatusHeld:
		return lockmgr.ErrHeld
	case wire.StatusNotOwner:
		return ErrNotOwner
	default:
		return fmt.Errorf("lockd: request rejected (status %d)", st)
	}
}

// Open registers a session with the given lease and returns its id.
func (c *Conn) Open(lease time.Duration) (uint64, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpOpen, Lease: int64(lease)})
	if err != nil {
		return 0, err
	}
	return resp.SID, nil
}

// KeepAlive extends sid's lease to now+lease on the server.
func (c *Conn) KeepAlive(sid uint64, lease time.Duration) error {
	_, err := c.roundTrip(&wire.Request{Op: wire.OpKeepAlive, SID: sid, Lease: int64(lease)})
	return err
}

// CloseSession gracefully ends sid, releasing its holds.
func (c *Conn) CloseSession(sid uint64) error {
	_, err := c.roundTrip(&wire.Request{Op: wire.OpClose, SID: sid})
	return err
}

// Acquire takes name for sid. wait follows lockmgr.Acquire: 0 try, >0
// timed, <0 wait until granted or the lease lapses.
func (c *Conn) Acquire(sid uint64, name string, excl bool, wait time.Duration) error {
	_, err := c.roundTrip(&wire.Request{
		Op: wire.OpAcquire, SID: sid, Wait: int64(wait), Excl: excl, Name: name,
	})
	return err
}

// Release drops one hold of sid on name.
func (c *Conn) Release(sid uint64, name string, excl bool) error {
	_, err := c.roundTrip(&wire.Request{
		Op: wire.OpRelease, SID: sid, Excl: excl, Name: name,
	})
	return err
}

// QueueAcquire appends an acquire request to the connection's write
// buffer without sending it; Flush sends every queued request in one
// write. wait follows lockmgr.Acquire.
func (c *Conn) QueueAcquire(sid uint64, name string, excl bool, wait time.Duration) error {
	return c.queue(&wire.Request{
		Op: wire.OpAcquire, SID: sid, Wait: int64(wait), Excl: excl, Name: name,
	})
}

// QueueRelease appends a release request to the connection's write buffer
// without sending it.
func (c *Conn) QueueRelease(sid uint64, name string, excl bool) error {
	return c.queue(&wire.Request{Op: wire.OpRelease, SID: sid, Excl: excl, Name: name})
}

func (c *Conn) queue(req *wire.Request) error {
	if c.closed {
		return ErrClientClosed
	}
	if c.pending == 0 {
		// wbuf still holds the previous already-written request; a new
		// batch starts clean.
		c.wbuf = c.wbuf[:0]
	}
	var err error
	c.wbuf, err = wire.AppendRequestFrame(c.wbuf, req)
	if err != nil {
		return err
	}
	c.pending++
	return nil
}

// Flush sends every queued request in one write and reads their responses
// in order, appending each request's outcome to errs (nil for a grant or
// a clean release). The second result is a transport error; after one the
// connection is unusable. The server executes pipelined requests strictly
// in order and coalesces their responses into a single write, so a
// release+acquire pair costs one syscall each way on each side instead of
// two.
func (c *Conn) Flush(errs []error) ([]error, error) {
	if c.closed {
		c.pending = 0
		return errs, ErrClientClosed
	}
	n := c.pending
	c.pending = 0
	if n == 0 {
		return errs, nil
	}
	return c.exchange(n, errs)
}

// ClusterInfo fetches the server's current cluster membership. On a
// non-clustered server the membership is empty with epoch 0.
func (c *Conn) ClusterInfo() (wire.Membership, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpClusterInfo})
	if err != nil {
		return wire.Membership{}, err
	}
	if len(resp.Payload) == 0 {
		return wire.Membership{}, nil
	}
	m, err := wire.DecodeMembership(resp.Payload)
	if err != nil {
		return wire.Membership{}, err
	}
	c.member, c.hasMember = m, true
	return m, nil
}

// Stats fetches the server's metrics snapshot as JSON.
func (c *Conn) Stats() ([]byte, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpStats})
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), resp.Payload...), nil
}
