package client

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairrw/internal/lockmgr"
	"fairrw/internal/lockmgr/server"
)

// stallProxy forwards TCP to a backend until stall is set; from then on
// it swallows every byte its clients send, on open and new conns alike,
// so the member behind it still accepts connections but never answers.
type stallProxy struct {
	addr  string
	stall atomic.Bool

	mu    sync.Mutex
	conns []net.Conn
}

func startStallProxy(t *testing.T, backend string) *stallProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &stallProxy{addr: ln.Addr().String()}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			b, err := net.Dial("tcp", backend)
			if err != nil {
				c.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, c, b)
			p.mu.Unlock()
			go io.Copy(c, b)
			go p.forward(b, c)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		p.mu.Lock()
		for _, c := range p.conns {
			c.Close()
		}
		p.mu.Unlock()
	})
	return p
}

// forward copies from to dst while the proxy is not stalled, and drops
// what it reads once it is.
func (p *stallProxy) forward(dst, from net.Conn) {
	buf := make([]byte, 4096)
	for {
		n, err := from.Read(buf)
		if err != nil {
			dst.Close()
			return
		}
		if !p.stall.Load() {
			dst.Write(buf[:n])
		}
	}
}

// timed runs f and reports how long it took, failing the test if f has
// not returned by limit (f keeps running; the test does not wait for it).
func timed(t *testing.T, what string, limit time.Duration, f func()) time.Duration {
	t.Helper()
	start := time.Now()
	done := make(chan struct{})
	go func() {
		f()
		close(done)
	}()
	select {
	case <-done:
		return time.Since(start)
	case <-time.After(2 * time.Second):
		t.Fatalf("%s still blocked after 2 s; want it done within %v", what, limit)
		return 0
	}
}

// TestRouterStalledMember: a member that answered and then stopped
// answering (it still accepts, and reads everything) holds no Router
// call without bound. A timed Acquire ends at its deadline plus the
// reply slack, Close ends within the Lease/3 a keepalive in flight is
// given, and NewRouter on a seed that accepts and never answers fails
// within the dial timeout.
func TestRouterStalledMember(t *testing.T) {
	const lease = 600 * time.Millisecond
	const grace = 100 * time.Millisecond // scheduling slack of the bounds below
	srv := server.New(lockmgr.New(lockmgr.Config{}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Shutdown(time.Second) })
	p := startStallProxy(t, ln.Addr().String())

	// The first router issues the stalled acquire; the second only holds
	// a session, so its keepalives are what its Close meets in flight.
	var routers [2]*Router
	for i := range routers {
		r, err := NewRouter(RouterConfig{Seeds: []string{p.addr}, Lease: lease})
		if err != nil {
			t.Fatalf("router %d: %v", i, err)
		}
		if err := r.Acquire("x", true, 0); err != nil {
			t.Fatalf("router %d: acquire while the member answers: %v", i, err)
		}
		if err := r.Release("x", true); err != nil {
			t.Fatalf("router %d: release while the member answers: %v", i, err)
		}
		routers[i] = r
	}
	r := routers[0]
	p.stall.Store(true)

	const wait = 200 * time.Millisecond
	limit := wait + replySlack + grace
	if el := timed(t, "Acquire", limit, func() { err = r.Acquire("y", true, wait) }); !errors.Is(err, ErrNoQuorum) || el > limit {
		t.Fatalf("Acquire on a stalled member: %v after %v, want ErrNoQuorum within %v", err, el, limit)
	}
	// The acquire outlasted a keepalive period: the second router's
	// keepalive is stuck in a read of the stalled member now, as is each
	// one after it.
	limit = lease/3 + grace
	for _, rr := range routers {
		if el := timed(t, "Close", limit, func() { rr.Close() }); el > limit {
			t.Fatalf("Close with a stalled member took %v, want within %v", el, limit)
		}
	}

	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	go func() { // accept, and never answer
		var held []net.Conn
		defer func() {
			for _, c := range held {
				c.Close()
			}
		}()
		for {
			c, err := silent.Accept()
			if err != nil {
				return
			}
			held = append(held, c)
		}
	}()
	limit = dialTimeout + grace
	var rs *Router
	if el := timed(t, "NewRouter", limit, func() { rs, err = NewRouter(RouterConfig{Seeds: []string{silent.Addr().String()}}) }); err == nil || el > limit {
		if rs != nil {
			rs.Close()
		}
		t.Fatalf("NewRouter on a silent seed: %v after %v, want an error within %v", err, el, limit)
	}
}
