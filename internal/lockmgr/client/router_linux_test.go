package client_test

import (
	"errors"
	"net"
	"syscall"
	"testing"
	"time"

	"fairrw/internal/lockmgr/client"
	"fairrw/internal/lockmgr/cluster"
	"fairrw/internal/lockmgr/wire"
)

// silentListener returns the address of a loopback socket that never
// completes another TCP handshake: it listens with a backlog of 0 and
// never accepts, and its one queue slot is filled, so the kernel drops
// every further SYN and a dial hangs as it would against a blackholed
// host.
func silentListener(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	a := sa.(*syscall.SockaddrInet4)
	addr := (&net.TCPAddr{IP: net.IP(a.Addr[:]), Port: a.Port}).String()
	for i := 0; i < 8; i++ {
		c, err := net.DialTimeout("tcp", addr, 50*time.Millisecond)
		if err != nil {
			return addr // the queue is full
		}
		t.Cleanup(func() { c.Close() })
	}
	t.Skip("loopback listener kept accepting handshakes; cannot make a silent member")
	return ""
}

// TestRouterDialKeepsItsDeadline: a timed Acquire whose owner never
// completes a handshake ends at its deadline with ErrNoQuorum; the dial
// is bounded by the caller's deadline, not by the 1 s dial timeout.
func TestRouterDialKeepsItsDeadline(t *testing.T) {
	silent := silentListener(t)
	ln := listen(t)
	addr := ln.Addr().String()
	both := wire.Membership{Epoch: 1, Members: []string{addr, silent}}
	serveGated(t, ln, &handoffCluster{first: both, then: both})

	m, err := cluster.NewMap(1, both.Members)
	if err != nil {
		t.Fatal(err)
	}
	name := ""
	for _, cand := range []string{"x", "y", "z", "w", "v", "u", "t", "s"} {
		if m.Owner(cand) == silent {
			name = cand
			break
		}
	}
	if name == "" {
		t.Fatal("no candidate name rendezvous-routes to the silent member")
	}

	r, err := client.NewRouter(client.RouterConfig{Seeds: []string{addr}})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	defer r.Close()
	const wait, bound = 100 * time.Millisecond, 300 * time.Millisecond
	for i := 0; i < 2; i++ {
		start := time.Now()
		err := r.Acquire(name, true, wait)
		if el := time.Since(start); !errors.Is(err, client.ErrNoQuorum) || el > bound {
			t.Fatalf("call %d: %v after %v, want ErrNoQuorum within %v", i, err, el, bound)
		}
	}
}
