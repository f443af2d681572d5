package client

import (
	"net"
	"testing"
	"time"
)

// deadAddr reserves a loopback port and closes it, yielding an address
// that refuses connections.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestDialerBackoff: a dial pointed at a refusing port spends its
// attempts with backoff between them, then reports the dial error.
func TestDialerBackoff(t *testing.T) {
	addr := deadAddr(t)
	t0 := time.Now()
	_, err := dial(addr, 3)
	if err == nil {
		t.Fatal("dial to refusing port succeeded")
	}
	// Two inter-attempt backoffs, each at least half its nominal delay:
	// dialBase/2, then dialBase.
	if elapsed, min := time.Since(t0), dialBase/2+dialBase; elapsed < min {
		t.Errorf("3 attempts took %v, want >= %v of backoff", elapsed, min)
	}
}
