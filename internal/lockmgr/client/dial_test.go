package client

import (
	"context"
	"errors"
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
// attempts with backoff between them, then reports the dial error —
// and a cancelled context cuts the wait short.
func TestDialerBackoff(t *testing.T) {
	addr := deadAddr(t)
	t0 := time.Now()
	_, err := dial(context.Background(), addr, 3)
	if err == nil {
		t.Fatal("dial to refusing port succeeded")
	}
	// Two inter-attempt backoffs, each at least half its nominal delay:
	// dialBase/2, then dialBase.
	if elapsed, min := time.Since(t0), dialBase/2+dialBase; elapsed < min {
		t.Errorf("3 attempts took %v, want >= %v of backoff", elapsed, min)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	t0 = time.Now()
	_, err = dial(ctx, addr, 1000)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled dial: %v, want context.Canceled", err)
	}
	if elapsed := time.Since(t0); elapsed > time.Second {
		t.Errorf("cancelled dial returned after %v, want promptly", elapsed)
	}
}
