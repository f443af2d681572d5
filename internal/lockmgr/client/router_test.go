package client_test

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"fairrw/internal/lockmgr"
	"fairrw/internal/lockmgr/client"
	"fairrw/internal/lockmgr/cluster"
	"fairrw/internal/lockmgr/server"
	"fairrw/internal/lockmgr/wire"
)

// TestRouterSingleNode: a Router seeded with a plain, non-clustered
// lockd treats it as a cluster of one — every op routes there, and
// definitive outcomes (grants, timeouts) come back typed.
func TestRouterSingleNode(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()

	r, err := client.NewRouter(client.RouterConfig{Seeds: []string{addr}})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	defer r.Close()
	if got := r.Members(); len(got) != 1 || got[0] != addr {
		t.Fatalf("members %v, want [%s]", got, addr)
	}
	if got := r.Owner("anything"); got != addr {
		t.Fatalf("owner %s, want %s", got, addr)
	}
	if err := r.Acquire("k", true, 0); err != nil {
		t.Fatalf("acquire: %v", err)
	}

	// A second router contending for the same lock times out — the
	// definitive outcome must surface, not be retried into ErrNoQuorum.
	r2, err := client.NewRouter(client.RouterConfig{Seeds: []string{addr}})
	if err != nil {
		t.Fatalf("router 2: %v", err)
	}
	defer r2.Close()
	if err := r2.Acquire("k", true, 20*time.Millisecond); !errors.Is(err, lockmgr.ErrTimeout) {
		t.Fatalf("contended acquire: %v, want ErrTimeout", err)
	}
	if err := r2.Release("k", true); !errors.Is(err, lockmgr.ErrNotHeld) {
		t.Fatalf("release of unheld: %v, want ErrNotHeld", err)
	}
	if err := r.Release("k", true); err != nil {
		t.Fatalf("release: %v", err)
	}
}

// handoffCluster makes a server answer its first membership request
// (the Router's bootstrap) with an old two-member map, then NotOwner
// everything while publishing a newer one-member map — forcing the
// Router down its adopt-and-re-aim path.
type handoffCluster struct {
	calls       atomic.Int32
	first, then wire.Membership
}

func (h *handoffCluster) GateOp(name []byte, acquire bool) bool { return false }

// Not isolated: sessions must still open so the NotOwner answers come
// from ownership, not fencing.
func (h *handoffCluster) Isolated() bool { return false }

func (h *handoffCluster) AppendMembership(buf []byte) []byte {
	wm := &h.then
	if h.calls.Add(1) == 1 {
		wm = &h.first
	}
	out, err := wire.AppendMembership(buf, wm)
	if err != nil {
		panic(err)
	}
	return out
}

func (h *handoffCluster) Epoch() uint64               { return h.then.Epoch }
func (h *handoffCluster) MemberCount() int            { return len(h.then.Members) }
func (h *handoffCluster) StatusJSON() ([]byte, error) { return []byte("{}"), nil }

// serveGated runs a server on ln whose Cluster gate is h, until the
// test ends.
func serveGated(t *testing.T, ln net.Listener, h *handoffCluster) {
	t.Helper()
	srv := server.NewWithConfig(lockmgr.New(lockmgr.Config{}), server.Config{Workers: 1, Cluster: h})
	done := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(done)
	}()
	t.Cleanup(func() {
		srv.Shutdown(2 * time.Second)
		<-done
	})
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// TestRouterReaimsOnNotOwner: an op aimed at a member that answers
// NotOwner adopts the attached (newer) membership and lands the op on
// the node it names, without exhausting retries.
func TestRouterReaimsOnNotOwner(t *testing.T) {
	// B is a plain server that accepts everything.
	addrB, shutdownB := startServer(t)
	defer shutdownB()

	// A bootstraps the Router into an {A,B} map, then NotOwners every
	// op while pointing at the epoch-2 {B} map.
	lnA := listen(t)
	addrA := lnA.Addr().String()
	serveGated(t, lnA, &handoffCluster{
		first: wire.Membership{Epoch: 1, Members: []string{addrA, addrB}},
		then:  wire.Membership{Epoch: 2, Members: []string{addrB}},
	})

	// Pick a name the bootstrap map routes to A, so the first attempt
	// hits the NotOwner path.
	bootMap, err := cluster.NewMap(1, []string{addrA, addrB})
	if err != nil {
		t.Fatal(err)
	}
	name := ""
	for _, cand := range []string{"x", "y", "z", "w", "v", "u", "t", "s"} {
		if bootMap.Owner(cand) == addrA {
			name = cand
			break
		}
	}
	if name == "" {
		t.Fatal("no candidate name rendezvous-routes to A")
	}

	r, err := client.NewRouter(client.RouterConfig{Seeds: []string{addrA}})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	defer r.Close()
	if e := r.Epoch(); e != 1 {
		t.Fatalf("bootstrap epoch %d, want 1", e)
	}

	if err := r.Acquire(name, true, 0); err != nil {
		t.Fatalf("acquire across handoff: %v", err)
	}
	if err := r.Release(name, true); err != nil {
		t.Fatalf("release: %v", err)
	}
	if e := r.Epoch(); e != 2 {
		t.Errorf("post-handoff epoch %d, want 2", e)
	}
	if got := r.Owner(name); got != addrB {
		t.Errorf("post-handoff owner %s, want %s", got, addrB)
	}
}

// TestRouterAcquireKeepsItsDeadline: against a member that answers
// every op NotOwner while naming itself the only owner, no re-aim can
// succeed. A timed Acquire must still end at its deadline with
// ErrNoQuorum, not after the whole re-aim budget (about 1.6 s).
func TestRouterAcquireKeepsItsDeadline(t *testing.T) {
	ln := listen(t)
	addr := ln.Addr().String()
	self := wire.Membership{Epoch: 1, Members: []string{addr}}
	serveGated(t, ln, &handoffCluster{first: self, then: self})

	r, err := client.NewRouter(client.RouterConfig{Seeds: []string{addr}})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	defer r.Close()
	const wait, bound = 100 * time.Millisecond, 300 * time.Millisecond
	for i := 0; i < 3; i++ {
		start := time.Now()
		err := r.Acquire("k", true, wait)
		if el := time.Since(start); !errors.Is(err, client.ErrNoQuorum) || el > bound {
			t.Fatalf("call %d: %v after %v, want ErrNoQuorum within %v", i, err, el, bound)
		}
	}
}
