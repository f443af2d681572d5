// Integration tests for the distributed lockmgr cluster: three real
// lockd servers (manager + event-loop server + cluster node) on
// loopback TCP, driven by real clients and Routers. An external test
// package: it reaches the cluster only through what cmd/lockd and the
// clients use.
package cluster_test

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairrw/internal/lockmgr"
	"fairrw/internal/lockmgr/client"
	"fairrw/internal/lockmgr/cluster"
	"fairrw/internal/lockmgr/server"
)

// testCluster is an in-process N-node cluster. Listeners are created
// before any node starts so every member address is known up front —
// the same order-of-operations cmd/lockd uses.
type testCluster struct {
	t      *testing.T
	addrs  []string
	mgrs   []*lockmgr.Manager
	nodes  []*cluster.Node
	srvs   []*server.Server
	done   []chan struct{}
	killed []bool
}

// startCluster boots n members. fw is the managers' MaxLease, which is
// also the failover window: every lease the dead node granted has lapsed
// once it passes.
func startCluster(t *testing.T, n int, fw time.Duration) *testCluster {
	t.Helper()
	return startClusterVia(t, n, fw, nil)
}

// startClusterVia is startCluster with member 0 known to every member,
// itself included, by the address front returns for its listener's
// (a proxy in front of it); nil front is startCluster.
func startClusterVia(t *testing.T, n int, fw time.Duration, front func(backend string) string) *testCluster {
	t.Helper()
	tc := &testCluster{t: t}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addr := ln.Addr().String()
		if i == 0 && front != nil {
			addr = front(addr)
		}
		tc.addrs = append(tc.addrs, addr)
	}
	for i := range lns {
		m := lockmgr.New(lockmgr.Config{MaxLease: fw})
		node, err := cluster.NewNode(cluster.Config{
			Self:    tc.addrs[i],
			Members: tc.addrs,
			Manager: m,
			Logf:    t.Logf,
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		srv := server.NewWithConfig(m, server.Config{Workers: 2, Cluster: node})
		done := make(chan struct{})
		go func(ln net.Listener) {
			srv.Serve(ln)
			close(done)
		}(lns[i])
		node.Start()
		tc.mgrs = append(tc.mgrs, m)
		tc.nodes = append(tc.nodes, node)
		tc.srvs = append(tc.srvs, srv)
		tc.done = append(tc.done, done)
		tc.killed = append(tc.killed, false)
	}
	t.Cleanup(tc.stopAll)
	return tc
}

// kill takes member i down hard: its heartbeats stop and its listener
// and connections close, so peers see pure transport failures — the
// in-process stand-in for SIGKILL.
func (tc *testCluster) kill(i int) {
	tc.killed[i] = true
	tc.nodes[i].Stop()
	tc.srvs[i].Shutdown(0)
	<-tc.done[i]
}

func (tc *testCluster) stopAll() {
	for i := range tc.nodes {
		if tc.killed[i] {
			continue
		}
		tc.killed[i] = true
		tc.nodes[i].Stop() // before Shutdown: no heartbeat may t.Logf after the test returns
		tc.srvs[i].Shutdown(2 * time.Second)
		<-tc.done[i]
	}
}

// awaitHealthy blocks until every live member has heard from every
// peer at least once. Until then the boot grace (correctly) forgives missed
// heartbeats, so killing a member straight out of boot would not be
// detected — the steady state is the precondition for meaningful
// failure-detection timing.
func (tc *testCluster) awaitHealthy() {
	tc.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		healthy := true
		for i, n := range tc.nodes {
			if tc.killed[i] {
				continue
			}
			for _, p := range n.Status().Peers {
				if p.LastAckMS < 0 {
					healthy = false
				}
			}
		}
		if healthy {
			return
		}
		if time.Now().After(deadline) {
			tc.t.Fatal("cluster never became healthy: some peer never acked a heartbeat")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// dialSession opens a conn+session on member i.
func (tc *testCluster) dialSession(i int, lease time.Duration) (*client.Conn, uint64) {
	tc.t.Helper()
	c, err := client.Dial(tc.addrs[i])
	if err != nil {
		tc.t.Fatalf("dial %s: %v", tc.addrs[i], err)
	}
	sid, err := c.Open(lease)
	if err != nil {
		tc.t.Fatalf("open on %s: %v", tc.addrs[i], err)
	}
	return c, sid
}

// TestHeartbeatFollowsMaxLease pins the derived heartbeat: MaxLease/20
// clamped to [50ms, 250ms], so lockd's default 1m cap beats every 250ms
// and a 2s cap every 100ms.
func TestHeartbeatFollowsMaxLease(t *testing.T) {
	for _, tc := range []struct {
		maxLease, want time.Duration
	}{
		{time.Second, 50 * time.Millisecond},
		{2 * time.Second, 100 * time.Millisecond},
		{time.Minute, 250 * time.Millisecond},
	} {
		m := lockmgr.New(lockmgr.Config{MaxLease: tc.maxLease})
		node, err := cluster.NewNode(cluster.Config{
			Self:    "a:1",
			Members: []string{"a:1", "b:1", "c:1"},
			Manager: m,
		})
		m.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := node.Interval(); got != tc.want {
			t.Errorf("MaxLease %v: heartbeat %v, want %v", tc.maxLease, got, tc.want)
		}
	}
}

// TestClusterRouting asserts the ownership contract over the wire: for
// every name, exactly the rendezvous owner executes ops, every other
// member answers NotOwner carrying the membership, and all members
// agree on who the owner is.
func TestClusterRouting(t *testing.T) {
	tc := startCluster(t, 3, 2*time.Second)

	conns := make([]*client.Conn, 3)
	sids := make([]uint64, 3)
	for i := range conns {
		conns[i], sids[i] = tc.dialSession(i, 2*time.Second)
		defer conns[i].Close()
	}

	names := []string{
		"key-0000", "key-0001", "key-0002", "key-0003",
		"key-0004", "key-0005", "key-0006", "key-0007",
		"orders/1234", "a", "zz-top", "the-quick-brown-fox",
	}
	ownersSeen := map[string]bool{}
	for _, name := range names {
		want := tc.nodes[0].Current().Owner(name)
		for i := 1; i < 3; i++ {
			if got := tc.nodes[i].Current().Owner(name); got != want {
				t.Fatalf("owner(%q): node %d says %s, node 0 says %s", name, i, got, want)
			}
		}
		ownersSeen[want] = true
		for i := range conns {
			err := conns[i].Acquire(sids[i], name, true, 0)
			if tc.addrs[i] == want {
				if err != nil {
					t.Fatalf("owner %s: acquire %q: %v", want, name, err)
				}
				if err := conns[i].Release(sids[i], name, true); err != nil {
					t.Fatalf("owner %s: release %q: %v", want, name, err)
				}
				continue
			}
			if !errors.Is(err, client.ErrNotOwner) {
				t.Fatalf("non-owner %s: acquire %q: got %v, want ErrNotOwner", tc.addrs[i], name, err)
			}
			wm, ok := conns[i].Membership()
			if !ok {
				t.Fatalf("non-owner %s: NotOwner carried no membership", tc.addrs[i])
			}
			if wm.Epoch != 1 || len(wm.Members) != 3 {
				t.Fatalf("NotOwner membership: epoch %d, %d members; want 1, 3", wm.Epoch, len(wm.Members))
			}
		}
	}
	// Sanity on the namespace split: a dozen names across three nodes
	// should not all land on one member.
	if len(ownersSeen) < 2 {
		t.Fatalf("all %d names owned by one member — rendezvous split implausible", len(names))
	}

	// ClusterInfo from any member reports the same membership.
	wm, err := conns[0].ClusterInfo()
	if err != nil {
		t.Fatalf("ClusterInfo: %v", err)
	}
	if wm.Epoch != 1 || len(wm.Members) != 3 {
		t.Fatalf("ClusterInfo: epoch %d, %d members; want 1, 3", wm.Epoch, len(wm.Members))
	}
}

// TestClusterFailover is the acceptance scenario: a client holds a lock
// on a member, the member is killed mid-hold, and exactly one surviving
// waiter wins the re-granted lock — on the new rendezvous owner, within
// 2x the failover window, in FIFO order among the survivors.
func TestClusterFailover(t *testing.T) {
	// The window is sized so the fixed costs around it — death
	// detection (3 beats of 50ms) and scheduler noise on a loaded CI
	// host — stay a small fraction of the asserted 2x bound.
	const fw = 600 * time.Millisecond
	tc := startCluster(t, 3, fw)
	tc.awaitHealthy()

	// Find which member owns the contended name, and who inherits it.
	const name = "failover-key"
	m0 := tc.nodes[0].Current()
	victimAddr := m0.Owner(name)
	victim := -1
	for i, a := range tc.addrs {
		if a == victimAddr {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatalf("owner %s not in member list", victimAddr)
	}
	heirAddr := m0.Without(victimAddr).Owner(name)
	heir := -1
	for i, a := range tc.addrs {
		if a == heirAddr {
			heir = i
		}
	}
	t.Logf("name %q: owner %s (node %d), heir %s (node %d)", name, victimAddr, victim, heirAddr, heir)

	// The doomed hold, taken directly on the victim.
	hc, hsid := tc.dialSession(victim, fw)
	defer hc.Close()
	if err := hc.Acquire(hsid, name, true, 0); err != nil {
		t.Fatalf("holder acquire: %v", err)
	}

	newRouter := func() *client.Router {
		r, err := client.NewRouter(client.RouterConfig{Seeds: tc.addrs, Lease: fw})
		if err != nil {
			t.Fatalf("router: %v", err)
		}
		return r
	}
	r1, r2 := newRouter(), newRouter()
	// Exit ordering matters even when an assertion fails mid-flight: a
	// Router's ops are single-goroutine, so the waiter goroutines must
	// be unblocked and joined BEFORE the routers close, or Close would
	// race an in-flight op on the same conn. Defers run LIFO.
	var wg sync.WaitGroup
	w1Release := make(chan struct{})
	releaseW1 := sync.OnceFunc(func() { close(w1Release) })
	defer r1.Close()
	defer r2.Close()
	defer wg.Wait()
	defer releaseW1()

	tKill := time.Now()
	tc.kill(victim)

	// Waiter 1 re-aims at the heir, queues behind the ghost hold, and is
	// granted when the quarantine lease expires.
	var grants atomic.Int32
	w1Order := make(chan int32, 1)
	w1Done := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := r1.Acquire(name, true, 3*time.Second)
		if err == nil {
			w1Order <- grants.Add(1)
			<-w1Release
			err = r1.Release(name, true)
		}
		w1Done <- err
	}()

	// Stagger arrival: waiter 2 starts only once waiter 1 is parked on
	// the heir's queue (behind the ghost hold), so FIFO order among the
	// survivors is deterministic.
	deadline := time.Now().Add(3 * time.Second)
	for tc.mgrs[heir].QueueLen(name) < 1 {
		select {
		case err := <-w1Done:
			t.Fatalf("waiter 1 finished before queuing behind the ghost: %v", err)
		case ord := <-w1Order:
			t.Fatalf("waiter 1 granted (%d-th) without queuing behind the ghost — quarantine never armed", ord)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("waiter 1 never queued on heir (QueueLen %d)", tc.mgrs[heir].QueueLen(name))
		}
		time.Sleep(time.Millisecond)
	}
	w2Order := make(chan int32, 1)
	w2Done := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := r2.Acquire(name, true, 3*time.Second)
		if err == nil {
			w2Order <- grants.Add(1)
			err = r2.Release(name, true)
		}
		w2Done <- err
	}()

	// Exactly one re-grant within 2x the window: waiter 1, first.
	select {
	case ord := <-w1Order:
		if ord != 1 {
			t.Fatalf("waiter 1 granted %d-th, want 1st", ord)
		}
		if since := time.Since(tKill); since > 2*fw {
			t.Errorf("waiter 1 granted %v after kill, want <= %v", since, 2*fw)
		}
	case err := <-w1Done:
		t.Fatalf("waiter 1 failed without a grant: %v", err)
	case <-time.After(3 * time.Second):
		t.Fatal("waiter 1 not granted within 3s of the kill")
	}

	// Waiter 2 must still be parked behind waiter 1's exclusive hold.
	select {
	case ord := <-w2Order:
		t.Fatalf("waiter 2 granted (%d-th) while waiter 1 still holds", ord)
	case <-time.After(50 * time.Millisecond):
	}

	releaseW1()
	if err := <-w1Done; err != nil {
		t.Fatalf("waiter 1 release: %v", err)
	}
	// Waiter 2 reports its grant order and then, after releasing, its
	// error: wait on the second, which covers both, so a grant and release
	// quicker than this goroutine cannot be mistaken for a failure.
	select {
	case err := <-w2Done:
		if err != nil {
			t.Fatalf("waiter 2 failed: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("waiter 2 not granted after waiter 1 released")
	}
	if ord := <-w2Order; ord != 2 {
		t.Fatalf("waiter 2 granted %d-th, want 2nd", ord)
	}

	// Survivors converged on the shrunken membership, and the routers
	// adopted it.
	for _, i := range []int{(victim + 1) % 3, (victim + 2) % 3} {
		if e := tc.nodes[i].Epoch(); e != 2 {
			t.Errorf("node %d epoch %d, want 2", i, e)
		}
		if n := tc.nodes[i].MemberCount(); n != 2 {
			t.Errorf("node %d has %d members, want 2", i, n)
		}
		if tc.nodes[i].Isolated() {
			t.Errorf("node %d isolated after a single death in a 3-node cluster", i)
		}
	}
	if e := r1.Epoch(); e != 2 {
		t.Errorf("router 1 epoch %d, want 2", e)
	}
	if got := r1.Owner(name); got != heirAddr {
		t.Errorf("router routes %q to %s, want heir %s", name, got, heirAddr)
	}
}

// TestClusterQuorumLoss: a 3-node cluster that loses two members must
// refuse to serve from the survivor — a minority may not grant locks it
// only owns because everyone who would object is unreachable. Isolation
// fences the node completely: sessions granted before the partition are
// revoked, keepalives and new opens are refused, so no lease of the
// minority can outlive the quarantine a healthy majority would wait out
// before re-granting (the split-brain double-holder scenario).
func TestClusterQuorumLoss(t *testing.T) {
	tc := startCluster(t, 3, 300*time.Millisecond)
	tc.awaitHealthy()

	// A pre-partition client holds a name node 0 owns outright; fencing
	// must revoke this hold even though the client never misbehaves.
	held := ""
	m0 := tc.nodes[0].Current()
	for i := 0; i < 64 && held == ""; i++ {
		cand := fmt.Sprintf("fence-key-%d", i)
		if m0.Owner(cand) == tc.addrs[0] {
			held = cand
		}
	}
	if held == "" {
		t.Fatal("no probe name rendezvous-hashed to node 0")
	}
	hc, hsid := tc.dialSession(0, 300*time.Millisecond)
	defer hc.Close()
	if err := hc.Acquire(hsid, held, true, 0); err != nil {
		t.Fatalf("pre-partition acquire %q: %v", held, err)
	}

	tc.kill(1)
	tc.kill(2)

	deadline := time.Now().Add(5 * time.Second)
	for !tc.nodes[0].Isolated() {
		if time.Now().After(deadline) {
			t.Fatal("survivor never isolated after losing quorum")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Fenced: the lease lifecycle is refused wholesale — the
	// pre-partition session cannot renew, no new session opens, and
	// every named op answers NotOwner even for names the shrunken map
	// says this node owns.
	if err := hc.KeepAlive(hsid, 300*time.Millisecond); !errors.Is(err, client.ErrNotOwner) {
		t.Fatalf("keepalive on fenced survivor: got %v, want ErrNotOwner", err)
	}
	if err := hc.Acquire(hsid, "any-name-at-all", true, 0); !errors.Is(err, client.ErrNotOwner) {
		t.Fatalf("isolated node acquire: got %v, want ErrNotOwner", err)
	}
	c, err := client.Dial(tc.addrs[0])
	if err != nil {
		t.Fatalf("dial fenced survivor: %v", err)
	}
	defer c.Close()
	if _, err := c.Open(300 * time.Millisecond); !errors.Is(err, client.ErrNotOwner) {
		t.Fatalf("open on fenced survivor: got %v, want ErrNotOwner", err)
	}
	// Every session the survivor ever granted — the fenced client's,
	// the dead peers' heartbeat sessions, the ghost sessions — is
	// revoked or expired; none may linger past the fence.
	deadline = time.Now().Add(2 * time.Second)
	for tc.mgrs[0].SessionCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("fenced survivor still has %d live sessions", tc.mgrs[0].SessionCount())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A Router against the isolated remnant gives up with ErrNoQuorum,
	// at its 100ms deadline rather than after its whole re-aim budget.
	r, err := client.NewRouter(client.RouterConfig{
		Seeds: []string{tc.addrs[0]},
		Lease: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("router bootstrap: %v", err)
	}
	defer r.Close()
	start := time.Now()
	err = r.Acquire("any-name-at-all", true, 100*time.Millisecond)
	if el := time.Since(start); !errors.Is(err, client.ErrNoQuorum) || el > 300*time.Millisecond {
		t.Fatalf("router against isolated remnant: got %v after %v, want ErrNoQuorum within 300ms", err, el)
	}
}
