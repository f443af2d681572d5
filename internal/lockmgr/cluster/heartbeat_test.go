package cluster_test

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairrw/internal/lockmgr"
	"fairrw/internal/lockmgr/cluster"
)

// stallProxy forwards TCP to a backend until stall is set; from then on
// it swallows every byte its clients send, on open and new conns alike,
// so the member behind it still accepts connections but never answers.
type stallProxy struct {
	ln    net.Listener
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
	p := &stallProxy{ln: ln}
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

// close closes the listener and every conn the proxy made, which ends
// any read still waiting on it.
func (p *stallProxy) close() {
	p.ln.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
}

// TestClusterStalledPeer: a member that still accepts connections but no
// longer answers (its address is a proxy that starts swallowing bytes)
// is declared dead by both other members within SuspectAfter+2 beats, and
// a node whose heartbeat is waiting on it stops within one beat. Both
// hold only because the heartbeat gives its dial and every exchange one
// beat: client.Conn sets no deadline of its own. Nothing is asserted
// about the stalled member's own view of the cluster.
func TestClusterStalledPeer(t *testing.T) {
	var p *stallProxy
	tc := startClusterVia(t, 3, time.Second, func(backend string) string {
		p = startStallProxy(t, backend)
		return p.ln.Addr().String()
	})
	defer p.close() // before the cluster's cleanup, so no heartbeat still reading the proxy holds it
	tc.awaitHealthy()
	beat := tc.nodes[1].Interval()
	stalled := tc.addrs[0]

	p.stall.Store(true)
	start := time.Now()
	limit := (cluster.SuspectAfter + 2) * beat
	for _, i := range []int{1, 2} {
		for tc.nodes[i].Current().Contains(stalled) {
			if el := time.Since(start); el > limit {
				t.Fatalf("node %d still counts the stalled member %v after the stall; want it removed within %v", i, el, limit)
			}
			time.Sleep(time.Millisecond)
		}
		if e, n := tc.nodes[i].Epoch(), tc.nodes[i].MemberCount(); e != 2 || n != 2 {
			t.Fatalf("node %d at epoch %d with %d members, want 2 and 2", i, e, n)
		}
	}

	// A node whose one peer is the stalled member and which is still in
	// its boot grace redials it every beat, so it is almost always inside
	// an exchange with it: Stop waits out at most that exchange's beat.
	const slack = 50 * time.Millisecond // scheduling
	m := lockmgr.New(lockmgr.Config{MaxLease: time.Second})
	defer m.Close()
	const self = "127.0.0.1:1"
	w, err := cluster.NewNode(cluster.Config{Self: self, Members: []string{self, stalled}, Manager: m, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	time.Sleep(beat * 5 / 2)
	start = time.Now()
	stopped := make(chan struct{})
	go func() {
		w.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		if el := time.Since(start); el > beat+slack {
			t.Fatalf("Stop with a heartbeat waiting on a stalled peer took %v, want within %v", el, beat+slack)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("Stop with a heartbeat waiting on a stalled peer still blocked after 2 s; want it done within %v", beat+slack)
	}
}

// TestClusterHeartbeatReopensExpiredSession: a member whose manager
// forgets every session (RevokeAllSessions) answers its peers' next
// keepalive Expired, and each peer opens a new session on the same conn
// in that beat without counting a miss. Revoked every beat for
// 2×SuspectAfter beats, every member stays at epoch 1 and each peer acks
// the member within one beat (plus slack) of every revocation; a peer
// that counted a miss and redialled would ack a beat later.
func TestClusterHeartbeatReopensExpiredSession(t *testing.T) {
	tc := startCluster(t, 3, 2*time.Second)
	tc.awaitHealthy()
	beat := tc.nodes[0].Interval()
	forgetful := tc.addrs[0]
	limit := beat * 3 / 2
	for round := 0; round < 2*cluster.SuspectAfter; round++ {
		if n := tc.mgrs[0].RevokeAllSessions(); n == 0 {
			t.Fatalf("round %d: no heartbeat session to revoke", round)
		}
		at := time.Now()
		for _, i := range []int{1, 2} {
			for !ackedSince(tc.nodes[i], forgetful, at) {
				if el := time.Since(at); el > limit {
					t.Fatalf("round %d: node %d has no ack from the member %v after its sessions were revoked; want one within %v", round, i, el, limit)
				}
				time.Sleep(time.Millisecond)
			}
		}
		for i, n := range tc.nodes {
			if e := n.Epoch(); e != 1 {
				t.Fatalf("round %d: node %d at epoch %d, want 1", round, i, e)
			}
		}
		time.Sleep(time.Until(at.Add(beat)))
	}
}

// ackedSince reports whether n's last heartbeat ack from peer came after
// t. Status reads its clock after this one, so the ack time it implies
// is never later than the real one.
func ackedSince(n *cluster.Node, peer string, t time.Time) bool {
	now := time.Now()
	for _, p := range n.Status().Peers {
		if p.Addr == peer && p.LastAckMS >= 0 {
			return now.Add(-time.Duration(p.LastAckMS * 1e6)).After(t)
		}
	}
	return false
}
