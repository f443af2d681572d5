// Package cluster runs one lockd member of a cluster: the current
// ownership map (package owner), heartbeats to every peer, and the
// quarantine that makes failover safe.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fairrw/internal/lockmgr"
	"fairrw/internal/lockmgr/client"
	"fairrw/internal/lockmgr/owner"
	"fairrw/internal/lockmgr/wire"
)

// Map and NewMap forward to package owner; they stay only because the
// frozen benchmark (benchmark/ladder_svc.go) calls cluster.NewMap.
type Map = owner.Map

// NewMap is owner.NewMap.
func NewMap(epoch uint64, members []string) (*Map, error) { return owner.NewMap(epoch, members) }

// Node is one lockd process's view of the cluster: the current
// ownership map, outbound heartbeats to every peer, and the quarantine
// machinery that makes failover safe.
//
// Liveness is symmetric and unilateral: every node holds a session on
// every peer (OpOpen + periodic OpKeepAlive on a client.Conn — a
// heartbeat is just a tiny client) and declares a peer dead after
// SuspectAfter consecutive misses. On death the peer is removed from the
// map at a bumped epoch, so its names rehash to survivors; rendezvous
// hashing guarantees nothing else moves.
//
// Safety: a client of the dead node may still believe it holds a lock —
// its lease, granted by the dead node, runs for up to MaxLease past its
// last renewal, which is at most MaxLease past the moment we noticed the
// death (deployments keep -max-lease the same on every member, so the
// local manager's MaxLease bounds the dead node's leases too). So for
// each name inherited from the dead member, the survivor takes an
// exclusive "ghost" hold (lazily, the first time an acquire for that name
// arrives) under a ghost session whose lease is MaxLease and which is
// never kept alive. Real acquires queue FIFO behind the ghost;
// when the manager's timer expires the ghost session at its deadline it
// revokes every ghost hold, and the head waiter is granted — exactly once,
// in arrival order, by machinery that predates the cluster. Membership
// never shrinks without its quarantine: if the ghost session cannot be
// opened (manager closing), the death declaration is aborted and
// retried, so inherited names are never served unprotected.
//
// Split-brain: a node that can no longer reach a majority of the
// INITIAL membership stops serving and fences itself — every named op
// answers NotOwner, OpOpen/OpKeepAlive are refused (the server gates
// them on Isolated), and every session this node ever granted is
// revoked on the spot. Fencing is what makes the survivors' quarantine
// sound under an asymmetric partition: a client still connected to the
// isolated minority cannot renew its lease (keepalives are refused and
// its session is already gone), so every grant of the minority is dead
// well within the MaxLease the majority waits out before
// re-granting. The quorum is measured against the initial size, not the
// current map — a partitioned minority also shrinks its current map,
// and measuring against that would let it vote itself a quorum of one.
// A 2-node cluster therefore freezes when either node dies: documented,
// and the reason the smoke tests run 3 nodes. Isolation is terminal and
// dead members never rejoin; a redeploy restarts the cluster at a fresh
// epoch.
type Node struct {
	cfg      Config
	interval time.Duration // heartbeat period
	initialN int
	quorum   int // initialN/2 + 1

	cur      atomic.Pointer[owner.Map]
	isolated atomic.Bool
	nquar    atomic.Int32 // fast-path gate: 0 = no active quarantines

	mu    sync.Mutex
	quars []*quarantine
	peers map[string]*peerState

	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
}

// SuspectAfter is how many consecutive heartbeat failures kill a peer.
const SuspectAfter = 3

// bootGraceBeats is how many heartbeat periods after Start a peer that
// has never answered is forgiven its misses: cluster members boot
// staggered, and a peer that is merely still starting must not be
// declared dead. Once a peer has answered even once, SuspectAfter
// applies in full.
const bootGraceBeats = 20

// Config configures a Node.
type Config struct {
	// Self is this node's client-facing listen address, exactly as it
	// appears in Members.
	Self string
	// Members is the full initial member list, Self included. Order is
	// irrelevant (the map sorts).
	Members []string
	// Manager is the local lock manager ghost holds are taken on. Its
	// MaxLease sets the heartbeat period: MaxLease/20, clamped to
	// [50ms, 250ms] — 250ms at the default 1m lease cap, and short
	// enough that death detection stays well inside a short cap.
	Manager *lockmgr.Manager
	// Logf, when set, receives one line per membership event.
	Logf func(format string, args ...any)
}

// quarantine tracks one dead member's names through their unsafe window.
type quarantine struct {
	prev     *owner.Map // membership before the death: prev.Owner(name)==dead ⇒ name moved
	dead     string
	ghostSID uint64
	deadline time.Time
	taken    map[string]struct{}
}

type peerState struct {
	addr    string
	lastAck atomic.Int64 // unix nanos of last successful exchange; 0 = never
	dead    atomic.Bool
}

// NewNode validates cfg and builds the node at epoch 1. Call Start to
// begin heartbeating.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Manager == nil {
		return nil, errors.New("cluster: Config.Manager is required")
	}
	m, err := owner.NewMap(1, cfg.Members)
	if err != nil {
		return nil, err
	}
	if m.Len() == 0 {
		return nil, errors.New("cluster: empty member list")
	}
	if !m.Contains(cfg.Self) {
		return nil, fmt.Errorf("cluster: self %q not in member list %v", cfg.Self, m.Members())
	}
	n := &Node{
		cfg:      cfg,
		interval: min(max(cfg.Manager.MaxLease()/20, 50*time.Millisecond), 250*time.Millisecond),
		initialN: m.Len(),
		quorum:   m.Len()/2 + 1,
		peers:    make(map[string]*peerState, m.Len()-1),
		stop:     make(chan struct{}),
	}
	n.cur.Store(m)
	for _, addr := range m.Members() {
		if addr != cfg.Self {
			n.peers[addr] = &peerState{addr: addr}
		}
	}
	return n, nil
}

// Start launches one heartbeat loop per peer.
func (n *Node) Start() {
	for _, ps := range n.peers {
		n.wg.Add(1)
		go n.heartbeat(ps)
	}
}

// Stop halts heartbeats and waits for the loops to exit.
func (n *Node) Stop() {
	n.stopped.Do(func() { close(n.stop) })
	n.wg.Wait()
}

// Interval reports the heartbeat period in use.
func (n *Node) Interval() time.Duration { return n.interval }

// Self returns this node's member address.
func (n *Node) Self() string { return n.cfg.Self }

// Current returns the current ownership map.
func (n *Node) Current() *owner.Map { return n.cur.Load() }

// Epoch reports the current membership epoch (part of the server's
// Cluster interface, scraped as lockd_cluster_epoch).
func (n *Node) Epoch() uint64 { return n.cur.Load().Epoch() }

// MemberCount reports the current member count (lockd_cluster_members).
func (n *Node) MemberCount() int { return n.cur.Load().Len() }

// StatusJSON renders the admin-plane /cluster document.
func (n *Node) StatusJSON() ([]byte, error) {
	return json.MarshalIndent(n.Status(), "", " ")
}

// Isolated reports whether this node lost quorum and fenced itself.
// Part of the server's Cluster interface: an isolated node's server
// refuses OpOpen and OpKeepAlive (NotOwner) so no new lease can be
// granted or renewed, complementing the session revocation done at
// fencing time. Isolation is terminal — members never rejoin.
func (n *Node) Isolated() bool { return n.isolated.Load() }

// GateOp decides whether this node may execute an op on name: it must
// own the name under the current map and still hold quorum. acquire
// additionally arms the ghost quarantine for names inherited from a
// dead member. The server answers StatusNotOwner when this returns
// false. Steady state (no recent death) costs one map lookup and two
// atomic loads — no locks, no allocation.
func (n *Node) GateOp(name []byte, acquire bool) bool {
	if n.isolated.Load() {
		return false
	}
	m := n.cur.Load()
	if m.OwnerBytes(name) != n.cfg.Self {
		return false
	}
	if acquire && n.nquar.Load() > 0 {
		n.applyQuarantine(name)
	}
	return true
}

// applyQuarantine takes the ghost hold for name if any active
// quarantine says its previous owner died. Idempotent per name.
func (n *Node) applyQuarantine(name []byte) {
	now := time.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	live := n.quars[:0]
	for _, q := range n.quars {
		if now.After(q.deadline) {
			continue // window passed; the ghost session expired at its deadline
		}
		live = append(live, q)
		if q.prev.OwnerBytes(name) != q.dead {
			continue
		}
		s := string(name)
		if _, ok := q.taken[s]; ok {
			continue
		}
		q.taken[s] = struct{}{}
		// Try-acquire: the name just moved here, so nothing local holds
		// it; a failure means a ghost from an older overlapping
		// quarantine already covers it, which is just as safe.
		if err := n.cfg.Manager.Acquire(q.ghostSID, s, true, 0); err != nil &&
			!errors.Is(err, lockmgr.ErrTimeout) && !errors.Is(err, lockmgr.ErrHeld) {
			n.logf("cluster: ghost hold %q after %s death: %v", s, q.dead, err)
		}
	}
	n.quars = live
	n.nquar.Store(int32(len(live)))
}

// declareDead removes peer from the map, bumps the epoch, opens the
// ghost session, and re-checks quorum. Idempotent. It reports whether
// the declaration committed: membership never shrinks without its ghost
// quarantine, so if the ghost session cannot be opened (only possible
// while the manager is closing) nothing changes and the caller retries.
func (n *Node) declareDead(ps *peerState) bool {
	n.mu.Lock()
	cur := n.cur.Load()
	if !cur.Contains(ps.addr) {
		n.mu.Unlock()
		return true
	}
	// The quarantine is the longest lease the dead node could have granted.
	// Its deadline is read first, so it never outlives the ghost session.
	window := n.cfg.Manager.MaxLease()
	deadline := time.Now().Add(window)
	sid, err := n.cfg.Manager.Open(window)
	if err != nil {
		n.mu.Unlock()
		n.logf("cluster: NOT declaring %s dead: ghost session unavailable (%v); membership unchanged, will retry", ps.addr, err)
		return false
	}
	next := cur.Without(ps.addr)
	n.quars = append(n.quars, &quarantine{
		prev:     cur,
		dead:     ps.addr,
		ghostSID: sid,
		deadline: deadline,
		taken:    make(map[string]struct{}),
	})
	n.nquar.Store(int32(len(n.quars)))
	n.cur.Store(next)
	ps.dead.Store(true)
	lost := next.Len() < n.quorum
	if lost {
		n.isolated.Store(true)
	}
	n.mu.Unlock()
	if lost {
		// Fence: with isolated set, the server already refuses new
		// OpOpen/OpKeepAlive, and revoking every live session kills the
		// leases granted before the partition. An open racing the fence
		// can slip one session in, but its keepalives are refused from
		// now on, so it too expires within MaxLease, the quarantine the
		// majority waits out after noticing this node is gone.
		revoked := n.cfg.Manager.RevokeAllSessions()
		n.logf("cluster: fenced after quorum loss: %d local sessions revoked", revoked)
	}
	n.logf("cluster: member %s dead; epoch %d -> %d, %d/%d members%s",
		ps.addr, cur.Epoch(), next.Epoch(), next.Len(), n.initialN,
		map[bool]string{true: " — QUORUM LOST, refusing ops", false: ""}[lost])
	return true
}

// heartbeat keeps one session alive on a peer and declares it dead
// after SuspectAfter consecutive misses. The dial and every exchange get
// one beat. Only an OK answer acks. An Expired answer (the peer
// restarted or revoked our session, or our lease ran out) reopens on the
// same conn in the same beat. A transport error, a late answer, a fenced
// peer's NotOwner or any other status is a miss, and the peer is
// redialled next beat: counting NotOwner as a miss is what lets a
// majority remove a member that fenced itself.
func (n *Node) heartbeat(ps *peerState) {
	defer n.wg.Done()
	var (
		conn   *client.Conn
		sid    uint64
		misses int
	)
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	// The session we hold on the peer needs to outlive a few missed
	// beats so a slow scheduler doesn't churn sessions.
	lease := time.Duration(SuspectAfter+2) * n.interval
	beat := func() time.Time { return time.Now().Add(n.interval) }
	bootDeadline := time.Now().Add(bootGraceBeats * n.interval)
	everAcked := false
	t := time.NewTicker(n.interval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		select {
		case <-n.stop: // a tick ready beside stop may have won the select
			return
		default:
		}
		var err error
		if conn == nil {
			if conn, err = client.DialBy(ps.addr, beat()); err == nil {
				sid, err = conn.Armed(beat()).Open(lease)
			}
		} else if err = conn.Armed(beat()).KeepAlive(sid, lease); errors.Is(err, lockmgr.ErrExpired) {
			sid, err = conn.Armed(beat()).Open(lease)
		}
		if err == nil {
			misses = 0
			everAcked = true
			ps.lastAck.Store(time.Now().UnixNano())
			continue
		}
		if conn != nil {
			conn.Close()
			conn = nil
		}
		if !everAcked && time.Now().Before(bootDeadline) {
			continue // peer still booting; misses don't count yet
		}
		if misses++; misses >= SuspectAfter {
			if n.declareDead(ps) {
				return // members never rejoin
			}
			// Ghost session unavailable (manager closing); keep ticking
			// so the declaration is retried rather than silently lost.
		}
	}
}

// AppendMembership appends the current membership's wire encoding to
// buf — the payload of StatusNotOwner responses and OpClusterInfo
// replies.
func (n *Node) AppendMembership(buf []byte) []byte {
	wm := n.cur.Load().Membership()
	out, err := wire.AppendMembership(buf, &wm)
	if err != nil {
		// Unreachable: the map enforces the same bounds as the codec.
		return buf
	}
	return out
}

// PeerStatus is one peer's liveness as seen from this node.
type PeerStatus struct {
	Addr      string  `json:"addr"`
	Dead      bool    `json:"dead"`
	LastAckMS float64 `json:"last_ack_ms"` // age of last successful beat; -1 = never
}

// Status is the admin-plane view of the cluster.
type Status struct {
	Self           string             `json:"self"`
	Epoch          uint64             `json:"epoch"`
	Members        []string           `json:"members"`
	InitialMembers int                `json:"initial_members"`
	Quorum         int                `json:"quorum"`
	Isolated       bool               `json:"isolated"`
	Shares         map[string]float64 `json:"owned_share"` // estimated namespace share per member
	Peers          []PeerStatus       `json:"peers"`
	Quarantines    int                `json:"active_quarantines"`
}

// shareProbes sizes the synthetic sample behind the owned-share
// estimate. Rendezvous hashing is uniform, so ~4k probes pin each share
// to within a couple of percent.
const shareProbes = 4096

// Status assembles the admin view. Shares are estimated by hashing a
// fixed synthetic sample of names, not by walking live locks — it
// reports the namespace split the map implies, which is what capacity
// planning wants.
func (n *Node) Status() Status {
	m := n.cur.Load()
	st := Status{
		Self:           n.cfg.Self,
		Epoch:          m.Epoch(),
		Members:        m.Members(),
		InitialMembers: n.initialN,
		Quorum:         n.quorum,
		Isolated:       n.isolated.Load(),
		Shares:         make(map[string]float64, m.Len()),
	}
	var probe [16]byte
	for i := 0; i < shareProbes; i++ {
		p := strconv.AppendInt(append(probe[:0], "probe-"...), int64(i), 10)
		st.Shares[m.OwnerBytes(p)] += 1.0 / shareProbes
	}
	now := time.Now()
	n.mu.Lock()
	st.Quarantines = len(n.quars)
	n.mu.Unlock()
	for _, addr := range st.Members {
		if addr == n.cfg.Self {
			continue
		}
		ps := n.peers[addr]
		if ps == nil {
			continue
		}
		p := PeerStatus{Addr: addr, Dead: ps.dead.Load(), LastAckMS: -1}
		if ack := ps.lastAck.Load(); ack > 0 {
			p.LastAckMS = float64(now.UnixNano()-ack) / 1e6
		}
		st.Peers = append(st.Peers, p)
	}
	return st
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}
