package client

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"fairrw/internal/lockmgr"
	"fairrw/internal/lockmgr/owner"
	"fairrw/internal/lockmgr/wire"
)

// Router is the cluster-aware client: it caches the ownership map,
// routes every op to the member that owns its name, and on NotOwner or
// a transport failure refreshes the map and retries with capped
// jittered backoff. Per-node Conns (and their sessions) are dialed
// lazily on first use.
//
// Like Conn, a Router's operations are single-goroutine: give each
// worker its own Router. The one background goroutine it runs is the
// keepalive loop, which renews every per-node session over dedicated
// keepalive connections — so a session stays alive even while the op
// connection is blocked inside a parked acquire, which is what lets a
// waiter survive the post-failover quarantine window (the ghost hold
// outlives any single timed wait the manager would grant).
//
// Membership only shrinks (dead members never rejoin), so a live node
// never loses a name it owns, and the Router can route a Release by the
// current map: either the owner at acquire time is still the owner, or
// it died and the hold died with it — the new owner answers NotHeld,
// which the caller counts as a lost hold, not a routing error.
type Router struct {
	cfg RouterConfig

	mu    sync.Mutex // guards map_, nodes, closed (ops are single-goroutine; the keepalive loop is not)
	map_  *owner.Map
	nodes map[string]*routedNode

	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
}

// RouterConfig configures a Router.
type RouterConfig struct {
	// Seeds are addresses to bootstrap the membership from — any
	// subset of the cluster (one live member suffices).
	Seeds []string
	// Lease is the session lease requested on every node. Default 10s;
	// the keepalive loop renews each session every Lease/3.
	Lease time.Duration
}

// The routing budget. A routing failure (NotOwner, an expired session,
// an unreachable owner, a transport error) re-aims at most maxReaims
// times, sleeping backoff(retryBase, min(retryMax, Lease/4), n) before
// the n-th: 1.6 s in all on average at the default lease, past the
// cluster's death detection (SuspectAfter beats of at most 250 ms). The
// Lease/4 cap keeps the longest sleep (cap + 50% jitter) inside a
// failover quarantine, which lasts the cluster's lease cap, whenever Lease
// is no longer than that cap: a waiter backing off when the death is
// declared still reaches the heir while the ghost hold queues it. A
// deadline cuts the budget short.
const (
	maxReaims = 8
	retryBase = 10 * time.Millisecond
	retryMax  = 500 * time.Millisecond
)

// replySlack is how long past a timed acquire's deadline the Router
// still waits for the answer: the owner answers ErrTimeout at the
// deadline itself, and that answer has to arrive.
const replySlack = 100 * time.Millisecond

// within is the deadline of a membership poll or a session open: the
// op's deadline, or dialTimeout from now for an op without one.
func within(deadline time.Time) time.Time {
	if deadline.IsZero() {
		return time.Now().Add(dialTimeout)
	}
	return deadline
}

// routedNode is one member the Router has dialed: an op conn, a
// keepalive conn, and the session shared by both.
type routedNode struct {
	addr string
	conn *Conn // op conn: owned by the op goroutine
	sid  uint64
	// downUntil backs off redials after a dial failure (op goroutine
	// only): a dead member would otherwise charge its full dial timeout
	// to every routing attempt that still lands on it.
	downUntil time.Time

	kaMu   sync.Mutex
	kaConn *Conn // keepalive conn: owned by the keepalive loop
}

// NewRouter bootstraps the membership from the seeds and starts the
// keepalive loop. It fails only if no seed answers a single dial.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Seeds) == 0 {
		return nil, errors.New("lockd client: router needs at least one seed")
	}
	if cfg.Lease <= 0 {
		cfg.Lease = 10 * time.Second
	}
	r := &Router{
		cfg:   cfg,
		nodes: make(map[string]*routedNode),
		stop:  make(chan struct{}),
	}
	if err := r.bootstrap(); err != nil {
		return nil, err
	}
	r.wg.Add(1)
	go r.keepAliveLoop()
	return r, nil
}

// bootstrap learns the initial membership from any answering seed. A
// single-node, non-clustered server answers ClusterInfo with an empty
// membership; the Router then treats that seed as the sole owner.
func (r *Router) bootstrap() error {
	var lastErr error
	for _, seed := range r.cfg.Seeds {
		c, err := DialBy(seed, time.Time{})
		if err != nil {
			lastErr = err
			continue
		}
		wm, err := c.Armed(time.Now().Add(dialTimeout)).ClusterInfo()
		c.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if len(wm.Members) == 0 {
			// Not clustered: this seed owns everything.
			wm = wire.Membership{Epoch: 0, Members: []string{seed}}
		}
		m, err := owner.FromMembership(&wm)
		if err != nil {
			lastErr = err
			continue
		}
		r.map_ = m
		return nil
	}
	return fmt.Errorf("%w: no seed reachable: %v", ErrNoQuorum, lastErr)
}

// Close closes every per-node connection and stops the keepalive loop.
// Sessions are closed best-effort so holds release immediately instead
// of waiting out their leases. A keepalive in flight ends within Lease/3,
// and the session closes are given until Lease/3 after Close began.
func (r *Router) Close() error {
	by := time.Now().Add(r.cfg.Lease / 3)
	r.stopped.Do(func() { close(r.stop) })
	r.wg.Wait()
	r.mu.Lock()
	nodes := r.nodes
	r.nodes = map[string]*routedNode{}
	r.mu.Unlock()
	for _, n := range nodes {
		if n.conn != nil {
			if n.sid != 0 {
				n.conn.Armed(by).CloseSession(n.sid)
			}
			n.conn.Close()
		}
		n.kaMu.Lock()
		if n.kaConn != nil {
			n.kaConn.Close()
			n.kaConn = nil
		}
		n.kaMu.Unlock()
	}
	return nil
}

// Epoch reports the cached membership epoch.
func (r *Router) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.map_.Epoch()
}

// Members reports the cached member list.
func (r *Router) Members() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.map_.Members()
}

// Owner reports which member the cached map routes name to.
func (r *Router) Owner(name string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.map_.Owner(name)
}

// adopt installs a membership iff it is strictly newer than the cached
// one, closing conns to members that left. Epochs only rise, so "newer"
// is a plain comparison and stale NotOwner payloads are ignored.
func (r *Router) adopt(wm wire.Membership) {
	m, err := owner.FromMembership(&wm)
	if err != nil || m.Len() == 0 {
		return
	}
	r.mu.Lock()
	if m.Epoch() <= r.map_.Epoch() {
		r.mu.Unlock()
		return
	}
	r.map_ = m
	var gone []*routedNode
	for addr, n := range r.nodes {
		if !m.Contains(addr) {
			gone = append(gone, n)
			delete(r.nodes, addr)
		}
	}
	r.mu.Unlock()
	for _, n := range gone {
		if n.conn != nil {
			n.conn.Close()
		}
		n.kaMu.Lock()
		if n.kaConn != nil {
			n.kaConn.Close()
			n.kaConn = nil
		}
		n.kaMu.Unlock()
	}
}

// refresh asks a reachable member for its membership and adopts it if
// newer: when the cached owner of a name is unreachable, some survivor
// will eventually publish a map without it. It skips skip — the member
// that just failed, which would charge a pointless dial (or its
// cooldown) to every refresh while teaching the Router nothing. A
// non-zero deadline bounds each dial.
func (r *Router) refresh(deadline time.Time, skip string) {
	r.mu.Lock()
	members := r.map_.Members()
	r.mu.Unlock()
	for _, addr := range members {
		if addr == skip {
			continue
		}
		n, err := r.nodeConn(deadline, addr)
		if err != nil {
			continue
		}
		wm, err := n.conn.Armed(within(deadline)).ClusterInfo()
		if err != nil {
			r.dropConn(n)
			continue
		}
		if len(wm.Members) > 0 {
			r.adopt(wm)
		}
		return
	}
}

// nodeConn returns the routedNode for addr with its op conn dialed but
// WITHOUT opening a session. Membership polls use this directly:
// ClusterInfo needs no session, and a session opened as a refresh side
// effect just before a failover is exactly the stale lease that later
// under-bounds a parked acquire (see Acquire). A non-zero deadline bounds
// the dial; a dial it cut short is not the member's fault and arms no
// cooldown.
func (r *Router) nodeConn(deadline time.Time, addr string) (*routedNode, error) {
	r.mu.Lock()
	n := r.nodes[addr]
	if n == nil {
		n = &routedNode{addr: addr}
		r.nodes[addr] = n
	}
	r.mu.Unlock()
	if n.conn == nil {
		if now := time.Now(); now.Before(n.downUntil) {
			return nil, fmt.Errorf("lockd client: %s cooling down after failed dial", addr)
		}
		c, err := DialBy(addr, deadline)
		if err != nil {
			if deadline.IsZero() || time.Now().Before(deadline) {
				n.downUntil = time.Now().Add(retryMax / 2)
			}
			return nil, err
		}
		n.downUntil = time.Time{}
		n.conn = c
	}
	return n, nil
}

// node returns the routedNode for addr, dialing and opening its session
// lazily.
func (r *Router) node(deadline time.Time, addr string) (*routedNode, error) {
	n, err := r.nodeConn(deadline, addr)
	if err != nil {
		return nil, err
	}
	if n.sid == 0 {
		sid, err := n.conn.Armed(within(deadline)).Open(r.cfg.Lease)
		if err != nil {
			r.dropConn(n)
			return nil, err
		}
		r.mu.Lock()
		n.sid = sid
		r.mu.Unlock()
	}
	return n, nil
}

// dropConn discards a node's op conn and session after a transport
// error; the next op redials.
func (r *Router) dropConn(n *routedNode) {
	if n.conn != nil {
		n.conn.Close()
		n.conn = nil
	}
	r.mu.Lock()
	n.sid = 0
	r.mu.Unlock()
}

// Acquire routes an acquire to name's owner. wait follows
// lockmgr.Acquire, and a positive wait is a deadline for the whole call:
// every attempt asks for the wait left at that moment, and no backoff
// sleeps past it. The server clamps each parked wait to the session's
// remaining lease, so an attempt can time out with time left (most
// visibly while a failover quarantine is still running down); such an
// early timeout is sent again — the keepalive loop renews the session
// meanwhile. At the deadline Acquire returns ErrTimeout if the owner's
// last answer was a timeout, and ErrNoQuorum, wrapping the last routing
// error, otherwise. An owner that stops answering fails a timed attempt
// replySlack past the deadline and a try after Lease; an unbounded
// acquire waits for its answer as long as its session lives.
func (r *Router) Acquire(name string, excl bool, wait time.Duration) error {
	var deadline time.Time
	if wait > 0 {
		deadline = time.Now().Add(wait)
	}
	return r.do(name, deadline, func(n *routedNode) error {
		w, by := wait, time.Time{}
		switch {
		case wait > 0: // do calls op with time left; never send 0 (try) or less (unbounded)
			w, by = max(time.Until(deadline), 1), deadline.Add(replySlack)
		case wait == 0:
			by = time.Now().Add(r.cfg.Lease)
		}
		return n.conn.Armed(by).Acquire(n.sid, name, excl, w)
	})
}

// Release routes a release to name's current owner; an owner that stops
// answering fails the attempt after Lease.
func (r *Router) Release(name string, excl bool) error {
	return r.do(name, time.Time{}, func(n *routedNode) error {
		return n.conn.Armed(time.Now().Add(r.cfg.Lease)).Release(n.sid, name, excl)
	})
}

// do is the one routing loop: aim op at name's cached owner and, on a
// routing failure (NotOwner, an expired session, an unreachable owner, a
// transport error), repair the route, back off and re-aim, at most
// maxReaims times before ErrNoQuorum. Answers from the owner — nil,
// ErrNotHeld, ErrHeld, and ErrTimeout with no deadline — return at once.
// A non-zero deadline also ends the loop: it bounds every dial, op is
// called only with time left (a bounded op reads the wait left itself),
// a timeout with time left is sent again after retryBase without
// spending a re-aim, and no sleep runs past the deadline.
func (r *Router) do(name string, deadline time.Time, op func(n *routedNode) error) error {
	bounded := !deadline.IsZero()
	var lastErr error
	for reaims := 0; ; {
		if bounded && !time.Now().Before(deadline) {
			if lastErr == nil || errors.Is(lastErr, lockmgr.ErrTimeout) {
				return lockmgr.ErrTimeout
			}
			return fmt.Errorf("%w: %q at its deadline after %d re-aims: %v", ErrNoQuorum, name, reaims, lastErr)
		}
		r.mu.Lock()
		owner := r.map_.Owner(name)
		r.mu.Unlock()
		var err error
		timedOut := false
		if owner == "" {
			err = errors.New("empty membership")
			r.refresh(deadline, "")
		} else if n, nerr := r.node(deadline, owner); nerr != nil {
			// Owner unreachable — likely dead but not yet detected by
			// the cluster; poll survivors until an epoch bump reroutes.
			err = nerr
			r.refresh(deadline, owner)
		} else if bounded && !time.Now().Before(deadline) {
			continue // the dial or the session open used the time up
		} else {
			switch err = op(n); {
			case err == nil, errors.Is(err, lockmgr.ErrNotHeld), errors.Is(err, lockmgr.ErrHeld):
				return err // definitive answer from the owner
			case errors.Is(err, lockmgr.ErrTimeout):
				if !bounded {
					return err
				}
				timedOut = true
			case errors.Is(err, ErrNotOwner):
				if wm, ok := n.conn.Membership(); ok {
					r.adopt(wm)
				}
				// An isolated (quorum-less) node answers NotOwner while
				// still naming itself the owner; a refresh would learn
				// nothing newer from it. Isolation is terminal — the node
				// fences itself and members never rejoin — so these
				// re-aims only ride out the transient case where a healthy
				// majority exists and an epoch bump is about to reroute
				// the name; against a fenced remnant the budget or the
				// deadline runs out into ErrNoQuorum.
			case errors.Is(err, lockmgr.ErrExpired):
				// Session lapsed (e.g. this client stalled past its lease).
				// Reopen on the same node on the next attempt.
				r.mu.Lock()
				n.sid = 0
				r.mu.Unlock()
			default:
				// Transport failure mid-op: the conn is unusable either way.
				r.dropConn(n)
				r.refresh(deadline, owner)
			}
		}
		lastErr = err
		pause := retryBase
		if !timedOut {
			if reaims == maxReaims {
				return fmt.Errorf("%w: %q after %d attempts: %v", ErrNoQuorum, name, reaims+1, lastErr)
			}
			pause = backoff(retryBase, min(retryMax, r.cfg.Lease/4), reaims)
			reaims++
		}
		if bounded {
			pause = min(pause, time.Until(deadline))
		}
		time.Sleep(pause)
	}
}

// keepAliveLoop renews every dialed node's session over a dedicated
// keepalive connection, so sessions survive while the op conn is blocked
// in a parked acquire. Sessions are connection-independent, which is
// what makes this legal.
func (r *Router) keepAliveLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.Lease / 3)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		r.mu.Lock()
		nodes := make([]*routedNode, 0, len(r.nodes))
		for _, n := range r.nodes {
			if n.sid != 0 {
				nodes = append(nodes, n)
			}
		}
		r.mu.Unlock()
		for _, n := range nodes {
			select {
			case <-r.stop: // before each node: a tick ready beside stop may have won the select
				return
			default:
			}
			r.keepAliveNode(n)
		}
	}
}

// keepAliveNode renews n's session, dial included, within Lease/3.
func (r *Router) keepAliveNode(n *routedNode) {
	r.mu.Lock()
	sid := n.sid
	r.mu.Unlock()
	if sid == 0 {
		return
	}
	by := time.Now().Add(r.cfg.Lease / 3)
	n.kaMu.Lock()
	defer n.kaMu.Unlock()
	if n.kaConn == nil {
		c, err := DialBy(n.addr, by)
		if err != nil {
			return // node likely dead; the op path will reroute
		}
		n.kaConn = c
	}
	if err := n.kaConn.Armed(by).KeepAlive(sid, r.cfg.Lease); err != nil && !errors.Is(err, lockmgr.ErrExpired) {
		n.kaConn.Close()
		n.kaConn = nil
	}
}
