// Package server runs a lockmgr.Manager behind lockd's TCP wire
// protocol on an event-loop runtime: a small fixed set of worker
// loops each owns a subset of the connections outright. A loop is a
// lock, not a goroutine: readiness is brought by per-connection reader
// goroutines (riding the Go runtime netpoller), and whoever brings an
// event to a free loop runs it, on its own goroutine; an event brought
// to a busy loop is listed for the holder. One loop cycle takes in every
// listed event, decodes all ready connections, executes the lot as a
// single lockmgr batch (one clock read, one hold of the manager's mutex,
// zero allocations), and writes each touched connection once, without
// waiting: what a socket will not take at once is written by a goroutine
// of that connection's that lives only until the peer has caught up.
// Blocking acquires never stall a loop and cost no goroutine: the manager
// queues them, their connection parks, and the release that grants one
// answers it in its own cycle.
//
// cmd/lockd is a thin flag wrapper over New, Serve and Shutdown, and
// tests embed a real server in-process.
package server

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"syscall"
	"time"

	"fairrw/internal/lockmgr"
	"fairrw/internal/lockmgr/wire"
	"fairrw/internal/obs"
)

// Config tunes the runtime. The zero value is ready to use.
type Config struct {
	// Workers is the number of event loops, used as given. Default
	// GOMAXPROCS, the only value lockd runs (EXPERIMENTS.md, "Mechanism
	// ROI audit", has the loop-count rows). Connections are dealt to
	// loops round-robin and a loop executes everything its connections
	// send.
	Workers int
	// Recorder, when non-nil, receives the server-side grant-path
	// flight records on each conn's obs.ConnNode track (KEnq at park,
	// KGrant at unpark, KCondemn, KDrain), keyed by worker index so each
	// event loop writes its own ring. Share it with the manager's
	// Config.Recorder so one dump interleaves both layers' views of the
	// same acquire.
	Recorder *obs.Recorder
	// Cluster, when non-nil, gates named ops by distributed ownership
	// (implemented by cluster.Node): an acquire or release for a name
	// this node does not own under the current membership is answered
	// StatusNotOwner with the membership attached, and OpClusterInfo
	// reports the membership. nil = not clustered; OpClusterInfo then
	// answers OK with an empty payload.
	Cluster Cluster
}

// Cluster is the server's hook into the cluster layer. It is consulted
// on the parse path under a worker's loop mutex, so implementations
// must not block: GateOp in steady state is a map lookup and two atomic
// loads.
type Cluster interface {
	// GateOp reports whether this node may execute an op on name. The
	// byte slice aliases the parse buffer and must not be retained.
	// acquire distinguishes acquires (which may arm failover
	// quarantines) from releases.
	GateOp(name []byte, acquire bool) bool
	// Isolated reports whether the node has fenced itself after quorum
	// loss. While true, OpOpen and OpKeepAlive are answered NotOwner —
	// an isolated node must not grant or renew any lease, or a client
	// still attached to a partitioned minority could hold a lock past
	// the quarantine the majority waits out before re-granting it.
	Isolated() bool
	// AppendMembership appends the current membership's wire encoding.
	AppendMembership(buf []byte) []byte
	// Epoch and MemberCount describe the current map for metrics.
	Epoch() uint64
	MemberCount() int
	// StatusJSON renders the admin-plane cluster document.
	StatusJSON() ([]byte, error)
}

// writeTimeout bounds how long a peer that is behind may take to accept
// one write of its queued responses before the conn is condemned.
const writeTimeout = 10 * time.Second

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// Server serves one Manager over TCP.
type Server struct {
	m       *lockmgr.Manager
	cfg     Config
	rec     *obs.Recorder // alias of cfg.Recorder (nil = disabled)
	cluster Cluster       // alias of cfg.Cluster (nil = not clustered)

	workers []*worker
	wg      sync.WaitGroup // one count per conn (accept to removeConn) and per running drain

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	draining bool
	nextID   int32
	nextW    int
}

// New wraps m in a Server with default Config. The caller retains
// ownership of m until Shutdown, which closes it.
func New(m *lockmgr.Manager) *Server {
	return NewWithConfig(m, Config{})
}

// NewWithConfig wraps m in a Server. It starts no goroutine: the worker
// loops run on the goroutines of whoever brings them events.
func NewWithConfig(m *lockmgr.Manager, cfg Config) *Server {
	cfg.fill()
	s := &Server{
		m:       m,
		cfg:     cfg,
		rec:     cfg.Recorder,
		cluster: cfg.Cluster,
		conns:   make(map[*conn]struct{}),
	}
	s.workers = make([]*worker, cfg.Workers)
	for i := range s.workers {
		s.workers[i] = newWorker(s, i)
	}
	return s
}

// Serve accepts connections on ln until Shutdown. It returns nil after a
// graceful drain, or the accept error that stopped it. Connections are
// assigned to workers round-robin.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("lockd: server already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.nextID++
		w := s.workers[s.nextW]
		s.nextW = (s.nextW + 1) % len(s.workers)
		c := &conn{id: s.nextID, nc: nc, w: w}
		if sc, ok := nc.(syscall.Conn); ok {
			c.rc, _ = sc.SyscallConn() // no descriptor (net.Pipe): every write takes the drain
		}
		c.cond = sync.NewCond(&c.mu)
		s.conns[c] = struct{}{}
		s.wg.Add(1) // beside the draining check: cannot race Shutdown's Wait at zero
		s.mu.Unlock()
		w.st.conns.Add(1)
		go c.readLoop()
	}
}

// Workers reports the number of event loops the server runs.
func (s *Server) Workers() int { return len(s.workers) }

// removeConn forgets a connection whose socket its worker, or the drain
// the worker left it to, has closed, and gives back its count in wg.
func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	_, ok := s.conns[c]
	delete(s.conns, c)
	s.mu.Unlock()
	if ok {
		s.wg.Done()
	}
}

// Shutdown gracefully drains the server: stop accepting, close the
// Manager so every parked acquire resolves (its waiter gets a
// definitive StatusExpired response), wake idle connection readers, and
// wait up to grace for every connection to be answered, flushed and
// retired before force-closing what remains. Buffered requests that
// arrived before the drain are still executed and their responses
// flushed.
func (s *Server) Shutdown(grace time.Duration) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	ln := s.ln
	for c := range s.conns {
		// Kick readers out of their blocking Read; bytes already received
		// are still parsed, executed, and answered by the worker.
		c.nc.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	s.m.Close() // expire sessions: every parked acquire completes with ErrExpired

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
	}
}

// statusOf maps manager errors onto wire statuses one-to-one.
func statusOf(err error) wire.Status {
	switch {
	case err == nil:
		return wire.StatusOK
	case errors.Is(err, lockmgr.ErrTimeout):
		return wire.StatusTimeout
	case errors.Is(err, lockmgr.ErrExpired), errors.Is(err, lockmgr.ErrClosed):
		return wire.StatusExpired
	case errors.Is(err, lockmgr.ErrNotHeld):
		return wire.StatusNotHeld
	case errors.Is(err, lockmgr.ErrHeld):
		return wire.StatusHeld
	default:
		return wire.StatusErr
	}
}
