package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"

	"fairrw/internal/lockmgr"
	"fairrw/internal/lockmgr/wire"
	"fairrw/internal/obs"
	"fairrw/internal/stats"
)

// wstats are one worker's event-loop counters, the live half of the
// observability plane. They are written by whoever holds loopMu (plus
// the reader goroutines for backpressure, the drains for their writes
// and Serve for the conn gauge) and read by the admin scraper without
// stopping the loop, hence atomics; the pad keeps one worker's counter
// block from false-sharing with its neighbour's.
type wstats struct {
	wakeups      atomic.Uint64 // cycles run for listed events: their bringers found the loop busy
	donations    atomic.Uint64 // cycles run by the event's own bringer
	batches      atomic.Uint64 // ExecBatch calls with at least one op
	batchOps     atomic.Uint64 // ops summed over those batches
	parks        atomic.Uint64 // acquires queued in the manager (conn parked)
	unparks      atomic.Uint64 // their completions answered
	condemned    atomic.Uint64 // conns condemned (malformed frame, write error)
	drained      atomic.Uint64 // conns retired cleanly at EOF
	flushes      atomic.Uint64 // coalesced chunks written, inline or by a drain
	inline       atomic.Uint64 // of those, written whole by the loop itself
	flushStalls  atomic.Uint64 // drains started because a socket refused bytes
	writevs      atomic.Uint64 // socket writes issued: inline writes and drain passes
	writevBytes  atomic.Uint64 // bytes summed over those writes
	writeErrs    atomic.Uint64 // conns condemned on a write error
	backpressure atomic.Uint64 // reader blocked on the full-inbox bound
	namedOps     atomic.Uint64 // acquire/release ops decoded (WorkerStats.HomeOps)
	outBlocked   atomic.Uint64 // times a conn's parse paused on maxOutq
	conns        atomic.Int64  // connections currently owned: accepted, not yet dropped
	_            [24]byte
}

// wrote books one socket write of the given bytes.
func (st *wstats) wrote(bytes int) {
	st.writevs.Add(1)
	st.writevBytes.Add(uint64(bytes))
}

// event is something a worker's loop has to take in: c has news — bytes,
// end of stream, a report from its drain — or, when cp.W is set, c's
// parked acquire has its outcome.
type event struct {
	c  *conn
	cp lockmgr.Completion
}

// worker is one event loop, and the loop is a lock, not a goroutine: it
// owns a set of connections outright, and whoever holds loopMu is the loop
// at that moment — the only party that parses their buffers, executes
// their requests and answers them. One cycle takes in every listed event,
// decodes all ready connections into a single lockmgr batch, executes it,
// encodes the responses — those of parked acquires the batch's releases
// granted included — and writes each touched connection's bytes with one
// non-blocking write; only what the socket will not take at once goes to
// that conn's drain, so the loop never waits on a peer.
//
// Whoever has an event brings it (bring): a reader that lands new bytes, a
// drain reporting back, or whoever completes a parked acquire — another
// worker's loop or the manager's timer. If loopMu is free the bringer is
// the loop for a cycle, so a request or a grant costs a function call, not
// a context switch; if not, it lists the event and whoever holds the loop
// runs it (release). No goroutine belongs to the worker.
type worker struct {
	srv *Server
	idx int // worker index, the admin plane's `worker` label

	st     wstats
	bhMu   sync.Mutex      // guards batchH against the admin scraper
	batchH stats.Histogram // ops per executed batch

	evMu sync.Mutex // guards evs and every conn's listed
	evs  []event    // brought while the loop was busy

	loopMu sync.Mutex // held by whoever is being the loop

	// All fields below are guarded by loopMu.
	sc      *lockmgr.BatchScratch
	ops     []lockmgr.BatchOp // ops[i].Waiter is the conn that sent it
	opEnd   []int             // parse cursor just past ops[i]'s frame
	ready   []*conn           // conns to service this cycle
	payload []byte            // membership payload of the frame being answered
}

func newWorker(s *Server, idx int) *worker {
	return &worker{srv: s, idx: idx, sc: s.m.NewBatchScratch()}
}

// bring delivers one event and must not block — the caller may be another
// worker's loop. If the loop is free the caller is the loop for a cycle
// that starts with its event; otherwise the event is listed (one readiness
// entry per conn at most) and the loop tried once more, which is what
// hands the event to the holder: see release.
func (w *worker) bring(ev event) {
	if w.loopMu.TryLock() {
		w.st.donations.Add(1)
		w.ingest(ev)
	} else {
		w.evMu.Lock()
		if ev.cp.W != nil {
			w.evs = append(w.evs, ev)
		} else if !ev.c.listed {
			ev.c.listed = true
			w.evs = append(w.evs, ev)
		}
		w.evMu.Unlock()
		if !w.loopMu.TryLock() {
			return
		}
		w.st.wakeups.Add(1)
	}
	w.process()
	w.release()
}

// release ends the caller's turn as the loop; it is the only function that
// unlocks loopMu. No listed event is stranded: an event is listed before
// its bringer's second TryLock, and that TryLock fails only while someone
// holds loopMu — someone who has yet to unlock it here and look at the
// list afterwards, where the event already is. So the holder checks after
// every Unlock and runs another cycle while there is something listed and
// the loop is still free; if it is not, the same duty has passed to
// whoever took it.
func (w *worker) release() {
	for {
		w.loopMu.Unlock()
		w.evMu.Lock()
		idle := len(w.evs) == 0
		w.evMu.Unlock()
		if idle || !w.loopMu.TryLock() {
			return
		}
		w.st.wakeups.Add(1)
		w.process()
	}
}

// Complete delivers the outcome of c's parked acquire from outside c's
// loop (lockmgr.Waiter).
func (c *conn) Complete(cp lockmgr.Completion) { c.w.bring(event{c, cp}) }

// takeEvents ingests every listed event.
func (w *worker) takeEvents() {
	w.evMu.Lock()
	for i, ev := range w.evs {
		if ev.cp.W == nil {
			ev.c.listed = false
		}
		w.ingest(ev)
		w.evs[i] = event{}
	}
	w.evs = w.evs[:0]
	w.evMu.Unlock()
}

// ingest takes one event into the cycle. Loop holder only.
func (w *worker) ingest(ev event) {
	if ev.cp.W != nil {
		w.unpark(ev.c, ev.cp)
	} else {
		w.noteReady(ev.c)
	}
}

// noteReady ingests a readiness event: pull the conn's inbox into its
// pending buffer and schedule it for this cycle.
func (w *worker) noteReady(c *conn) {
	if c.removed {
		return // a late reader event for a retired conn
	}
	if c.writeFailed.Load() {
		c.dead = true // its drain condemned the socket; retire the conn
	}
	if c.wblocked && c.outBytes.Load() <= maxOutq {
		c.wblocked = false // the drain caught up; resume parsing
	}
	c.take()
	if !c.inReady {
		c.inReady = true
		w.ready = append(w.ready, c)
	}
}

// unpark answers c's parked acquire: its response goes out first, then
// the conn rejoins the parse rotation so the frames deferred behind it
// finally execute.
func (w *worker) unpark(c *conn, cp lockmgr.Completion) {
	if c.removed {
		return
	}
	c.parked = false
	w.st.unparks.Add(1)
	w.srv.rec.Record(uint32(w.idx), obs.Record{
		Lock: uint64(cp.Hash), Tid: cp.SID, Aux: uint64(cp.Wait), Node: obs.ConnNode(c.id), Kind: obs.KGrant})
	if !c.dead {
		resp := wire.Response{Status: statusOf(cp.Err)}
		c.wbuf, _ = wire.AppendResponseFrame(c.wbuf, &resp)
		c.flushMark = true
	}
	w.noteReady(c)
}

// process is one loop cycle: take every listed event, then service the
// ready conns — parse → execute → encode rounds until none can make
// progress, one write per touched conn, lifecycle cleanup.
func (w *worker) process() {
	w.takeEvents()
	for w.round() {
		w.takeEvents() // completions listed by a loop this round was running
	}
	for _, c := range w.ready {
		w.flush(c)
	}
	for _, c := range w.ready {
		c.inReady = false
		w.cleanupIfDone(c)
	}
	w.ready = w.ready[:0]
}

// round takes every complete frame of every ready conn into one
// ExecBatch and encodes the responses; it reports whether it found any
// work. Later rounds pick up what a stats frame held back.
func (w *worker) round() bool {
	w.ops = w.ops[:0]
	w.opEnd = w.opEnd[:0]
	for _, c := range w.ready {
		w.parseConn(c)
	}
	n := len(w.ops)
	if n == 0 {
		return false
	}
	w.st.batches.Add(1)
	w.st.batchOps.Add(uint64(n))
	w.bhMu.Lock()
	w.batchH.Add(uint64(n))
	w.bhMu.Unlock()
	w.srv.m.ExecBatch(w.ops, w.sc)
	w.encode()
	// The parked acquires this batch resolved: ours are answered here, in
	// the releaser's round; another worker's through its loop.
	for _, cp := range w.sc.Completions() {
		if c, ok := cp.W.(*conn); ok && c.w == w {
			w.unpark(c, cp)
		} else {
			cp.W.Complete(cp)
		}
	}
	for _, c := range w.ready {
		c.compact()
	}
	return true
}

// The answers a frame the server answers itself owes, carried in its
// BatchNone op's Err from parseConn to encode.
var (
	errStats    = errors.New("server: stats snapshot")
	errInfo     = errors.New("server: cluster membership")
	errNotOwner = errors.New("server: refused by the cluster gate or the fence")
)

// parseConn decodes every complete frame in c's pending buffer into the
// worker's batch, one op per frame, stopping at a parked acquire, a
// paused write queue (wblocked), an OpStats frame (its snapshot covers the
// frames before it and none after), the first malformed frame (which
// condemns the stream), or the first incomplete frame.
//
// Frames the batch cannot answer join it as BatchNone ops, answered by
// encode in request order: OpStats and OpClusterInfo are served from
// server state, and so is any op the cluster refuses. The gate runs here,
// so a name this node does not own never reaches the manager's table: an
// acquire or release the cluster does not let this node execute is
// answered StatusNotOwner with the membership attached, so the client can
// re-aim (names ExecBatch rejects anyway skip the gate). On a fenced
// (isolated) node OpOpen and OpKeepAlive are refused too: granting or
// renewing a lease from a quorum-less minority would let a partitioned
// client outlive the majority's failover quarantine. OpClose stays
// ungated — releasing everything is always safe.
func (w *worker) parseConn(c *conn) {
	var req wire.RawRequest
	named := uint64(0)
	cl := w.srv.cluster
	for !c.parked && !c.dead && !c.wblocked {
		buf := c.pending[c.parsePos:]
		if len(buf) < 4 {
			break
		}
		n := int(binary.BigEndian.Uint32(buf))
		if n == 0 || n > wire.MaxRequestPayload {
			c.dead = true // flushed responses still go out; then the conn drops
			break
		}
		if len(buf) < 4+n {
			break
		}
		if err := wire.DecodeRequestRaw(buf[4:4+n], &req); err != nil {
			c.dead = true
			break
		}
		c.parsePos += 4 + n
		op := lockmgr.BatchOp{Kind: lockmgr.BatchNone, Tag: c.id, SID: req.SID, Excl: req.Excl, Wait: req.Wait,
			Lease: req.Lease, Name: req.Name, Waiter: c}
		switch req.Op {
		case wire.OpStats:
			op.Err = errStats
		case wire.OpClusterInfo:
			op.Err = errInfo
		case wire.OpOpen, wire.OpKeepAlive:
			switch {
			case cl != nil && cl.Isolated():
				op.Err = errNotOwner
			case req.Op == wire.OpOpen:
				op.Kind = lockmgr.BatchOpen
			default:
				op.Kind = lockmgr.BatchKeepAlive
			}
		case wire.OpClose:
			op.Kind = lockmgr.BatchCloseSession
		case wire.OpAcquire, wire.OpRelease:
			acq := req.Op == wire.OpAcquire
			switch {
			case cl != nil && len(req.Name) > 0 && len(req.Name) <= lockmgr.MaxNameLen && !cl.GateOp(req.Name, acq):
				op.Err = errNotOwner
			case acq:
				op.Kind = lockmgr.BatchAcquire
				named++
			default:
				op.Kind = lockmgr.BatchRelease
				named++
			}
		}
		w.ops = append(w.ops, op)
		w.opEnd = append(w.opEnd, c.parsePos)
		if op.Err == errStats {
			break
		}
	}
	if named > 0 {
		w.st.namedOps.Add(named)
	}
}

// encode turns the executed batch into response frames in each conn's
// write buffer, one per frame in request order; a BatchNone op gets the
// answer its Err names. A would-block acquire is queued in the manager by
// now and parks its conn: nothing is answered, the parse cursor rewinds to
// just past its frame so what was deferred behind it re-parses after the
// completion, and the loop moves on.
func (w *worker) encode() {
	for i := range w.ops {
		op := &w.ops[i]
		c := op.Waiter.(*conn)
		if op.Err == lockmgr.ErrWouldBlock {
			c.parked, c.parkSID = true, op.SID
			c.parsePos = w.opEnd[i]
			w.st.parks.Add(1)
			w.srv.rec.Record(uint32(w.idx), obs.Record{Lock: uint64(obs.Hash(op.Name)),
				Tid: op.SID, Aux: uint64(max(op.Wait, 0)), Node: obs.ConnNode(c.id), Kind: obs.KEnq})
			continue
		}
		if c.dead || op.Err == lockmgr.ErrDeferred {
			continue // deferred frames re-parse after the park resolves
		}
		resp := wire.Response{Status: statusOf(op.Err), SID: op.OutSID}
		if op.Kind == lockmgr.BatchNone {
			resp.Status, resp.Payload = w.answer(op.Err)
		}
		var err error
		c.wbuf, err = wire.AppendResponseFrame(c.wbuf, &resp)
		if err != nil {
			c.dead = true
			continue
		}
		c.flushMark = true
	}
}

// statsPayload is the wire Stats response: the manager snapshot plus
// the runtime facts a load generator needs to self-describe its bench
// rows (worker count, cluster shape).
type statsPayload struct {
	lockmgr.Snapshot
	ServerWorkers  int    `json:"server_workers"`
	ClusterMembers int    `json:"cluster_members,omitempty"`
	ClusterEpoch   uint64 `json:"cluster_epoch,omitempty"`
}

// answer is the response a BatchNone op owes: its sentinel's status, and
// a payload valid until the next call.
func (w *worker) answer(err error) (wire.Status, []byte) {
	cl := w.srv.cluster
	if err == errStats {
		sp := statsPayload{Snapshot: w.srv.m.Stats(), ServerWorkers: len(w.srv.workers)}
		if cl != nil {
			sp.ClusterMembers = cl.MemberCount()
			sp.ClusterEpoch = cl.Epoch()
		}
		j, err := json.Marshal(sp)
		if err != nil {
			return wire.StatusErr, nil
		}
		return wire.StatusOK, j
	}
	st := wire.StatusNotOwner
	if err == errInfo {
		st = wire.StatusOK
	}
	if cl == nil {
		// A non-clustered server answers OpClusterInfo OK with an empty
		// payload: "I am the whole cluster" — the client treats the
		// dialed address as the sole owner.
		return st, nil
	}
	w.payload = cl.AppendMembership(w.payload[:0])
	return st, w.payload
}

// flush writes a conn's coalesced responses. When nothing of the conn's
// is queued, the loop writes the socket itself: one non-blocking attempt,
// which on a healthy peer takes everything. What is left — a short write,
// a full socket buffer, a conn with no file descriptor (net.Pipe), or
// anything at all while earlier bytes are still queued — is appended to
// the conn's queue, the slow-peer path, and a drain goroutine is started
// for the conn unless one is already running; wbuf itself is reset and
// kept. A conn whose queue exceeds maxOutq is parse-paused (wblocked)
// until its drain catches up, turning a peer that reads too slowly into
// TCP backpressure instead of unbounded queue growth.
//
// The drain is counted in srv.wg so Shutdown waits for queued responses
// to be written. That Add cannot race Shutdown's Wait at a zero counter:
// flush only runs for a conn that is still in srv.conns, which holds a
// count of its own from accept to removeConn.
func (w *worker) flush(c *conn) {
	if !c.flushMark || len(c.wbuf) == 0 {
		c.flushMark = false
		return
	}
	c.flushMark = false
	w.st.flushes.Add(1)
	sent := 0
	if c.rc != nil && !c.drainBusy() {
		if sent = c.writeOnce(); sent > 0 {
			w.st.wrote(sent)
		}
		if sent == len(c.wbuf) {
			w.st.inline.Add(1)
			c.wbuf = c.wbuf[:0]
			return
		}
	}
	left := c.wbuf[sent:]
	c.wbuf = c.wbuf[:0]
	c.fmu.Lock()
	if c.fdropped {
		c.fmu.Unlock()
		return
	}
	c.out = append(c.out, left...)
	out := c.outBytes.Add(int64(len(left)))
	start := !c.fqueued
	c.fqueued = true
	c.fmu.Unlock()
	if out > maxOutq && !c.wblocked {
		c.wblocked = true
		w.st.outBlocked.Add(1)
	}
	if start {
		if c.rc != nil {
			w.st.flushStalls.Add(1) // the peer is behind, not merely descriptor-less
		}
		if c.drainFn == nil {
			c.drainFn = c.drain
		}
		w.srv.wg.Add(1)
		go c.drainFn()
	}
}

// cleanupIfDone retires a conn whose stream is finished: condemned
// (malformed frame, write error) or cleanly drained (reader hit EOF and
// no complete frame remains). A parked conn always waits for its
// completion first; when the peer is gone that acquire can never be
// answered, so it leaves the manager's queue at once (the completion that
// comes back is the cancellation) instead of waiting there — and then
// holding the lock — until its wait or lease runs out.
func (w *worker) cleanupIfDone(c *conn) {
	if c.parked {
		if c.dead = c.dead || c.peerGone; c.dead {
			w.srv.m.CancelWait(c.parkSID, c)
		}
		return
	}
	if c.dead || (c.eofSeen && !c.hasFrame()) {
		w.drop(c)
	}
}

// hasFrame reports whether a complete frame is buffered.
func (c *conn) hasFrame() bool {
	buf := c.pending[c.parsePos:]
	if len(buf) < 4 {
		return false
	}
	n := int(binary.BigEndian.Uint32(buf))
	if n == 0 || n > wire.MaxRequestPayload {
		return true // malformed counts as work: parse will condemn it
	}
	return len(buf) >= 4+n
}

// drop forgets a conn, classifying the exit for the admin plane:
// condemned (malformed frame or write error set dead) or drained (clean
// EOF with nothing left to parse). While a drain is running the socket
// close, and with it the conn's removal from the server's set, is left to
// that drain: answered requests are flushed before the FIN even on a
// condemned stream, and Shutdown's force-close can still reach a drain
// stuck on a peer that reads nothing. A conn its drain condemned is
// already closed; closing it again is harmless.
func (w *worker) drop(c *conn) {
	if c.removed {
		return
	}
	if c.dead {
		w.st.condemned.Add(1)
		w.srv.rec.Record(uint32(w.idx), obs.Record{Node: obs.ConnNode(c.id), Kind: obs.KCondemn})
	} else {
		w.st.drained.Add(1)
		w.srv.rec.Record(uint32(w.idx), obs.Record{Node: obs.ConnNode(c.id), Kind: obs.KDrain})
	}
	c.removed = true
	c.dead = true
	w.st.conns.Add(-1)
	c.fmu.Lock()
	closeNow := !c.fqueued
	if closeNow {
		c.fdropped = true
	} else {
		c.closeOnFlush = true
	}
	c.fmu.Unlock()
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast() // free a reader stuck on a full inbox
	c.mu.Unlock()
	if closeNow {
		c.nc.Close()
		w.srv.removeConn(c)
	}
}
