package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"fairrw/internal/lockmgr"
	"fairrw/internal/lockmgr/client"
	"fairrw/internal/lockmgr/cluster"
	"fairrw/internal/lockmgr/introspect"
	"fairrw/internal/lockmgr/server"
	"fairrw/internal/lockmgr/wire"
	"fairrw/internal/stats"
)

// The service ladder replays client 0's op stream, at the workload's
// depth, against each lower layer in isolation. Each rung adds one layer
// to the one below it, so the differences between rungs are the layers'
// own costs and the rungs sum to the mean latency of one pair
// (ladder.pair_mean_us; rungs time n pairs, so they are means, and the
// median op_p50_us sits below the mean by the skew of the distribution):
//
//	  server.pipe_pair_us                      codec + ExecBatch + event loop + flusher, no kernel
//	+ net.residual_us      (tcp_raw − pipe)    loopback TCP: syscalls, wakeups, the kernel
//	+ client.self_us       (conn − tcp_raw)    client.Conn over the raw driver
//	+ ladder.queue_wait_us (pair_mean − conn)  what contending for the same keys adds
//
// and ladder.residual_us is the part of queue_wait the manager's own wait
// histogram does not account for.

const reps = 5 // repetitions per rung; the rung reports their median

// rawDriver speaks the wire protocol over any net.Conn with nothing but
// the codec: the benchmark's stand-in for a client, so a rung can include
// the server without including internal/lockmgr/client.
type rawDriver struct {
	nc   net.Conn
	br   *bufio.Reader
	wbuf []byte
	rbuf []byte
	sid  uint64
}

func newRawDriver(nc net.Conn) (*rawDriver, error) {
	d := &rawDriver{nc: nc, br: bufio.NewReaderSize(nc, 4096)}
	resp, err := d.roundTrip(&wire.Request{Op: wire.OpOpen, Lease: int64(svcLease)})
	if err != nil {
		return nil, err
	}
	d.sid = resp.SID
	return d, nil
}

func (d *rawDriver) roundTrip(req *wire.Request) (wire.Response, error) {
	var err error
	if d.wbuf, err = wire.AppendRequestFrame(d.wbuf[:0], req); err != nil {
		return wire.Response{}, err
	}
	if _, err = d.nc.Write(d.wbuf); err != nil {
		return wire.Response{}, err
	}
	return d.read()
}

func (d *rawDriver) read() (wire.Response, error) {
	p, err := wire.ReadFrame(d.br, &d.rbuf)
	if err != nil {
		return wire.Response{}, err
	}
	resp, err := wire.DecodeResponse(p)
	if err == nil && resp.Status != wire.StatusOK {
		err = fmt.Errorf("wire status %d", resp.Status)
	}
	return resp, err
}

// pairs sends depth acquire+release pairs from the stream in one write
// (depth 1: acquire, reply, release, reply) and checks every status.
func (d *rawDriver) pairs(stream []op, pos, depth int, names []string) error {
	req := wire.Request{SID: d.sid, Wait: int64(svcWait)}
	if depth == 1 {
		o := stream[pos%streamLen]
		req.Name, req.Excl = names[o.key], o.excl
		req.Op = wire.OpAcquire
		if _, err := d.roundTrip(&req); err != nil {
			return err
		}
		req.Op = wire.OpRelease
		_, err := d.roundTrip(&req)
		return err
	}
	d.wbuf = d.wbuf[:0]
	for j := 0; j < depth; j++ {
		o := stream[(pos+j)%streamLen]
		req.Name, req.Excl = names[o.key], o.excl
		for _, k := range []wire.Op{wire.OpAcquire, wire.OpRelease} {
			req.Op = k
			var err error
			if d.wbuf, err = wire.AppendRequestFrame(d.wbuf, &req); err != nil {
				return err
			}
		}
	}
	if _, err := d.nc.Write(d.wbuf); err != nil {
		return err
	}
	for j := 0; j < 2*depth; j++ {
		if _, err := d.read(); err != nil {
			return err
		}
	}
	return nil
}

// pipeListener hands Server.Serve one end of a net.Pipe per dial: the
// whole server runs (event loop, ExecBatch, flusher) and no kernel socket
// is involved.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial() (net.Conn, error) {
	a, b := net.Pipe()
	select {
	case l.conns <- b:
		return a, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// rungNames gives load goroutine i the names its rung locks. The rungs
// keep the workload's two load goroutines but take its contention away:
// on the one-key workload each goroutine gets a key of its own, so the
// gap between the top rung and the workload is the lock queue alone.
func rungNames(p svcParams, i int) []string {
	if p.keys == 1 {
		return []string{fmt.Sprintf("bench/rung-%d", i)}
	}
	return keyNames(p.keys)
}

// both runs fn(i, n) on the workload's two load goroutines at once; the
// time per n is then one goroutine's latency at the workload's concurrency.
func both(n int, fn func(i, n int)) {
	var wg sync.WaitGroup
	for i := 0; i < svcClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i, n)
		}(i)
	}
	wg.Wait()
}

// rawRung starts the workloads' server, behind an in-process pipe or loopback
// TCP, and connects one raw driver per load goroutine. run(n) performs n
// batches of the workload's shape on each; stop tears down and reports the
// first failure.
func rawRung(p svcParams, seed int64, rec *introspect.Recorder, pipe bool) (run func(n int), stop func() error, err error) {
	mgr := lockmgr.New(lockmgr.Config{Recorder: rec})
	srv := server.NewWithConfig(mgr, server.Config{Workers: svcServerConfig.Workers, Recorder: rec})
	var pl *pipeListener
	var ln net.Listener
	if pipe {
		pl = newPipeListener()
		ln = pl
	} else if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		srv.Shutdown(time.Second)
		return nil, nil, err
	}
	go srv.Serve(ln)

	var drivers [svcClients]*rawDriver
	var errs [svcClients]error
	stop = func() error {
		for _, d := range drivers {
			if d != nil {
				d.nc.Close()
			}
		}
		srv.Shutdown(time.Second)
		return errors.Join(errs[:]...)
	}
	for i := range drivers {
		var nc net.Conn
		if pipe {
			nc, err = pl.dial()
		} else {
			nc, err = net.Dial("tcp", ln.Addr().String())
		}
		if err == nil {
			if drivers[i], err = newRawDriver(nc); err != nil {
				nc.Close()
			}
		}
		if err != nil {
			stop()
			return nil, nil, err
		}
	}
	var pos [svcClients]int
	var streams [svcClients][]op
	var names [svcClients][]string
	for i := range streams {
		streams[i], names[i] = genStream(seed, i, p.sharedPct, p.keys), rungNames(p, i)
	}
	run = func(n int) {
		both(n, func(i, n int) {
			for j := 0; j < n && errs[i] == nil; j++ {
				errs[i] = drivers[i].pairs(streams[i], pos[i], p.depth, names[i])
				pos[i] += p.depth
			}
		})
	}
	return run, stop, nil
}

func svcLadder(p svcParams, lc *ladderCtx) (problems []string) {
	stream := genStream(lc.seed, 0, p.sharedPct, p.keys)
	names := keyNames(p.keys)
	out := lc.out
	check := func(what string, err error) {
		if err != nil {
			problems = append(problems, fmt.Sprintf("ladder %s: %v", what, err))
		}
	}
	perPair := func(nsPerBatch float64) float64 { return nsPerBatch / 1e3 / float64(p.depth) }

	if p.depth == 1 {
		// Only the handoff workload reaches fairlock's queue: on the
		// pipelined one nothing parks, so its fairlock rows stay 0.
		fairlockRungs(stream, lc.rung(0.10), out)
	}

	// lockmgr: the scalar pair, then the batch shaped like one Flush.
	check("lockmgr", lockmgrRungs(p, stream, names, lc.rung(0.12), out))

	// wire: each direction of the codec, and the bytes a pair costs.
	check("wire", wireRungs(stream, names, lc.rung(0.06), out))
	codecUS := 2 * (out["wire.req_encode_ns"] + out["wire.req_decode_ns"] +
		out["wire.resp_encode_ns"] + out["wire.resp_decode_ns"]) / 1e3

	// server over an in-process pipe, with the flight recorder off and on,
	// interleaved so both see the same host.
	plain, stopPlain, err := rawRung(p, lc.seed, nil, true)
	check("pipe rung", err)
	recd, stopRecd, err2 := rawRung(p, lc.seed, introspect.NewRecorder(0, 0), true)
	check("pipe rung with recorder", err2)
	if err == nil && err2 == nil {
		var a, b series
		for i := 0; i < 3; i++ {
			a = append(a, timeOps(lc.rung(0.04), 3, plain))
			b = append(b, timeOps(lc.rung(0.04), 3, recd))
		}
		out["server.pipe_pair_us"] = perPair(median(a))
		out["introspect.recorder_overhead_pct"] = (median(b)/median(a) - 1) * 100
		out["server.self_us"] = out["server.pipe_pair_us"] - 2*out["lockmgr.batch_op_ns"]/1e3 - codecUS
	}
	if err == nil {
		check("pipe rung", stopPlain())
	}
	if err2 == nil {
		check("pipe rung with recorder", stopRecd())
	}

	// The same drivers over loopback TCP: what the kernel adds.
	if run, stop, err := rawRung(p, lc.seed, nil, false); err != nil {
		check("tcp rung", err)
	} else {
		out["server.tcp_raw_pair_us"] = perPair(timeOps(lc.rung(0.12), reps, run))
		check("tcp rung", stop())
		out["net.residual_us"] = out["server.tcp_raw_pair_us"] - out["server.pipe_pair_us"]
	}

	// client.Conn in place of the raw driver.
	check("client rung", connRung(p, lc.seed, lc.rung(0.12), out))
	out["client.self_us"] = out["client.conn_pair_us"] - out["server.tcp_raw_pair_us"]

	// client.Router against a one-member cluster.Node-gated server. No
	// workload routes today; the rung is the future cluster workload's floor.
	check("router rung", routerRung(stream, names, lc.rung(0.16), out))
	check("cluster rung", clusterRungs(names, lc.rung(0.03), out))

	var h stats.Histogram
	out["stats.hist_add_ns"] = timeOps(lc.rung(0.01), reps, func(n int) {
		for i := 0; i < n; i++ {
			h.Add(uint64(i&0xffff) + 200)
		}
	})

	// Close the sum. The top rung has the workload's load goroutines but
	// none of its contention, so what is left is time queued for the lock;
	// the manager's own wait histogram says how much of that it saw.
	// Rungs are mean times, medians over repetitions; so the sum is against
	// the workload's mean pair latency at its median slice: each closed-loop
	// client completes half the pairs.
	out["ladder.pair_mean_us"] = svcClients / out["ops_per_s_median"] * 1e6
	out["ladder.queue_wait_us"] = out["ladder.pair_mean_us"] - out["client.conn_pair_us"]
	out["ladder.residual_us"] = out["ladder.queue_wait_us"] - out["lockmgr.wait_mean_us"]
	return problems
}

func lockmgrRungs(p svcParams, stream []op, names []string, budget time.Duration, out map[string]float64) error {
	m := lockmgr.New(lockmgr.Config{})
	defer m.Close()
	sid, err := m.Open(svcLease)
	if err != nil {
		return err
	}
	var bad int
	pos := 0
	out["lockmgr.scalar_pair_ns"] = timeOps(budget/2, reps, func(n int) {
		for i := 0; i < n; i++ {
			o := stream[pos%streamLen]
			pos++
			if m.Acquire(sid, names[o.key], o.excl, time.Second) != nil || m.Release(sid, names[o.key], o.excl) != nil {
				bad++
			}
		}
	})

	raw := make([][]byte, len(names))
	for i, n := range names {
		raw[i] = []byte(n)
	}
	ops := make([]lockmgr.BatchOp, 2*p.depth)
	sc := m.NewBatchScratch()
	batch := func(n int) {
		for i := 0; i < n; i++ {
			for j := 0; j < p.depth; j++ {
				o := stream[pos%streamLen]
				pos++
				ops[2*j] = lockmgr.BatchOp{Kind: lockmgr.BatchAcquire, Tag: 1, SID: sid, Excl: o.excl, Wait: int64(svcWait), Name: raw[o.key]}
				ops[2*j+1] = lockmgr.BatchOp{Kind: lockmgr.BatchRelease, Tag: 1, SID: sid, Excl: o.excl, Name: raw[o.key]}
			}
			m.ExecBatch(ops, sc)
			for j := range ops {
				if ops[j].Err != nil {
					bad++
				}
			}
		}
	}
	out["lockmgr.batch_op_ns"] = timeOps(budget/2, reps, batch) / float64(len(ops))
	const allocBatches = 2000
	before := readProc()
	batch(allocBatches)
	out["lockmgr.batch_allocs_per_op"] = float64(readProc().mallocs-before.mallocs) / float64(allocBatches*len(ops))
	if bad > 0 {
		return fmt.Errorf("%d manager ops failed", bad)
	}
	return nil
}

func wireRungs(stream []op, names []string, budget time.Duration, out map[string]float64) error {
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	req := wire.Request{Op: wire.OpAcquire, SID: 7, Wait: int64(svcWait)}
	var buf []byte
	pos := 0
	out["wire.req_encode_ns"] = timeOps(budget/4, reps, func(n int) {
		for i := 0; i < n; i++ {
			o := stream[pos%streamLen]
			pos++
			req.Name, req.Excl = names[o.key], o.excl
			var err error
			buf, err = wire.AppendRequestFrame(buf[:0], &req)
			note(err)
		}
	})
	// Pre-encode one request per key and mode so the decode rung replays
	// the stream without encoding.
	payloads := make([][]byte, 2*len(names))
	for k, name := range names {
		for e := 0; e < 2; e++ {
			req.Name, req.Excl = name, e == 1
			f, err := wire.AppendRequestFrame(nil, &req)
			note(err)
			payloads[2*k+e] = f[4:]
		}
	}
	var rr wire.RawRequest
	out["wire.req_decode_ns"] = timeOps(budget/4, reps, func(n int) {
		for i := 0; i < n; i++ {
			o := stream[pos%streamLen]
			pos++
			e := 0
			if o.excl {
				e = 1
			}
			note(wire.DecodeRequestRaw(payloads[2*int(o.key)+e], &rr))
		}
	})
	resp := wire.Response{Status: wire.StatusOK}
	out["wire.resp_encode_ns"] = timeOps(budget/4, reps, func(n int) {
		for i := 0; i < n; i++ {
			var err error
			buf, err = wire.AppendResponseFrame(buf[:0], &resp)
			note(err)
		}
	})
	respFrame, err := wire.AppendResponseFrame(nil, &resp)
	note(err)
	out["wire.resp_decode_ns"] = timeOps(budget/4, reps, func(n int) {
		for i := 0; i < n; i++ {
			r, err := wire.DecodeResponse(respFrame[4:])
			note(err)
			if r.Status != wire.StatusOK {
				note(errors.New("response did not round-trip"))
			}
		}
	})
	// Bytes on the wire for the stream's average pair: two requests with
	// the key's name, two responses.
	var bytes float64
	for _, o := range stream {
		bytes += 2*float64(4+wire.RequestHeaderLen+len(names[o.key])) + 2*float64(len(respFrame))
	}
	out["wire.bytes_per_pair"] = bytes / float64(len(stream))
	return firstErr
}

// connPairs performs n batches of the workload's shape on one client.Conn.
func connPairs(c *client.Conn, sid uint64, p svcParams, stream []op, names []string, pos *int, bad *int) func(n int) {
	var errs []error
	return func(n int) {
		for i := 0; i < n; i++ {
			if p.depth == 1 {
				o := stream[*pos%streamLen]
				*pos++
				if c.Acquire(sid, names[o.key], o.excl, svcWait) != nil || c.Release(sid, names[o.key], o.excl) != nil {
					*bad++
				}
				continue
			}
			for j := 0; j < p.depth; j++ {
				o := stream[*pos%streamLen]
				*pos++
				_ = c.QueueAcquire(sid, names[o.key], o.excl, svcWait)
				_ = c.QueueRelease(sid, names[o.key], o.excl)
			}
			var err error
			if errs, err = c.Flush(errs[:0]); err != nil {
				*bad++
			}
			for _, e := range errs {
				if e != nil {
					*bad++
				}
			}
		}
	}
}

// connRung is the tcp rung with client.Conn in place of the raw driver.
func connRung(p svcParams, seed int64, budget time.Duration, out map[string]float64) error {
	_, srv, ln, served, err := startServer(svcServerConfig, lockmgr.Config{})
	if err != nil {
		return err
	}
	defer func() { srv.Shutdown(time.Second); <-served }()
	var fns [svcClients]func(n int)
	var pos, bad [svcClients]int
	for i := range fns {
		c, err := client.Dial(ln.Addr().String())
		if err != nil {
			return err
		}
		defer c.Close()
		sid, err := c.Open(svcLease)
		if err != nil {
			return err
		}
		fns[i] = connPairs(c, sid, p, genStream(seed, i, p.sharedPct, p.keys), rungNames(p, i), &pos[i], &bad[i])
	}
	ns := timeOps(budget, reps, func(n int) { both(n, func(i, n int) { fns[i](n) }) })
	out["client.conn_pair_us"] = ns / 1e3 / float64(p.depth)
	if bad[0]+bad[1] > 0 {
		return fmt.Errorf("%d client ops failed", bad[0]+bad[1])
	}
	return nil
}

// routerRung measures client.Router's pair against a server gated by a
// one-member cluster.Node, and a plain client.Conn against the same
// server, so router_self_us is the Router alone. The Router API has no
// pipelining: both run at depth 1 whatever the workload's depth.
func routerRung(stream []op, names []string, budget time.Duration, out map[string]float64) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	self := ln.Addr().String()
	mgr := lockmgr.New(lockmgr.Config{})
	node, err := cluster.NewNode(cluster.Config{Self: self, Members: []string{self}, Manager: mgr})
	if err != nil {
		ln.Close()
		mgr.Close()
		return err
	}
	srv := server.NewWithConfig(mgr, server.Config{Workers: svcServerConfig.Workers, Cluster: node})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() { srv.Shutdown(time.Second); <-served }()

	r, err := client.NewRouter(client.RouterConfig{Seeds: []string{self}, Lease: svcLease})
	if err != nil {
		return err
	}
	defer r.Close()
	c, err := client.Dial(self)
	if err != nil {
		return err
	}
	defer c.Close()
	sid, err := c.Open(svcLease)
	if err != nil {
		return err
	}

	var pos, bad int
	viaRouter := func(n int) {
		for i := 0; i < n; i++ {
			o := stream[pos%streamLen]
			pos++
			if r.Acquire(names[o.key], o.excl, svcWait) != nil || r.Release(names[o.key], o.excl) != nil {
				bad++
			}
		}
	}
	viaConn := connPairs(c, sid, svcParams{depth: 1}, stream, names, &pos, &bad)
	var a, b series
	for i := 0; i < 3; i++ {
		a = append(a, timeOps(budget/6, 3, viaRouter))
		b = append(b, timeOps(budget/6, 3, viaConn))
	}
	out["client.router_pair_us"] = median(a) / 1e3
	out["client.router_self_us"] = (median(a) - median(b)) / 1e3
	if bad > 0 {
		return fmt.Errorf("%d routed ops failed", bad)
	}
	return nil
}

func clusterRungs(names []string, budget time.Duration, out map[string]float64) error {
	members := []string{"10.0.0.1:7600", "10.0.0.2:7600", "10.0.0.3:7600"}
	cm, err := cluster.NewMap(1, members)
	if err != nil {
		return err
	}
	var owned int
	out["cluster.owner_ns"] = timeOps(budget/2, reps, func(n int) {
		for i := 0; i < n; i++ {
			if cm.Owner(names[i%len(names)]) == members[0] {
				owned++
			}
		}
	})
	mgr := lockmgr.New(lockmgr.Config{})
	defer mgr.Close()
	// Never started: no heartbeats run, the three-member map stays current
	// and GateOp is in its steady state.
	node, err := cluster.NewNode(cluster.Config{Self: members[0], Members: members, Manager: mgr})
	if err != nil {
		return err
	}
	raw := make([][]byte, len(names))
	for i, n := range names {
		raw[i] = []byte(n)
	}
	out["cluster.gate_ns"] = timeOps(budget/2, reps, func(n int) {
		for i := 0; i < n; i++ {
			if node.GateOp(raw[i%len(raw)], true) {
				owned++
			}
		}
	})
	return nil
}
