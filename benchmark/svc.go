package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fairrw/internal/lockmgr"
	"fairrw/internal/lockmgr/client"
	"fairrw/internal/lockmgr/server"
)

// op is one generated acquire+release pair: which key, in which mode.
type op struct {
	key  uint8
	excl bool
}

// streamLen is the length of a generated op stream; loops cycle through it.
const streamLen = 1 << 16

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// genStream makes client's op stream from the seed: the code under test
// sees only these generated keys and modes, never the seed.
func genStream(seed int64, client, sharedPct, keys int) []op {
	rng := rand.New(rand.NewSource(int64(mix64(uint64(seed)*131 + uint64(client)))))
	s := make([]op, streamLen)
	for i := range s {
		s[i] = op{key: uint8(rng.Intn(keys)), excl: rng.Intn(100) >= sharedPct}
	}
	return s
}

func keyNames(keys int) []string {
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("bench/key-%02d", i)
	}
	return names
}

// svcServerConfig is the server every service workload and rung runs: the
// defaults of a host with two or more CPUs (two workers, shard affinity
// on). Workers is spelled out because the service workloads run on one P
// (see README, "Why one P"), where the default would be a single worker
// and the forwarding plane would go unmeasured.
var svcServerConfig = server.Config{Workers: 2}

const (
	svcClients = 2
	svcLease   = time.Minute      // the manager's MaxLease; a run is shorter
	svcWait    = 10 * time.Second // long enough that no acquire times out
)

// svcParams is what distinguishes the two service workloads.
type svcParams struct {
	depth     int // pairs per Flush; 1 = Acquire then Release, two round trips
	sharedPct int
	keys      int
}

type svcClient struct {
	conn   *client.Conn
	sid    uint64
	stream []op
	pos    int
	errs   []error
	lat    []float64

	pairs, failed, exclPairs int64 // since setup
	sliceOps                 int64
	first, last              time.Time
}

// svcInst is one running server with its two closed-loop clients, all in
// this process: lockmgr.New(Config{}) behind server.NewWithConfig(...,
// svcServerConfig) on loopback TCP.
type svcInst struct {
	p      svcParams
	names  []string
	mgr    *lockmgr.Manager
	srv    *server.Server
	served chan error
	cl     [svcClients]*svcClient

	// guarded is bumped, non-atomically, while holding an exclusive lock
	// on key 0 (svc-handoff-write has only that key): it equals the number
	// of exclusive grants iff the service kept them mutually exclusive.
	guarded atomic.Int64
}

func startServer(cfg server.Config, mcfg lockmgr.Config) (*lockmgr.Manager, *server.Server, net.Listener, chan error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("listen: %w", err)
	}
	mgr := lockmgr.New(mcfg)
	srv := server.NewWithConfig(mgr, cfg)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	return mgr, srv, ln, served, nil
}

func setupSvc(p svcParams, seed int64) (*svcInst, error) {
	in := &svcInst{p: p, names: keyNames(p.keys)}
	mgr, srv, ln, served, err := startServer(svcServerConfig, lockmgr.Config{})
	if err != nil {
		return nil, err
	}
	in.mgr, in.srv, in.served = mgr, srv, served
	for i := range in.cl {
		c, err := client.Dial(ln.Addr().String())
		if err != nil {
			in.shutdown()
			return nil, fmt.Errorf("dial: %w", err)
		}
		sid, err := c.Open(svcLease)
		if err != nil {
			in.shutdown()
			return nil, fmt.Errorf("open session: %w", err)
		}
		in.cl[i] = &svcClient{
			conn: c, sid: sid,
			stream: genStream(seed, i, p.sharedPct, p.keys),
			lat:    make([]float64, 0, 1<<17),
		}
	}
	return in, nil
}

func (in *svcInst) shutdown() {
	for _, c := range in.cl {
		if c != nil {
			c.conn.Close()
		}
	}
	in.srv.Shutdown(2 * time.Second)
	<-in.served
}

// loop runs one client's closed loop until the deadline: it sends the next
// request only after the previous reply.
func (c *svcClient) loop(in *svcInst, deadline time.Time, tb *traceBuf) {
	depth := in.p.depth
	c.lat = c.lat[:0]
	c.sliceOps = 0
	c.first = time.Now()
	for {
		t0 := time.Now()
		if !t0.Before(deadline) {
			break
		}
		txn := tb.begin("bench.txn", -1, uint64(c.pairs))
		bad := 0
		if depth == 1 {
			o := c.stream[c.pos%streamLen]
			c.pos++
			name := in.names[o.key]
			sp := tb.begin("client.Conn.Acquire", txn, uint64(c.pairs))
			err := c.conn.Acquire(c.sid, name, o.excl, svcWait)
			tb.end(sp)
			if err != nil {
				bad++
			} else {
				if o.excl && o.key == 0 {
					in.guarded.Store(in.guarded.Load() + 1)
					c.exclPairs++
				}
				sp = tb.begin("client.Conn.Release", txn, uint64(c.pairs))
				err = c.conn.Release(c.sid, name, o.excl)
				tb.end(sp)
				if err != nil {
					bad++
				}
			}
		} else {
			sp := tb.begin("client.Conn.Queue", txn, uint64(c.pairs))
			for j := 0; j < depth; j++ {
				o := c.stream[c.pos%streamLen]
				c.pos++
				name := in.names[o.key]
				// Queue errors are for names the protocol cannot carry;
				// these names are fixed and short.
				_ = c.conn.QueueAcquire(c.sid, name, o.excl, svcWait)
				_ = c.conn.QueueRelease(c.sid, name, o.excl)
			}
			tb.end(sp)
			sp = tb.begin("client.Conn.Flush", txn, uint64(c.pairs))
			errs, err := c.conn.Flush(c.errs[:0])
			tb.end(sp)
			c.errs = errs
			if err != nil {
				bad = depth
			} else {
				for j := 0; j < len(errs); j += 2 {
					if errs[j] != nil || errs[j+1] != nil {
						bad++
					}
				}
			}
		}
		c.last = time.Now()
		tb.end(txn)
		c.lat = append(c.lat, us(c.last.Sub(t0))/float64(depth))
		c.pairs += int64(depth)
		c.sliceOps += int64(depth)
		c.failed += int64(bad)
		if bad == depth && depth > 1 {
			return // transport error: the connection is unusable
		}
	}
}

func (in *svcInst) run(d time.Duration, tr *tracer) sliceSample {
	// Renew the leases off the clock, so no run length can expire one.
	for _, c := range in.cl {
		if err := c.conn.KeepAlive(c.sid, svcLease); err != nil {
			c.failed++
		}
	}
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for i, c := range in.cl {
		wg.Add(1)
		go func(i int, c *svcClient) {
			defer wg.Done()
			c.loop(in, deadline, tr.thread(i))
		}(i, c)
	}
	wg.Wait()
	var s sliceSample
	first, last := in.cl[0].first, in.cl[0].last
	for _, c := range in.cl {
		s.ops += c.sliceOps
		s.lat = append(s.lat, c.lat...)
		if c.first.Before(first) {
			first = c.first
		}
		if c.last.After(last) {
			last = c.last
		}
	}
	s.wall = last.Sub(first)
	return s
}

func (in *svcInst) threads() int { return svcClients }

// counters reads the exported counters of the layers under the clients.
func (in *svcInst) counters(out map[string]float64) {
	var pairs int64
	for _, c := range in.cl {
		pairs += c.pairs
	}
	ms := in.mgr.Stats()
	out["lockmgr.wait_mean_us"] = ms.WaitMeanUS
	out["lockmgr.wait_p50_us"] = ms.WaitP50US
	out["lockmgr.wait_p99_us"] = ms.WaitP99US
	out["lockmgr.hold_p50_us"] = ms.HoldP50US
	out["lockmgr.grants"] = float64(ms.SharedGrants + ms.ExclGrants)
	out["lockmgr.timeouts"] = float64(ms.Timeouts)

	var w server.WorkerStats
	for _, s := range in.srv.WorkerStats() {
		w.Wakeups += s.Wakeups
		w.Batches += s.Batches
		w.BatchOps += s.BatchOps
		w.Parks += s.Parks
		w.FlushStalls += s.FlushStalls
		w.Backpressure += s.Backpressure
		w.HomeOps += s.HomeOps
		w.FwdOps += s.FwdOps
		w.FwdRuns += s.FwdRuns
		w.FwdInline += s.FwdInline
		w.Writevs += s.Writevs
		w.WritevBytes += s.WritevBytes
		w.FlushEscalations += s.FlushEscalations
	}
	ops := float64(w.BatchOps)
	if w.Batches > 0 {
		out["server.ops_per_batch"] = ops / float64(w.Batches)
	}
	if ops > 0 {
		out["server.wakeups_per_op"] = float64(w.Wakeups) / ops
		out["server.writevs_per_op"] = float64(w.Writevs) / ops
		out["server.writev_bytes_per_op"] = float64(w.WritevBytes) / ops
	}
	if pairs > 0 {
		out["server.parks_per_pair"] = float64(w.Parks) / float64(pairs)
	}
	if named := w.HomeOps + w.FwdOps; named > 0 {
		out["server.fwd_op_share"] = float64(w.FwdOps) / float64(named)
	}
	if w.FwdRuns > 0 {
		out["server.fwd_inline_share"] = float64(w.FwdInline) / float64(w.FwdRuns)
	}
	out["server.flush_stalls"] = float64(w.FlushStalls)
	out["server.flush_escalations"] = float64(w.FlushEscalations)
	out["server.backpressure"] = float64(w.Backpressure)
}

// finish checks the service's outputs, then shuts everything down. The
// returned problems fail the run.
func (in *svcInst) finish() (attempted, failed int64, problems []string) {
	var excl int64
	for _, c := range in.cl {
		attempted += c.pairs
		failed += c.failed
		excl += c.exclPairs
	}
	if failed > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d pairs got a non-OK response", failed, attempted))
	}
	ms := in.mgr.Stats()
	if g := int64(ms.SharedGrants + ms.ExclGrants); g != attempted-failed {
		problems = append(problems, fmt.Sprintf("lockmgr granted %d, clients observed %d pairs", g, attempted-failed))
	}
	if ms.Timeouts != 0 {
		problems = append(problems, fmt.Sprintf("%d acquires timed out", ms.Timeouts))
	}
	if g := in.guarded.Load(); g != excl {
		problems = append(problems, fmt.Sprintf("mutual exclusion: guarded counter %d after %d exclusive grants", g, excl))
	}
	for _, c := range in.cl {
		if err := c.conn.CloseSession(c.sid); err != nil {
			problems = append(problems, fmt.Sprintf("close session: %v", err))
		}
	}
	if n := in.mgr.SessionCount(); n != 0 {
		problems = append(problems, fmt.Sprintf("%d sessions leaked", n))
	}
	if w := in.mgr.Stats().Waiting; w != 0 {
		problems = append(problems, fmt.Sprintf("%d waiters leaked", w))
	}
	// No hold may outlive its session: every key must be free to take
	// exclusively, right now.
	if sid, err := in.mgr.Open(svcLease); err != nil {
		problems = append(problems, fmt.Sprintf("open probe session: %v", err))
	} else {
		for _, name := range in.names {
			if err := in.mgr.Acquire(sid, name, true, 0); err != nil {
				problems = append(problems, fmt.Sprintf("leaked hold on %s: %v", name, err))
			}
		}
		if err := in.mgr.CloseSession(sid); err != nil {
			problems = append(problems, fmt.Sprintf("close probe session: %v", err))
		}
	}
	in.shutdown()
	return attempted, failed, problems
}
