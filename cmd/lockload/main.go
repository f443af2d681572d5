// lockload is the load generator for lockd. It runs in three modes:
//
// Closed loop (default): N worker goroutines, each with its own
// connection and session, issue lock transactions back to back — each
// worker's next request waits for its previous response. Throughput is
// the primary output; latency percentiles describe an unloaded or
// self-limited system. -depth pipelines several transactions per flush,
// which amortizes the per-syscall cost that dominates loopback runs.
//
// Open loop (-rate R): arrivals follow a Poisson process at R
// transactions/second across all connections, and each transaction's
// latency is measured from its *scheduled* arrival time, not from when
// the client got around to sending it. When the server falls behind,
// queueing delay therefore lands in the histogram instead of silently
// stretching the arrival gaps — the coordination-omission correction
// that makes latency-under-load curves honest. How late the generator
// itself sent is reported beside it (late_p50_us, late_p99_us: send time
// minus scheduled arrival), so a run whose client could not keep its
// schedule shows as one. -readpct and -rate take comma-separated lists,
// one run per (rate, read %) pair.
//
// Cluster loop (-cluster a,b,c): each worker drives a cluster-aware
// Router seeded with the given members; ops route to each name's
// rendezvous owner and re-aim across failovers. The run reports the
// membership epoch, the per-node op share (the live measurement of the
// rendezvous split), and a separate failover-error count for outcomes
// a member death explains — so a kill-one-node run can be asserted to
// finish with *only* lease-window errors.
//
// One transaction is an acquire+release pair (two wire ops) on a key
// drawn from -keys — uniformly by default, or Zipfian with -zipf s
// (s > 1; key 0 hottest), which is what makes lockd's hot-lock table
// light up with the generator's actual skew.
//
//	lockload -conns 8 -duration 5s -readpct 90            # closed loop
//	lockload -depth 4 -json                               # pipelined, JSON out
//	lockload -rate 5000,10000,20000,40000                 # latency curve
//	lockload -readpct 0,50,90,100 -depth 4                # read-ratio sweep
//	lockload -zipf 1.3 -prom client.prom                  # skewed keys, prom out
//	lockload -cluster :7601,:7602,:7603 -zipf 1.2         # routed cluster loop
//
// -warmup excludes a leading window from every statistic (histograms
// reset when it closes), and the window ends when -duration does: a
// pair still in flight then is not counted. -json emits the rows as a
// JSON array, which CI's smokes assert on. -prom writes the
// client-observed latency histograms in the same Prometheus text schema
// lockd's admin plane exports (lockload_latency_seconds vs
// lockd_wait_seconds), so client- and server-attributed time can be
// diffed in one report: the gap is the wire, the batching, and the
// event loop.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fairrw/internal/lockmgr"
	"fairrw/internal/lockmgr/client"
	"fairrw/internal/stats"
)

// point is one run's result, shaped for both the human table and -json.
type point struct {
	Mode    string  `json:"mode"` // "closed", "open", or "cluster"
	Server  string  `json:"server,omitempty"`
	ReadPct int     `json:"read_pct"`
	Conns   int     `json:"conns"`
	Depth   int     `json:"depth,omitempty"`
	Rate    float64 `json:"rate,omitempty"` // open loop: target transactions/s
	DurS    float64 `json:"duration_s"`

	// Cluster mode: the membership the Router saw and where the ops
	// landed. node_share is the fraction of successful ops served by
	// each member — the live measurement of the rendezvous split.
	ClusterMembers int                `json:"cluster_members,omitempty"`
	ClusterEpoch   uint64             `json:"cluster_epoch,omitempty"`
	NodeShare      map[string]float64 `json:"node_share,omitempty"`

	// Host/server metadata, so a row is self-describing: a "workers=4"
	// number means nothing without knowing how many schedulable CPUs
	// the generator and the daemon actually had.
	GoMaxProcs    int `json:"gomaxprocs,omitempty"`
	NumCPU        int `json:"num_cpu,omitempty"`
	ServerWorkers int `json:"server_workers,omitempty"`

	Pairs        uint64  `json:"pairs"`
	OpsPerSec    float64 `json:"ops_per_sec"` // wire ops: 2 per pair
	AchievedRate float64 `json:"achieved_rate,omitempty"`
	Timeouts     uint64  `json:"timeouts"`
	Errors       uint64  `json:"errors"`
	// FailoverErrs counts cluster-mode outcomes explained by a member
	// death: routing that ran out of reachable owners mid-failover,
	// sessions that expired at their deadline, and holds that died
	// with their node (release answered NotHeld). Expected — and
	// bounded by the lease window — in any run that kills a node;
	// anything else lands in Errors and fails the run.
	FailoverErrs uint64 `json:"failover_errs,omitempty"`

	P50US  float64 `json:"p50_us"`
	P95US  float64 `json:"p95_us"`
	P99US  float64 `json:"p99_us"`
	P999US float64 `json:"p999_us"`
	MeanUS float64 `json:"mean_us"`
	MaxUS  float64 `json:"max_us"`
	// Open loop: how late the sends left, after their scheduled arrival.
	LateP50US *float64 `json:"late_p50_us,omitempty"`
	LateP99US *float64 `json:"late_p99_us,omitempty"`
}

// worker carries one goroutine's tallies; merged after the run.
type worker struct {
	pairs    uint64
	timeouts uint64
	errors   uint64
	failover uint64
	lat      stats.Histogram // transaction latency, ns
	late     stats.Histogram // open loop: send time minus scheduled arrival, ns

	// Cluster mode: successful pairs per serving member, and the
	// membership this worker's Router ended the run with.
	nodeOps map[string]uint64
	epoch   uint64
	members int

	gen uint32 // the warmup generation the tallies belong to
}

// sync resets the tallies when the warmup window closes (gen moves).
func (w *worker) sync(gen *atomic.Uint32) {
	if g := gen.Load(); g != w.gen {
		w.gen = g
		w.pairs, w.timeouts, w.errors, w.failover = 0, 0, 0, 0
		w.lat.Reset()
		w.late.Reset()
		clear(w.nodeOps)
	}
}

type runCfg struct {
	addr     string
	seeds    []string // cluster mode: seed addresses for the Router
	conns    int
	duration time.Duration
	warmup   time.Duration
	readPct  int
	keys     int
	depth    int
	rate     float64 // open loop: transactions/s across all conns; 0 = closed loop
	cluster  bool
	zipf     float64 // key-skew exponent; 0 = uniform
	wait     time.Duration
	lease    time.Duration
}

// picker draws key indexes: uniform, or Zipfian when -zipf is set (key
// 0 is the hottest — the skew lockd's hot-lock table should surface).
func (cfg *runCfg) picker(rng *rand.Rand, n int) func() int {
	if cfg.zipf > 1 {
		z := rand.NewZipf(rng, cfg.zipf, 1, uint64(n-1))
		return func() int { return int(z.Uint64()) }
	}
	return func() int { return rng.Intn(n) }
}

var (
	addr       = flag.String("addr", "127.0.0.1:7600", "lockd address")
	conns      = flag.Int("conns", 8, "concurrent client goroutines (one connection + session each)")
	duration   = flag.Duration("duration", 5*time.Second, "measurement window per run (after warmup)")
	warmup     = flag.Duration("warmup", 0, "leading window excluded from all statistics")
	readPct    = flag.String("readpct", "90", "percentage of acquires that are shared (comma-separated: one run per point)")
	keys       = flag.Int("keys", 16, "distinct lock names")
	depth      = flag.Int("depth", 1, "closed loop: transactions pipelined per flush")
	rate       = flag.String("rate", "", "open loop: Poisson arrivals at this many transactions/s across all connections, latency from scheduled arrival (comma-separated: one run per point; unset = closed loop)")
	zipf       = flag.Float64("zipf", 0, "Zipfian key skew exponent (> 1; 0 = uniform keys)")
	clusterArg = flag.String("cluster", "", "comma-separated cluster seed addresses; route every op through the cluster-aware Router")
	promPath   = flag.String("prom", "", "write client-side latency histograms in Prometheus text format here (\"-\" = stdout)")
	wait       = flag.Duration("wait", time.Second, "acquire wait bound (FIFO timed acquire)")
	lease      = flag.Duration("lease", 10*time.Second, "session lease")
	jsonOut    = flag.Bool("json", false, "emit a JSON array of run results instead of the table")
)

func main() {
	flag.Parse()

	cfg := runCfg{
		addr: *addr, conns: *conns, duration: *duration, warmup: *warmup,
		keys: *keys, depth: *depth, zipf: *zipf, wait: *wait, lease: *lease,
	}
	readPcts := points("readpct", *readPct, func(p float64) bool { return p >= 0 && p <= 100 && p == float64(int(p)) })
	rates := []float64{0}
	if *rate != "" {
		rates = points("rate", *rate, func(r float64) bool { return r > 0 })
	}
	cfg.seeds = strings.FieldsFunc(*clusterArg, func(r rune) bool { return r == ',' || r == ' ' })
	cfg.cluster = len(cfg.seeds) > 0
	if cfg.depth < 1 {
		log.Fatal("lockload: -depth must be >= 1")
	}
	if cfg.cluster && *rate != "" {
		log.Fatal("lockload: -cluster and -rate are mutually exclusive (the Router is a synchronous closed-loop client)")
	}
	if cfg.cluster && cfg.depth > 1 {
		log.Fatal("lockload: -cluster requires -depth 1 (Router ops are unpipelined round trips)")
	}
	if cfg.zipf != 0 && cfg.zipf <= 1 {
		log.Fatal("lockload: -zipf must be > 1 (or 0 for uniform)")
	}
	if cfg.cluster {
		// The Stats side channel talks to one member directly.
		cfg.addr = cfg.seeds[0]
	}

	var runs []runCfg
	for _, r := range rates {
		for _, p := range readPcts {
			cfg.rate, cfg.readPct = r, int(p)
			runs = append(runs, cfg)
		}
	}

	if !*jsonOut {
		mode := "closed loop"
		target := cfg.addr
		if *rate != "" {
			mode = "open loop"
		}
		if cfg.cluster {
			mode = "cluster loop"
			target = strings.Join(cfg.seeds, ",")
		}
		fmt.Printf("lockload: %s, %d conns, depth %d, %v/run (+%v warmup), %d keys, wait %v -> %s\n",
			mode, cfg.conns, cfg.depth, cfg.duration, cfg.warmup, cfg.keys, cfg.wait, target)
		fmt.Printf("%7s %10s %12s %12s %9s %9s %9s %9s %10s %10s %9s %7s %7s\n",
			"read%", "rate", "pairs", "ops/s", "p50(us)", "p95(us)", "p99(us)", "p999(us)", "late50(us)", "late99(us)", "timeouts", "errors", "failov")
	}
	var results []point
	var hists []stats.Histogram
	var failed bool
	for _, c := range runs {
		p, lat := run(c)
		results = append(results, p)
		hists = append(hists, lat)
		if p.Errors > 0 {
			failed = true
		}
		if !*jsonOut {
			rateCol, late50, late99 := "-", "-", "-"
			if p.Rate > 0 {
				rateCol = fmt.Sprintf("%.0f", p.Rate)
				late50, late99 = fmt.Sprintf("%.1f", *p.LateP50US), fmt.Sprintf("%.1f", *p.LateP99US)
			}
			fmt.Printf("%7d %10s %12d %12.0f %9.1f %9.1f %9.1f %9.1f %10s %10s %9d %7d %7d\n",
				p.ReadPct, rateCol, p.Pairs, p.OpsPerSec,
				p.P50US, p.P95US, p.P99US, p.P999US, late50, late99, p.Timeouts, p.Errors, p.FailoverErrs)
		}
	}

	// One best-effort Stats call after the runs fills both the rows'
	// server_workers and the summary line; no answer leaves them out.
	var srv serverStats
	srvOK := false
	if c, err := client.Dial(cfg.addr); err == nil {
		raw, err := c.Stats()
		srvOK = err == nil && json.Unmarshal(raw, &srv) == nil
		c.Close()
	}
	for i := range results {
		results[i].GoMaxProcs = runtime.GOMAXPROCS(0)
		results[i].NumCPU = runtime.NumCPU()
		results[i].ServerWorkers = srv.ServerWorkers
	}
	if *promPath != "" {
		if err := writeProm(*promPath, results, hists); err != nil {
			log.Fatalf("lockload: write prom: %v", err)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			log.Fatal(err)
		}
	} else if srvOK {
		fmt.Printf("server: %d shared + %d excl grants, %d timeouts, %d lease expirations, %d entries, wait p99 %.1fus\n",
			srv.SharedGrants, srv.ExclGrants, srv.Timeouts,
			srv.LeaseExpirations, srv.Entries, srv.WaitP99US)
	}
	if failed {
		os.Exit(1)
	}
}

// points parses a flag's comma-separated list of numbers, each of which
// must satisfy ok.
func points(name, list string, ok func(float64) bool) []float64 {
	var out []float64
	for _, s := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || !ok(v) {
			log.Fatalf("lockload: bad -%s point %q", name, s)
		}
		out = append(out, v)
	}
	return out
}

// serverStats is the daemon's Stats payload: the manager snapshot plus
// the daemon's worker count.
type serverStats struct {
	lockmgr.Snapshot
	ServerWorkers int `json:"server_workers"`
}

// writeProm renders each run's client-observed latency histogram in the
// Prometheus text schema lockd's admin plane uses, one label set per
// run. Diffing lockload_latency_seconds against the server's
// lockd_wait_seconds attributes a transaction's time: what the server
// never saw (wire + batching + event loop) is the difference.
func writeProm(path string, results []point, hists []stats.Histogram) error {
	labels := make([]string, len(results))
	for i, p := range results {
		labels[i] = fmt.Sprintf(`mode=%q,read_pct="%d",conns="%d",depth="%d",rate="%g"`,
			p.Mode, p.ReadPct, p.Conns, p.Depth, p.Rate)
	}
	var buf strings.Builder
	fmt.Fprintf(&buf, "# TYPE lockload_latency_seconds histogram\n")
	for i := range results {
		hists[i].WritePromSeries(&buf, "lockload_latency_seconds", labels[i], 1e-9)
	}
	fmt.Fprintf(&buf, "# TYPE lockload_pairs_total counter\n")
	for i, p := range results {
		fmt.Fprintf(&buf, "lockload_pairs_total{%s} %d\n", labels[i], p.Pairs)
		fmt.Fprintf(&buf, "lockload_timeouts_total{%s} %d\n", labels[i], p.Timeouts)
	}
	if path == "-" {
		_, err := os.Stdout.WriteString(buf.String())
		return err
	}
	return os.WriteFile(path, []byte(buf.String()), 0o644)
}

// run drives one measurement window and folds the workers' tallies.
// The window is [warmup end, stop]: elapsed is read when stop is
// signalled, not after the workers drain, and a worker tallies nothing
// that completes after it. The returned histogram is the merged
// transaction-latency distribution (ns), kept whole for -prom output.
func run(cfg runCfg) (point, stats.Histogram) {
	done := make(chan struct{}) // closed when the window ends
	var gen atomic.Uint32       // bumped when the warmup window closes
	workers := make([]worker, cfg.conns)
	names := make([]string, cfg.keys)
	for i := range names {
		names[i] = fmt.Sprintf("key-%04d", i)
	}
	var wg sync.WaitGroup
	for w := range cfg.conns {
		if cfg.cluster {
			workers[w].nodeOps = make(map[string]uint64)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch {
			case cfg.cluster:
				runCluster(cfg, w, names, &workers[w], done, &gen)
			case cfg.rate > 0 || cfg.depth > 1:
				runBatch(cfg, w, names, &workers[w], done, &gen)
			default:
				runHeld(cfg, w, names, &workers[w], done, &gen)
			}
		}()
	}
	if cfg.warmup > 0 {
		time.Sleep(cfg.warmup)
	}
	gen.Add(1) // workers reset their tallies; measurement starts now
	measStart := time.Now()
	time.Sleep(cfg.duration)
	close(done)
	elapsed := time.Since(measStart)
	wg.Wait()

	var total worker
	for i := range workers {
		total.pairs += workers[i].pairs
		total.timeouts += workers[i].timeouts
		total.errors += workers[i].errors
		total.failover += workers[i].failover
		total.lat.Merge(&workers[i].lat)
		total.late.Merge(&workers[i].late)
	}
	p := point{
		ReadPct: cfg.readPct, Conns: cfg.conns, DurS: elapsed.Seconds(),
		Pairs: total.pairs, OpsPerSec: float64(2*total.pairs) / elapsed.Seconds(),
		Timeouts: total.timeouts, Errors: total.errors, FailoverErrs: total.failover,
		P50US: total.lat.Percentile(50) / 1e3, P95US: total.lat.Percentile(95) / 1e3,
		P99US: total.lat.Percentile(99) / 1e3, P999US: total.lat.Percentile(99.9) / 1e3,
		MeanUS: total.lat.Mean() / 1e3, MaxUS: float64(total.lat.Max()) / 1e3,
	}
	switch {
	case cfg.cluster:
		p.Mode, p.Depth = "cluster", cfg.depth
		shares := make(map[string]uint64)
		var served uint64
		for i := range workers {
			if workers[i].epoch > p.ClusterEpoch {
				p.ClusterEpoch = workers[i].epoch
			}
			if workers[i].members > p.ClusterMembers {
				p.ClusterMembers = workers[i].members
			}
			for addr, n := range workers[i].nodeOps {
				shares[addr] += n
				served += n
			}
		}
		if served > 0 {
			p.NodeShare = make(map[string]float64, len(shares))
			for addr, n := range shares {
				p.NodeShare[addr] = float64(n) / float64(served)
			}
		}
	case cfg.rate > 0:
		p.Mode, p.Rate = "open", cfg.rate
		p.AchievedRate = float64(total.pairs) / elapsed.Seconds()
		late50, late99 := total.late.Percentile(50)/1e3, total.late.Percentile(99)/1e3
		p.LateP50US, p.LateP99US = &late50, &late99
	default:
		p.Mode, p.Depth = "closed", cfg.depth
	}
	return p, total.lat
}

// ended reports whether the measurement window has closed.
func ended(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// runCluster is the cluster-mode worker: one Router per goroutine, every
// transaction routed to its name's rendezvous owner, latency measured
// per acquire+release pair (no pipelining — a Router op is a full round
// trip, possibly several across a failover). Outcomes a member death
// explains — no reachable owner within the retry budget, a session the
// survivor expired at its deadline, a hold that died with its node — count as
// failover errors; anything else is a hard error and stops the worker.
func runCluster(cfg runCfg, w int, names []string, res *worker, done <-chan struct{}, gen *atomic.Uint32) {
	r, err := client.NewRouter(client.RouterConfig{Seeds: cfg.seeds, Lease: cfg.lease})
	if err != nil {
		log.Printf("lockload: worker %d: router: %v", w, err)
		res.errors++
		return
	}
	defer r.Close()
	defer func() {
		res.epoch = r.Epoch()
		res.members = len(r.Members())
	}()
	rng := rand.New(rand.NewSource(int64(w) + 1))
	pick := cfg.picker(rng, len(names))
	for !ended(done) {
		res.sync(gen)
		key := names[pick()]
		excl := rng.Intn(100) >= cfg.readPct
		t0 := time.Now()
		err := r.Acquire(key, excl, cfg.wait)
		switch {
		case errors.Is(err, lockmgr.ErrTimeout):
			res.timeouts++
			continue
		case errors.Is(err, client.ErrNoQuorum), errors.Is(err, lockmgr.ErrExpired):
			res.failover++
			continue
		case err != nil:
			log.Printf("lockload: worker %d: acquire %q: %v", w, key, err)
			res.errors++
			return
		}
		relErr := r.Release(key, excl)
		switch {
		case relErr == nil:
			if ended(done) {
				return // the pair finished outside the window
			}
			res.pairs++
			res.lat.Add(uint64(time.Since(t0)))
			res.nodeOps[r.Owner(key)]++
		case errors.Is(relErr, lockmgr.ErrNotHeld), errors.Is(relErr, lockmgr.ErrExpired),
			errors.Is(relErr, client.ErrNoQuorum):
			// The owner died between acquire and release: the hold died
			// with it (its successor answers NotHeld once the quarantine
			// clears), or no successor was reachable yet.
			res.failover++
		default:
			log.Printf("lockload: worker %d: release %q: %v", w, key, relErr)
			res.errors++
			return
		}
	}
}

// dialWorker opens one connection+session; errors count, not crash.
func dialWorker(cfg runCfg, w int, res *worker) (*client.Conn, uint64, bool) {
	c, err := client.Dial(cfg.addr)
	if err != nil {
		log.Printf("lockload: worker %d: dial: %v", w, err)
		res.errors++
		return nil, 0, false
	}
	sid, err := c.Open(cfg.lease)
	if err != nil {
		log.Printf("lockload: worker %d: open: %v", w, err)
		res.errors++
		c.Close()
		return nil, 0, false
	}
	return c, sid, true
}

// pairOutcome reduces a pair's acquire and release answers to one: nil
// for a complete pair, ErrTimeout for a timed-out acquire whose release
// answered NotHeld (it held nothing, so no other answer is sound), and
// an error for anything else.
func pairOutcome(acqErr, relErr error) error {
	switch {
	case acqErr == nil && relErr == nil:
		return nil
	case errors.Is(acqErr, lockmgr.ErrTimeout) && errors.Is(relErr, lockmgr.ErrNotHeld):
		return lockmgr.ErrTimeout
	}
	return fmt.Errorf("pair: %v / %v", acqErr, relErr)
}

// runBatch is the worker for complete pairs: every flush carries whole
// acquire+release pairs, and every pair in it is timed from the batch's
// start. Closed (depth > 1), a batch is depth pairs sent as soon as the
// previous batch answers. Open, it is one pair per Poisson arrival at
// rate/conns per second, and its clock starts at the scheduled arrival:
// if the previous pair ran long the next one starts late but its clock
// started on schedule — queueing delay is charged to the response time,
// never hidden in the arrival process. How late it started is recorded
// too, in late.
func runBatch(cfg runCfg, w int, names []string, res *worker, done <-chan struct{}, gen *atomic.Uint32) {
	c, sid, ok := dialWorker(cfg, w, res)
	if !ok {
		return
	}
	defer c.Close()
	defer c.CloseSession(sid)
	rng := rand.New(rand.NewSource(int64(w) + 1))
	pick := cfg.picker(rng, len(names))
	open := cfg.rate > 0
	pairs := cfg.depth
	if open {
		pairs = 1
	}
	lambda := cfg.rate / float64(cfg.conns) // open loop: this worker's arrivals/s
	var errs []error
	start := time.Now() // the batch's start: its scheduled arrival when open
	for !ended(done) {
		res.sync(gen)
		if open {
			start = start.Add(time.Duration(rng.ExpFloat64() / lambda * 1e9))
			if d := time.Until(start); d > 0 {
				select {
				case <-done:
					return
				case <-time.After(d):
				}
			}
			res.late.Add(uint64(max(time.Since(start), 0)))
		} else {
			start = time.Now()
		}
		for i := 0; i < pairs; i++ {
			key := names[pick()]
			excl := rng.Intn(100) >= cfg.readPct
			c.QueueAcquire(sid, key, excl, cfg.wait)
			c.QueueRelease(sid, key, excl)
		}
		var err error
		errs, err = c.Flush(errs[:0])
		if err != nil {
			log.Printf("lockload: worker %d: flush: %v", w, err)
			res.errors++
			return
		}
		lat := uint64(time.Since(start))
		for i := 0; i < len(errs); i += 2 {
			switch err := pairOutcome(errs[i], errs[i+1]); {
			case err != nil && err != lockmgr.ErrTimeout:
				log.Printf("lockload: worker %d: %v", w, err)
				res.errors++
				return
			case ended(done):
				// The window closed while this batch was in flight.
			case err != nil:
				res.timeouts++
			default:
				res.pairs++
				res.lat.Add(lat)
			}
		}
	}
}

// runHeld is the closed loop at depth 1: the previous transaction's
// release is pipelined with the next acquire, so the lock is held across
// the flush gap and a pair costs one write and one (coalesced) read on
// each side. Clock reads are a measurable slice of the budget, so
// latency samples 1-in-16. The last hold is released by the deferred
// CloseSession, outside the window.
func runHeld(cfg runCfg, w int, names []string, res *worker, done <-chan struct{}, gen *atomic.Uint32) {
	c, sid, ok := dialWorker(cfg, w, res)
	if !ok {
		return
	}
	defer c.Close()
	defer c.CloseSession(sid)
	rng := rand.New(rand.NewSource(int64(w) + 1))
	pick := cfg.picker(rng, len(names))
	var errs []error
	const latSample = 16
	var seq uint64
	var t0 time.Time
	var heldKey string
	var held, heldExcl bool
	for !ended(done) {
		res.sync(gen)
		key := names[pick()]
		excl := rng.Intn(100) >= cfg.readPct
		sampled := seq&(latSample-1) == 0
		seq++
		if sampled {
			t0 = time.Now()
		}
		if held {
			c.QueueRelease(sid, heldKey, heldExcl)
		}
		c.QueueAcquire(sid, key, excl, cfg.wait)
		var err error
		errs, err = c.Flush(errs[:0])
		if err != nil {
			log.Printf("lockload: worker %d: flush: %v", w, err)
			res.errors++
			return
		}
		acqErr := errs[len(errs)-1]
		if held && errs[0] != nil {
			log.Printf("lockload: worker %d: release: %v", w, errs[0])
			res.errors++
			return
		}
		if acqErr != nil && !errors.Is(acqErr, lockmgr.ErrTimeout) {
			log.Printf("lockload: worker %d: acquire: %v", w, acqErr)
			res.errors++
			return
		}
		if !ended(done) { // a flush that returns after the window closes is not counted
			if held {
				res.pairs++
			}
			if acqErr != nil {
				res.timeouts++
			} else if sampled {
				res.lat.Add(uint64(time.Since(t0)))
			}
		}
		held, heldKey, heldExcl = acqErr == nil, key, excl
	}
}
