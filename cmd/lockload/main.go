// lockload is the load generator for lockd. It runs in three modes:
//
// Closed loop (default): N worker goroutines, each with its own
// connection and session, issue lock transactions back to back — each
// worker's next request waits for its previous response. Throughput is
// the primary output; latency percentiles describe an unloaded or
// self-limited system. -depth pipelines several transactions per flush,
// which amortizes the per-syscall cost that dominates loopback runs.
//
// Open loop (-open -rate R): arrivals follow a Poisson process at R
// transactions/second across all connections, and each transaction's
// latency is measured from its *scheduled* arrival time, not from when
// the client got around to sending it. When the server falls behind,
// queueing delay therefore lands in the histogram instead of silently
// stretching the arrival gaps — the coordination-omission correction
// that makes latency-under-load curves honest. -ratesweep produces one
// run per rate point.
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
//	lockload -open -ratesweep 5000,10000,20000,40000      # latency curve
//	lockload -zipf 1.3 -prom client.prom                  # skewed keys, prom out
//	lockload -cluster :7601,:7602,:7603 -zipf 1.2         # routed cluster loop
//	lockload -check BENCH_lockd.json                      # validate bench doc
//
// -warmup excludes a leading window from every statistic (histograms
// reset when it closes). -json emits machine-readable results for
// assembling BENCH_lockd.json; -check validates such a document and is
// wired into CI so the committed numbers always parse. -prom writes the
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

// point is one run's result, shaped for both the human table and the
// JSON document committed as BENCH_lockd.json.
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

	// Host/server metadata, so a committed row is self-describing: a
	// "workers=4" number means nothing without knowing how many
	// schedulable CPUs the generator and the daemon actually had.
	// (Rows recorded before PR 14 carry one more field here; it is ignored.)
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
}

// benchDoc is the schema of BENCH_lockd.json. CI runs `lockload -check`
// against the committed file, so the required keys below are enforced,
// not aspirational.
type benchDoc struct {
	Host              string  `json:"host"`
	Date              string  `json:"date"`
	GoVersion         string  `json:"go_version"`
	BaselineOpsPerSec float64 `json:"baseline_ops_per_sec"`
	ClosedLoop        []point `json:"closed_loop"`
	OpenLoop          []point `json:"open_loop"`
	ClusterLoop       []point `json:"cluster_loop,omitempty"`
	Notes             string  `json:"notes,omitempty"`
}

// worker carries one goroutine's tallies; merged after the run.
type worker struct {
	pairs    uint64
	timeouts uint64
	errors   uint64
	failover uint64
	lat      stats.Histogram // transaction latency, ns

	// Cluster mode: successful pairs per serving member, and the
	// membership this worker's Router ended the run with.
	nodeOps map[string]uint64
	epoch   uint64
	members int
}

func (w *worker) reset() {
	w.pairs, w.timeouts, w.errors, w.failover = 0, 0, 0, 0
	w.lat.Reset()
	for k := range w.nodeOps {
		delete(w.nodeOps, k)
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
	rate     float64 // open loop only; transactions/s across all conns
	open     bool
	cluster  bool
	zipf     float64 // key-skew exponent; 0 = uniform
	wait     time.Duration
	lease    time.Duration
	hold     time.Duration
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

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7600", "lockd address")
		conns      = flag.Int("conns", 8, "concurrent client goroutines (one connection + session each)")
		duration   = flag.Duration("duration", 5*time.Second, "measurement window per run (after warmup)")
		warmup     = flag.Duration("warmup", 0, "leading window excluded from all statistics")
		readPct    = flag.Int("readpct", 90, "percentage of acquires that are shared")
		keys       = flag.Int("keys", 16, "distinct lock names")
		depth      = flag.Int("depth", 1, "closed loop: transactions pipelined per flush")
		open       = flag.Bool("open", false, "open-loop mode: Poisson arrivals, latency from scheduled arrival")
		rate       = flag.Float64("rate", 10000, "open loop: target transactions/s across all connections")
		zipf       = flag.Float64("zipf", 0, "Zipfian key skew exponent (> 1; 0 = uniform keys)")
		clusterArg = flag.String("cluster", "", "comma-separated cluster seed addresses; route every op through the cluster-aware Router")
		promPath   = flag.String("prom", "", "write client-side latency histograms in Prometheus text format here (\"-\" = stdout)")
		wait       = flag.Duration("wait", time.Second, "acquire wait bound (FIFO timed acquire)")
		lease      = flag.Duration("lease", 10*time.Second, "session lease")
		hold       = flag.Duration("hold", 0, "closed loop, depth 1: critical-section hold time")
		sweepArg   = flag.String("sweep", "", "closed loop: comma-separated read percentages, one run per point")
		rateSweep  = flag.String("ratesweep", "", "open loop: comma-separated transaction rates, one run per point")
		jsonOut    = flag.Bool("json", false, "emit a JSON array of run results instead of the table")
		checkPath  = flag.String("check", "", "validate a BENCH_lockd.json document and exit")
	)
	flag.Parse()

	if *checkPath != "" {
		if err := checkBenchDoc(*checkPath); err != nil {
			fmt.Fprintf(os.Stderr, "lockload: %s: %v\n", *checkPath, err)
			os.Exit(1)
		}
		fmt.Printf("lockload: %s: ok\n", *checkPath)
		return
	}

	cfg := runCfg{
		addr: *addr, conns: *conns, duration: *duration, warmup: *warmup,
		readPct: *readPct, keys: *keys, depth: *depth, rate: *rate,
		open: *open, zipf: *zipf, wait: *wait, lease: *lease, hold: *hold,
	}
	if *clusterArg != "" {
		for _, s := range strings.Split(*clusterArg, ",") {
			if s = strings.TrimSpace(s); s != "" {
				cfg.seeds = append(cfg.seeds, s)
			}
		}
		cfg.cluster = len(cfg.seeds) > 0
	}
	if cfg.depth < 1 {
		log.Fatal("lockload: -depth must be >= 1")
	}
	if cfg.cluster && *open {
		log.Fatal("lockload: -cluster and -open are mutually exclusive (the Router is a synchronous closed-loop client)")
	}
	if cfg.cluster && cfg.depth > 1 {
		log.Fatal("lockload: -cluster requires -depth 1 (Router ops are unpipelined round trips)")
	}
	if cfg.zipf != 0 && cfg.zipf <= 1 {
		log.Fatal("lockload: -zipf must be > 1 (or 0 for uniform)")
	}
	if cfg.cluster {
		// The stats/serverInfo side channels talk to one member directly.
		cfg.addr = cfg.seeds[0]
	}

	type runSpec struct {
		readPct int
		rate    float64
	}
	specs := []runSpec{{*readPct, *rate}}
	if *open && *rateSweep != "" {
		specs = specs[:0]
		for _, s := range strings.Split(*rateSweep, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || r <= 0 {
				log.Fatalf("lockload: bad -ratesweep point %q", s)
			}
			specs = append(specs, runSpec{*readPct, r})
		}
	} else if !*open && *sweepArg != "" {
		specs = specs[:0]
		for _, s := range strings.Split(*sweepArg, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || p < 0 || p > 100 {
				log.Fatalf("lockload: bad -sweep point %q", s)
			}
			specs = append(specs, runSpec{p, *rate})
		}
	}

	if !*jsonOut {
		mode := "closed loop"
		target := cfg.addr
		if *open {
			mode = "open loop"
		}
		if cfg.cluster {
			mode = "cluster loop"
			target = strings.Join(cfg.seeds, ",")
		}
		fmt.Printf("lockload: %s, %d conns, depth %d, %v/run (+%v warmup), %d keys, wait %v -> %s\n",
			mode, cfg.conns, cfg.depth, cfg.duration, cfg.warmup, cfg.keys, cfg.wait, target)
		fmt.Printf("%7s %10s %12s %12s %9s %9s %9s %9s %9s %7s %7s\n",
			"read%", "rate", "pairs", "ops/s", "p50(us)", "p95(us)", "p99(us)", "p999(us)", "timeouts", "errors", "failov")
	}
	srvWorkers := serverWorkers(cfg.addr)
	var results []point
	var hists []stats.Histogram
	var failed bool
	for _, spec := range specs {
		c := cfg
		c.readPct, c.rate = spec.readPct, spec.rate
		p, lat := run(c)
		p.GoMaxProcs = runtime.GOMAXPROCS(0)
		p.NumCPU = runtime.NumCPU()
		p.ServerWorkers = srvWorkers
		results = append(results, p)
		hists = append(hists, lat)
		if p.Errors > 0 {
			failed = true
		}
		if !*jsonOut {
			rateCol := "-"
			if *open {
				rateCol = fmt.Sprintf("%.0f", p.Rate)
			}
			fmt.Printf("%7d %10s %12d %12.0f %9.1f %9.1f %9.1f %9.1f %9d %7d %7d\n",
				p.ReadPct, rateCol, p.Pairs, p.OpsPerSec,
				p.P50US, p.P95US, p.P99US, p.P999US, p.Timeouts, p.Errors, p.FailoverErrs)
		}
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
	} else if c, err := client.Dial(cfg.addr); err == nil {
		if raw, err := c.Stats(); err == nil {
			var snap lockmgr.Snapshot
			if json.Unmarshal(raw, &snap) == nil {
				fmt.Printf("server: %d shared + %d excl grants, %d timeouts, %d lease expirations, %d entries, wait p99 %.1fus\n",
					snap.SharedGrants, snap.ExclGrants, snap.Timeouts,
					snap.LeaseExpirations, snap.Entries, snap.WaitP99US)
			}
		}
		c.Close()
	}
	if failed {
		os.Exit(1)
	}
}

// serverWorkers asks the target daemon for its worker count through the
// Stats payload. Best effort: a server predating the field, or no server
// at all, yields zero and the bench rows simply omit the metadata.
func serverWorkers(addr string) int {
	c, err := client.Dial(addr)
	if err != nil {
		return 0
	}
	defer c.Close()
	raw, err := c.Stats()
	if err != nil {
		return 0
	}
	var info struct {
		ServerWorkers int `json:"server_workers"`
	}
	if json.Unmarshal(raw, &info) != nil {
		return 0
	}
	return info.ServerWorkers
}

// checkBenchDoc enforces BENCH_lockd.json's contract: it parses, it
// names its host and toolchain, it records the pre-change baseline, and
// its open-loop curve has at least 4 rate points with sane percentiles.
func checkBenchDoc(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc benchDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	if doc.Host == "" || doc.Date == "" || doc.GoVersion == "" {
		return fmt.Errorf("missing host/date/go_version")
	}
	if doc.BaselineOpsPerSec <= 0 {
		return fmt.Errorf("baseline_ops_per_sec must be > 0")
	}
	if len(doc.ClosedLoop) == 0 {
		return fmt.Errorf("closed_loop is empty")
	}
	if len(doc.OpenLoop) < 4 {
		return fmt.Errorf("open_loop has %d points, need >= 4", len(doc.OpenLoop))
	}
	all := append(append([]point{}, doc.ClosedLoop...), doc.OpenLoop...)
	all = append(all, doc.ClusterLoop...)
	for i, p := range all {
		if p.Errors > 0 {
			return fmt.Errorf("point %d: recorded with %d errors", i, p.Errors)
		}
		if p.OpsPerSec <= 0 {
			return fmt.Errorf("point %d: ops_per_sec missing", i)
		}
		if p.P50US <= 0 || p.P99US < p.P50US {
			return fmt.Errorf("point %d: implausible percentiles p50=%v p99=%v", i, p.P50US, p.P99US)
		}
		// New-style rows carry host metadata; a row that names the server's
		// worker count must also name the CPU budget it ran under, or the
		// number cannot be interpreted.
		if p.ServerWorkers != 0 && (p.GoMaxProcs <= 0 || p.NumCPU <= 0) {
			return fmt.Errorf("point %d: server_workers=%d without gomaxprocs/num_cpu", i, p.ServerWorkers)
		}
	}
	for i, p := range doc.OpenLoop {
		if p.Mode != "open" || p.Rate <= 0 {
			return fmt.Errorf("open_loop[%d]: not an open-loop point", i)
		}
	}
	for i, p := range doc.ClusterLoop {
		if p.Mode != "cluster" {
			return fmt.Errorf("cluster_loop[%d]: not a cluster point", i)
		}
		if p.ClusterMembers < 1 {
			return fmt.Errorf("cluster_loop[%d]: cluster_members missing", i)
		}
		if len(p.NodeShare) == 0 || len(p.NodeShare) > p.ClusterMembers {
			return fmt.Errorf("cluster_loop[%d]: node_share has %d members for a %d-member cluster",
				i, len(p.NodeShare), p.ClusterMembers)
		}
		var sum float64
		for addr, s := range p.NodeShare {
			if s <= 0 || s > 1 {
				return fmt.Errorf("cluster_loop[%d]: implausible share %v for %s", i, s, addr)
			}
			sum += s
		}
		if sum < 0.999 || sum > 1.001 {
			return fmt.Errorf("cluster_loop[%d]: node_share sums to %v, want 1", i, sum)
		}
	}
	return nil
}

// writeProm renders each run's client-observed latency histogram in the
// Prometheus text schema lockd's admin plane uses, one label set per
// run. Diffing lockload_latency_seconds against the server's
// lockd_wait_seconds attributes a transaction's time: what the server
// never saw (wire + batching + event loop) is the difference.
func writeProm(path string, results []point, hists []stats.Histogram) error {
	var buf strings.Builder
	fmt.Fprintf(&buf, "# TYPE lockload_latency_seconds histogram\n")
	for i := range results {
		p := &results[i]
		labels := fmt.Sprintf(`mode=%q,read_pct="%d",conns="%d",depth="%d",rate="%g"`,
			p.Mode, p.ReadPct, p.Conns, p.Depth, p.Rate)
		hists[i].WritePromSeries(&buf, "lockload_latency_seconds", labels, 1e-9)
	}
	fmt.Fprintf(&buf, "# TYPE lockload_pairs_total counter\n")
	for i := range results {
		p := &results[i]
		labels := fmt.Sprintf(`mode=%q,read_pct="%d",conns="%d",depth="%d",rate="%g"`,
			p.Mode, p.ReadPct, p.Conns, p.Depth, p.Rate)
		fmt.Fprintf(&buf, "lockload_pairs_total{%s} %d\n", labels, p.Pairs)
		fmt.Fprintf(&buf, "lockload_timeouts_total{%s} %d\n", labels, p.Timeouts)
	}
	if path == "-" {
		_, err := os.Stdout.WriteString(buf.String())
		return err
	}
	return os.WriteFile(path, []byte(buf.String()), 0o644)
}

// run drives one measurement window and folds the workers' tallies.
// The returned histogram is the merged transaction-latency distribution
// (ns), kept whole for -prom output.
func run(cfg runCfg) (point, stats.Histogram) {
	var stop atomic.Bool
	var gen atomic.Uint32 // bumped when the warmup window closes
	workers := make([]worker, cfg.conns)
	names := make([]string, cfg.keys)
	for i := range names {
		names[i] = fmt.Sprintf("key-%04d", i)
	}
	var wg sync.WaitGroup
	for w := 0; w < cfg.conns; w++ {
		w := w
		if cfg.cluster {
			workers[w].nodeOps = make(map[string]uint64)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch {
			case cfg.cluster:
				runCluster(cfg, w, names, &workers[w], &stop, &gen)
			case cfg.open:
				runOpen(cfg, w, names, &workers[w], &stop, &gen)
			default:
				runClosed(cfg, w, names, &workers[w], &stop, &gen)
			}
		}()
	}
	if cfg.warmup > 0 {
		time.Sleep(cfg.warmup)
	}
	gen.Add(1) // workers reset their tallies; measurement starts now
	measStart := time.Now()
	time.Sleep(cfg.duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(measStart)

	var total worker
	for i := range workers {
		total.pairs += workers[i].pairs
		total.timeouts += workers[i].timeouts
		total.errors += workers[i].errors
		total.failover += workers[i].failover
		total.lat.Merge(&workers[i].lat)
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
	case cfg.open:
		p.Mode, p.Rate = "open", cfg.rate
		p.AchievedRate = float64(total.pairs) / elapsed.Seconds()
	default:
		p.Mode, p.Depth = "closed", cfg.depth
	}
	return p, total.lat
}

// runCluster is the cluster-mode worker: one Router per goroutine, every
// transaction routed to its name's rendezvous owner, latency measured
// per acquire+release pair (no pipelining — a Router op is a full round
// trip, possibly several across a failover). Outcomes a member death
// explains — no reachable owner within the retry budget, a session the
// survivor expired at its deadline, a hold that died with its node — count as
// failover errors; anything else is a hard error and stops the worker.
func runCluster(cfg runCfg, w int, names []string, res *worker, stop *atomic.Bool, gen *atomic.Uint32) {
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
	var lastGen uint32
	for !stop.Load() {
		if g := gen.Load(); g != lastGen {
			lastGen = g
			res.reset()
		}
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
		if cfg.hold > 0 {
			time.Sleep(cfg.hold)
		}
		relErr := r.Release(key, excl)
		switch {
		case relErr == nil:
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

// runClosed is the closed-loop worker. At depth 1 it pipelines the
// previous transaction's release with the next acquire (holding each
// lock across the flush gap, honoring -hold); at depth > 1 it pipelines
// depth complete acquire+release transactions per flush and records the
// flush round trip as the latency of each.
func runClosed(cfg runCfg, w int, names []string, res *worker, stop *atomic.Bool, gen *atomic.Uint32) {
	c, sid, ok := dialWorker(cfg, w, res)
	if !ok {
		return
	}
	defer c.Close()
	defer c.CloseSession(sid)
	rng := rand.New(rand.NewSource(int64(w) + 1))
	pick := cfg.picker(rng, len(names))
	var lastGen uint32
	var errs []error

	if cfg.depth > 1 {
		type slot struct {
			key  string
			excl bool
		}
		slots := make([]slot, cfg.depth)
		for !stop.Load() {
			if g := gen.Load(); g != lastGen {
				lastGen = g
				res.reset()
			}
			for i := range slots {
				slots[i] = slot{names[pick()], rng.Intn(100) >= cfg.readPct}
			}
			t0 := time.Now()
			for _, s := range slots {
				c.QueueAcquire(sid, s.key, s.excl, cfg.wait)
				c.QueueRelease(sid, s.key, s.excl)
			}
			var err error
			errs, err = c.Flush(errs[:0])
			if err != nil {
				log.Printf("lockload: worker %d: flush: %v", w, err)
				res.errors++
				return
			}
			rtt := uint64(time.Since(t0))
			for i := 0; i < len(errs); i += 2 {
				acqErr, relErr := errs[i], errs[i+1]
				switch {
				case acqErr == lockmgr.ErrTimeout:
					res.timeouts++
					if relErr != lockmgr.ErrNotHeld {
						log.Printf("lockload: worker %d: release after timeout: %v", w, relErr)
						res.errors++
						return
					}
				case acqErr != nil || relErr != nil:
					log.Printf("lockload: worker %d: pair: %v / %v", w, acqErr, relErr)
					res.errors++
					return
				default:
					res.pairs++
					res.lat.Add(rtt)
				}
			}
		}
		return
	}

	// Depth 1: the previous iteration's release is pipelined with the
	// next acquire, so the lock is held across the flush gap and a pair
	// costs one write and one (coalesced) read on each side. Clock reads
	// are a measurable slice of the budget, so latency samples 1-in-16.
	const latSample = 16
	var seq uint64
	var t0 time.Time
	held := false
	var heldKey string
	var heldExcl bool
	for !stop.Load() {
		if g := gen.Load(); g != lastGen {
			lastGen = g
			res.reset()
		}
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
		if held {
			if errs[0] != nil {
				log.Printf("lockload: worker %d: release: %v", w, errs[0])
				res.errors++
				return
			}
			res.pairs++
		}
		acqErr := errs[len(errs)-1]
		if acqErr == lockmgr.ErrTimeout {
			res.timeouts++
			held = false
			continue
		}
		if acqErr != nil {
			log.Printf("lockload: worker %d: acquire: %v", w, acqErr)
			res.errors++
			return
		}
		if sampled {
			res.lat.Add(uint64(time.Since(t0)))
		}
		held, heldKey, heldExcl = true, key, excl
		if cfg.hold > 0 {
			time.Sleep(cfg.hold)
		}
	}
	if held {
		if err := c.Release(sid, heldKey, heldExcl); err == nil {
			res.pairs++
		}
	}
}

// runOpen is the open-loop worker: Poisson arrivals at rate/conns
// transactions/s, every transaction timed from its scheduled arrival.
// If the previous transaction ran long the next one starts late but its
// latency clock started on schedule — queueing delay is charged to the
// response time, never hidden in the arrival process.
func runOpen(cfg runCfg, w int, names []string, res *worker, stop *atomic.Bool, gen *atomic.Uint32) {
	c, sid, ok := dialWorker(cfg, w, res)
	if !ok {
		return
	}
	defer c.Close()
	defer c.CloseSession(sid)
	rng := rand.New(rand.NewSource(int64(w) + 1))
	pick := cfg.picker(rng, len(names))
	lambda := cfg.rate / float64(cfg.conns) // this worker's arrivals/s
	var lastGen uint32
	var errs []error

	next := time.Now()
	for !stop.Load() {
		if g := gen.Load(); g != lastGen {
			lastGen = g
			res.reset()
		}
		next = next.Add(time.Duration(rng.ExpFloat64() / lambda * 1e9))
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		key := names[pick()]
		excl := rng.Intn(100) >= cfg.readPct
		c.QueueAcquire(sid, key, excl, cfg.wait)
		c.QueueRelease(sid, key, excl)
		var err error
		errs, err = c.Flush(errs[:0])
		if err != nil {
			log.Printf("lockload: worker %d: flush: %v", w, err)
			res.errors++
			return
		}
		acqErr, relErr := errs[0], errs[1]
		switch {
		case acqErr == lockmgr.ErrTimeout:
			res.timeouts++
			if relErr != lockmgr.ErrNotHeld {
				log.Printf("lockload: worker %d: release after timeout: %v", w, relErr)
				res.errors++
				return
			}
		case acqErr != nil || relErr != nil:
			log.Printf("lockload: worker %d: pair: %v / %v", w, acqErr, relErr)
			res.errors++
			return
		default:
			res.pairs++
			// Latency from the scheduled arrival, not the send.
			res.lat.Add(uint64(time.Since(next)))
		}
	}
}
