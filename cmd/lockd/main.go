// lockd is the fair lock service daemon: a lockmgr.Manager (the software
// LRT — named fair RW locks with sessions and lease-based revocation)
// served over the length-prefixed binary protocol in
// internal/lockmgr/wire.
//
// Run it, point cmd/lockload or any wire client at it, and SIGTERM it
// for a graceful drain: in-flight acquires get definitive responses,
// sessions are revoked, and -metrics dumps the run's counters and wait
// percentiles as JSON.
//
// With -admin the daemon is observable while it runs: the admin HTTP
// listener serves live metrics as Prometheus text (/metrics) and JSON
// (/metrics.json), the per-lock contention table (/hotlocks), the
// grant-path flight recorder (/flight), and net/http/pprof
// (/debug/pprof/). SIGUSR1 dumps metrics on demand, SIGQUIT dumps the
// flight recorder to stderr, and -slowlock logs every pathologically slow
// acquire as a structured one-liner.
//
// What the daemon can work out is not a flag: it runs one event loop
// per P (set GOMAXPROCS to change it), a cluster member heartbeats its
// peers every -max-lease/20 clamped to [50ms, 250ms], and a session
// opened without a lease gets 10s.
//
//	lockd -addr 127.0.0.1:7600 -admin 127.0.0.1:7601 \
//	      -metrics metrics.json -slowlock 100ms
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"

	"fairrw/internal/lockmgr"
	"fairrw/internal/lockmgr/cluster"
	"fairrw/internal/lockmgr/introspect"
	"fairrw/internal/lockmgr/server"
)

// The node is the server's cluster gate; keep the contract pinned at
// compile time.
var _ server.Cluster = (*cluster.Node)(nil)

// buildInfo assembles the binary's identity: module version (plus VCS
// revision when the toolchain stamped one) and the Go version. This is
// what makes a metrics payload or bench row attributable to a build.
func buildInfo() server.BuildInfo {
	bi := server.BuildInfo{Version: "unknown", GoVersion: runtime.Version()}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	bi.Version = info.Main.Version
	var rev string
	dirty := false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		// Newer toolchains already fold the revision into a VCS-derived
		// pseudo-version; only append when it adds information.
		if !strings.Contains(bi.Version, rev) {
			if dirty {
				rev += "-dirty"
			}
			bi.Version += "+" + rev
		} else if dirty && !strings.Contains(bi.Version, "dirty") {
			bi.Version += "+dirty"
		}
	}
	return bi
}

// flightEvents is the flight recorder's ring size per worker: the recorder
// is always on (its cost is inside the noise, EXPERIMENTS.md).
const flightEvents = 256

// The daemon's knobs, registered at package level so TestFlagBudget can
// count them.
var (
	addr        = flag.String("addr", "127.0.0.1:7600", "TCP listen address")
	adminAddr   = flag.String("admin", "", "admin HTTP listen address (Prometheus /metrics, /metrics.json, /hotlocks, /flight, /debug/pprof); empty = disabled")
	maxLease    = flag.Duration("max-lease", time.Minute, "cap on requested leases; in a cluster also the quarantine of a dead member's names, so it must be the same on every member, and 1/20 of it (clamped to 50ms–250ms) is the heartbeat period")
	grace       = flag.Duration("grace", 5*time.Second, "drain grace period on shutdown")
	metricsPath = flag.String("metrics", "", "write metrics JSON here on shutdown and SIGUSR1 (\"-\" = stdout, shutdown only); live numbers are -admin's /metrics.json")
	slowlock    = flag.Duration("slowlock", 0, "log acquires whose queue wait reaches this threshold (0 = off)")
	clusterArg  = flag.String("cluster", "", "comma-separated member list, this node first (e.g. self:7600,peer:7600,...); enables clustered mode")
	showVersion = flag.Bool("version", false, "print build info and exit")
)

func main() {
	flag.Parse()

	bi := buildInfo()
	if *showVersion {
		fmt.Printf("lockd %s %s\n", bi.Version, bi.GoVersion)
		return
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("lockd: listen: %v", err)
	}

	// One flight-recorder ring per event loop (the server runs GOMAXPROCS
	// loops and keys by loop index); the manager's grant/expiry events hash
	// across the same rings.
	rec := introspect.NewRecorder(runtime.GOMAXPROCS(0), flightEvents)
	slowFn := func(name string, sid uint64, excl bool, wait time.Duration) {
		log.Printf("lockd: slowlock lock=%q sid=%d excl=%v wait=%v", name, sid, excl, wait)
	}
	if *slowlock <= 0 {
		slowFn = nil
	}
	mgr := lockmgr.New(lockmgr.Config{
		MaxLease:   *maxLease,
		Recorder:   rec,
		SlowLock:   *slowlock,
		SlowLockFn: slowFn,
	})
	// Clustered mode: this node owns a rendezvous-hashed slice of the
	// namespace and gates every named op on ownership. The member list
	// names this node first; peers are heartbeated as ordinary wire
	// sessions every -max-lease/20 (50–250ms) and a dead peer's names
	// rehash to the survivors, quarantined for -max-lease.
	var node *cluster.Node
	if *clusterArg != "" {
		members := strings.Split(*clusterArg, ",")
		for i := range members {
			members[i] = strings.TrimSpace(members[i])
		}
		var err error
		node, err = cluster.NewNode(cluster.Config{
			Self:    members[0],
			Members: members,
			Manager: mgr,
			Logf:    log.Printf,
		})
		if err != nil {
			log.Fatalf("lockd: cluster: %v", err)
		}
	}
	srvCfg := server.Config{Recorder: rec}
	if node != nil {
		srvCfg.Cluster = node
	}
	srv := server.NewWithConfig(mgr, srvCfg)

	// writeMetrics serializes the full admin payload to the -metrics
	// path. Shutdown and SIGUSR1 both funnel through here, serialized so
	// a signal late in the drain cannot interleave with the final write.
	var metricsMu sync.Mutex
	writeMetrics := func(reason string) {
		if *metricsPath == "" {
			return
		}
		metricsMu.Lock()
		defer metricsMu.Unlock()
		out, err := json.MarshalIndent(srv.Metrics(bi, server.DefaultHotLocks), "", " ")
		if err != nil {
			log.Printf("lockd: marshal metrics (%s): %v", reason, err)
			return
		}
		out = append(out, '\n')
		if *metricsPath == "-" {
			fmt.Print(string(out))
			return
		}
		// Write-then-rename so a crash mid-write never truncates the
		// previous dump.
		tmp := *metricsPath + ".tmp"
		if err := os.WriteFile(tmp, out, 0o644); err != nil {
			log.Printf("lockd: write metrics (%s): %v", reason, err)
			return
		}
		if err := os.Rename(tmp, *metricsPath); err != nil {
			log.Printf("lockd: write metrics (%s): %v", reason, err)
		}
	}

	var adminSrv *http.Server
	if *adminAddr != "" {
		aln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			log.Fatalf("lockd: admin listen: %v", err)
		}
		adminSrv = &http.Server{Handler: srv.AdminHandler(bi)}
		go func() {
			if err := adminSrv.Serve(aln); err != nil && err != http.ErrServerClosed {
				log.Printf("lockd: admin serve: %v", err)
			}
		}()
		log.Printf("lockd: admin plane on http://%s (/metrics /metrics.json /hotlocks /flight /debug/pprof)", aln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	dump := make(chan os.Signal, 1)
	signal.Notify(dump, syscall.SIGUSR1, syscall.SIGQUIT)
	go func() {
		for s := range dump {
			switch s {
			case syscall.SIGUSR1:
				log.Printf("lockd: SIGUSR1: dumping metrics")
				if *metricsPath != "" && *metricsPath != "-" {
					writeMetrics("SIGUSR1")
				} else {
					out, _ := json.MarshalIndent(srv.Metrics(bi, server.DefaultHotLocks), "", " ")
					fmt.Fprintf(os.Stderr, "%s\n", out)
				}
			case syscall.SIGQUIT:
				log.Printf("lockd: SIGQUIT: flight recorder dump")
				srv.WriteFlight(os.Stderr)
			}
		}
	}()
	go func() {
		s := <-sig
		log.Printf("lockd: %v: draining (grace %v)", s, *grace)
		srv.Shutdown(*grace)
	}()

	if node != nil {
		node.Start()
		log.Printf("lockd: cluster member %s of %v (hb %v, suspect after %d, failover window %v)",
			node.Self(), node.Current().Members(), node.Interval(), cluster.SuspectAfter, mgr.MaxLease())
	}
	log.Printf("lockd: %s %s serving on %s (%d workers)",
		bi.Version, bi.GoVersion, ln.Addr(), srv.Workers())
	if err := srv.Serve(ln); err != nil {
		log.Fatalf("lockd: serve: %v", err)
	}
	if node != nil {
		node.Stop()
	}
	if adminSrv != nil {
		adminSrv.Close()
	}

	snap := mgr.Stats()
	log.Printf("lockd: drained: %d shared + %d excl grants, %d lease expirations, %d revoked holds, wait p50 %.1fus p99 %.1fus, hold p50 %.1fus",
		snap.SharedGrants, snap.ExclGrants, snap.LeaseExpirations, snap.RevokedHolds,
		snap.WaitP50US, snap.WaitP99US, snap.HoldP50US)
	writeMetrics("shutdown")
}
