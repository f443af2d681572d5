package main

import (
	"errors"
	"flag"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"fairrw/internal/lockmgr"
	"fairrw/internal/lockmgr/server"
	"fairrw/internal/stats"
)

// startServer runs an in-process lockd on a loopback port for the test.
func startServer(t *testing.T) string {
	t.Helper()
	srv := server.NewWithConfig(lockmgr.New(lockmgr.Config{}), server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(done)
	}()
	t.Cleanup(func() {
		srv.Shutdown(2 * time.Second)
		<-done
	})
	return ln.Addr().String()
}

func testCfg(addr string) runCfg {
	return runCfg{
		addr: addr, conns: 2, duration: 200 * time.Millisecond, warmup: 50 * time.Millisecond,
		readPct: 90, keys: 8, depth: 1, wait: time.Second, lease: 10 * time.Second,
	}
}

// TestRunModes drives each loop that runs over one connection per
// worker against a live server: the depth-1 loop, the batch loop closed
// at depth 4, and the batch loop open.
func TestRunModes(t *testing.T) {
	addr := startServer(t)
	for _, tc := range []struct {
		name  string
		depth int
		rate  float64
		mode  string
	}{
		{"closed-depth1", 1, 0, "closed"},
		{"closed-depth4", 4, 0, "closed"},
		{"open", 1, 2000, "open"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testCfg(addr)
			cfg.depth, cfg.rate = tc.depth, tc.rate
			p, lat := run(cfg)
			if p.Mode != tc.mode || p.Errors != 0 || p.Pairs == 0 {
				t.Fatalf("mode %q, %d errors, %d pairs; want %q, 0 errors, some pairs", p.Mode, p.Errors, p.Pairs, tc.mode)
			}
			if p.P50US <= 0 || p.P99US < p.P50US {
				t.Fatalf("p50 %.1fus, p99 %.1fus: want 0 < p50 <= p99", p.P50US, p.P99US)
			}
			if lat.Count() == 0 {
				t.Fatal("empty latency histogram")
			}
			if open := tc.mode == "open"; (p.LateP50US != nil) != open || (p.LateP99US != nil) != open {
				t.Fatalf("late_p50_us %v, late_p99_us %v: want both present iff the loop is open", p.LateP50US, p.LateP99US)
			}
			if p.LateP50US != nil && (*p.LateP50US < 0 || *p.LateP99US < *p.LateP50US) {
				t.Fatalf("late p50 %.1fus, p99 %.1fus: want 0 <= p50 <= p99", *p.LateP50US, *p.LateP99US)
			}
		})
	}
}

// TestOpenWindowEndsAtStop: at 1 pair/s on one connection the seeded
// first arrival lands 0.588 s in, past a 100 ms window. The run must
// end at the window — neither waiting for that arrival nor counting the
// pair it sends.
func TestOpenWindowEndsAtStop(t *testing.T) {
	cfg := testCfg(startServer(t))
	cfg.conns, cfg.rate = 1, 1
	cfg.duration, cfg.warmup = 100*time.Millisecond, 0
	p, _ := run(cfg)
	if p.DurS < 0.1 || p.DurS > 0.15 {
		t.Errorf("duration_s %.3f, want the 0.1 s window", p.DurS)
	}
	if p.Pairs != 0 || p.Errors != 0 {
		t.Errorf("%d pairs, %d errors; want none inside the window", p.Pairs, p.Errors)
	}
}

func TestPairOutcome(t *testing.T) {
	other := errors.New("boom")
	for _, tc := range []struct {
		name           string
		acqErr, relErr error
		want           error // nil, lockmgr.ErrTimeout, or other for any other error
	}{
		{"complete", nil, nil, nil},
		{"timeout then not held", lockmgr.ErrTimeout, lockmgr.ErrNotHeld, lockmgr.ErrTimeout},
		{"timeout then released", lockmgr.ErrTimeout, nil, other},
		{"timeout then expired", lockmgr.ErrTimeout, lockmgr.ErrExpired, other},
		{"granted then not held", nil, lockmgr.ErrNotHeld, other},
		{"expired then not held", lockmgr.ErrExpired, lockmgr.ErrNotHeld, other},
	} {
		got := pairOutcome(tc.acqErr, tc.relErr)
		switch {
		case tc.want == other && (got == nil || errors.Is(got, lockmgr.ErrTimeout)):
			t.Errorf("%s: got %v, want an error", tc.name, got)
		case tc.want != other && got != tc.want:
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestWritePromParses checks -prom output line by line against the
// exposition-line regex CI's lockd smoke applies to lockd's /metrics.
func TestWritePromParses(t *testing.T) {
	var h stats.Histogram
	for _, ns := range []uint64{800, 12_000, 95_000, 2_000_000} {
		h.Add(ns)
	}
	results := []point{
		{Mode: "closed", ReadPct: 90, Conns: 8, Depth: 4, Pairs: 4},
		{Mode: "open", ReadPct: 90, Conns: 4, Rate: 2000, Pairs: 4, Timeouts: 1},
	}
	path := filepath.Join(t.TempDir(), "client.prom")
	if err := writeProm(path, results, []stats.Histogram{h, h}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`^(#.*|[A-Za-z_:][A-Za-z0-9_:]*(\{[^}]*\})? [-+0-9.eE]+(Inf|NaN)?)$`)
	text := strings.TrimSuffix(string(raw), "\n")
	for _, l := range strings.Split(text, "\n") {
		if !line.MatchString(l) {
			t.Errorf("bad exposition line: %q", l)
		}
	}
	for _, want := range []string{"lockload_latency_seconds_bucket", "lockload_latency_seconds_count", `lockload_timeouts_total{mode="open"`} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %s:\n%s", want, text)
		}
	}
}

// TestFlagBudget pins lockload's exact flag set: a change that adds a
// flag must retire one first.
func TestFlagBudget(t *testing.T) {
	var names []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			names = append(names, f.Name)
		}
	})
	want := []string{"addr", "cluster", "conns", "depth", "duration", "json", "keys", "lease",
		"prom", "rate", "readpct", "wait", "warmup", "zipf"}
	if !slices.Equal(names, want) {
		t.Fatalf("lockload flags %v (%d), want %v (%d)", names, len(names), want, len(want))
	}
}
