package server

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fairrw/internal/lockmgr"
	"fairrw/internal/obs"
)

// startObservedServer is startServer with the full observability wiring
// lockd uses: one Recorder shared by the manager and the server, plus
// the admin handler mounted on an httptest server.
func startObservedServer(t *testing.T) (addr string, srv *Server, admin *httptest.Server) {
	t.Helper()
	rec := obs.NewRecorder(4, 256)
	cfg := testCfg()
	cfg.IdleTTL = time.Hour // keep entries alive for the hot-lock checks
	cfg.Recorder = rec
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv = NewWithConfig(lockmgr.New(cfg), Config{Workers: 2, Recorder: rec})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown(5 * time.Second)
		select {
		case err := <-served:
			if err != nil {
				t.Errorf("Serve returned %v after drain, want nil", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("Serve did not return after Shutdown")
		}
	})
	admin = httptest.NewServer(srv.AdminHandler(BuildInfo{Version: "test", GoVersion: "gotest"}))
	t.Cleanup(admin.Close)
	return ln.Addr().String(), srv, admin
}

func get(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return string(body), resp
}

// TestAdminPlaneEndToEnd runs real load — including a parked contended
// acquire — against a live server and scrapes every admin endpoint over
// HTTP while it runs.
func TestAdminPlaneEndToEnd(t *testing.T) {
	addr, srv, admin := startObservedServer(t)

	// Uncontended traffic on a skewed key set.
	c1 := dial(t, addr)
	sid1, err := c1.Open(time.Minute)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 16; i++ {
		if err := c1.Acquire(sid1, "hotkey", false, 0); err != nil {
			t.Fatalf("acquire: %v", err)
		}
		if err := c1.Release(sid1, "hotkey", false); err != nil {
			t.Fatalf("release: %v", err)
		}
	}

	// A contended acquire that parks: c1 holds excl, c2 queues.
	if err := c1.Acquire(sid1, "parked", true, 0); err != nil {
		t.Fatalf("acquire excl: %v", err)
	}
	c2 := dial(t, addr)
	sid2, err := c2.Open(time.Minute)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	acquired := make(chan error, 1)
	go func() { acquired <- c2.Acquire(sid2, "parked", false, 5*time.Second) }()

	// Wait until the waiter is visibly queued, then scrape mid-park.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if hl := srv.m.HotLocks(10); func() bool {
			for _, p := range hl {
				if p.Name == "parked" && p.QueueLen > 0 {
					return true
				}
			}
			return false
		}() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued on \"parked\"")
		}
		time.Sleep(time.Millisecond)
	}

	midPark, _ := get(t, admin.URL+"/metrics")
	if !strings.Contains(midPark, `lockd_hot_lock_queue_len{lock="parked"} 1`) {
		t.Fatalf("/metrics mid-park missing live queue length:\n%s", midPark)
	}
	if !strings.Contains(midPark, "lockd_waiting 1\n") { // the waiting gauge is nodes queued right now
		t.Fatalf("/metrics mid-park: lockd_waiting is not 1:\n%s", midPark)
	}

	if err := c1.Release(sid1, "parked", true); err != nil {
		t.Fatalf("release excl: %v", err)
	}
	if err := <-acquired; err != nil {
		t.Fatalf("parked acquire: %v", err)
	}
	if err := c2.Release(sid2, "parked", false); err != nil {
		t.Fatalf("release shared: %v", err)
	}

	// /metrics: Prometheus text with manager counters, histograms,
	// per-worker series, and the hot-lock table.
	body, resp := get(t, admin.URL+"/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE lockd_shared_grants_total counter",
		"# TYPE lockd_wait_seconds histogram",
		"lockd_wait_seconds_bucket",
		"lockd_hold_seconds_count",
		"lockd_batch_ops_count",
		`lockd_worker_wakeups_total{worker="0"}`,
		`lockd_worker_wakeups_total{worker="1"}`,
		`lockd_worker_parks_total`,
		`lockd_hot_lock_acquires_total{lock="hotkey"} 16`,
		`lockd_hot_lock_acquires_total{lock="parked"} 2`, // the parked acquire is one arrival, not two
		`lockd_hot_lock_wait_seconds_total{lock="parked"}`,
		`version="test"`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// /metrics.json: the full payload parses and carries the same story.
	jbody, resp := get(t, admin.URL+"/metrics.json?k=5")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/metrics.json Content-Type = %q", ct)
	}
	var payload MetricsPayload
	if err := json.Unmarshal([]byte(jbody), &payload); err != nil {
		t.Fatalf("/metrics.json parse: %v\n%s", err, jbody)
	}
	if payload.Build.Version != "test" {
		t.Fatalf("build = %+v", payload.Build)
	}
	if payload.Manager.SharedGrants < 17 { // 16 hotkey + 1 parked
		t.Fatalf("manager snapshot: %+v", payload.Manager)
	}
	if len(payload.Workers) != 2 {
		t.Fatalf("workers = %+v", payload.Workers)
	}
	var parks uint64
	for _, w := range payload.Workers {
		parks += w.Parks
	}
	if parks == 0 {
		t.Fatal("no parks counted despite a parked acquire")
	}
	// The counters keep their meaning now that a parked acquire is a queue
	// node and the loop writes sockets itself: parks are acquires queued,
	// unparks their completions answered, the waiting gauge is 0 at rest,
	// and an inline write is a writev like a drain's.
	var unparks, flushes, inline, stalls, writevs, writevBytes uint64
	for _, w := range payload.Workers {
		unparks += w.Unparks
		flushes += w.Flushes
		inline += w.InlineWrites
		stalls += w.FlushStalls
		writevs += w.Writevs
		writevBytes += w.WritevBytes
	}
	if parks != 1 || unparks != 1 {
		t.Fatalf("parks %d unparks %d, want 1 and 1", parks, unparks)
	}
	if payload.Manager.Waiting != 0 {
		t.Fatalf("waiting gauge %d at quiescence", payload.Manager.Waiting)
	}
	if inline == 0 || writevs < inline || writevBytes < 17*inline {
		t.Fatalf("inline writes %d, writevs %d, writev bytes %d: inline writes are not counted as writevs",
			inline, writevs, writevBytes)
	}
	// Peers that read their responses never leave the fast path: no drain
	// starts, and the chunks-per-writev histogram (drain passes only) is empty.
	// A flush is counted before its write and as inline after it, so the
	// scrape can catch the last response's flush in between.
	wvh := srv.WritevSizeHistogram()
	if stalls != 0 || flushes-inline > 1 || wvh.Count() != 0 {
		t.Fatalf("flush_stalls %d, %d of %d flushes inline, %d drain passes: healthy peers took the slow path",
			stalls, inline, flushes, wvh.Count())
	}
	var parkRec, unparkRec obs.Record
	for _, rec := range srv.rec.Events() {
		switch rec.Kind {
		case obs.KEnq:
			parkRec = rec
		case obs.KGrant:
			unparkRec = rec
		}
	}
	if parkRec.Aux != uint64(5*time.Second) || unparkRec.Aux == 0 || unparkRec.Node != parkRec.Node {
		t.Fatalf("ENQ %+v should carry the requested wait, GRANT %+v the measured one, on one conn", parkRec, unparkRec)
	}
	if len(payload.HotLocks) == 0 || len(payload.HotLocks) > 5 {
		t.Fatalf("hot_locks = %+v", payload.HotLocks)
	}

	// /hotlocks parses as the bare table.
	hbody, _ := get(t, admin.URL+"/hotlocks?k=1")
	var hl []lockmgr.LockProfile
	if err := json.Unmarshal([]byte(hbody), &hl); err != nil || len(hl) != 1 {
		t.Fatalf("/hotlocks = %s (err %v)", hbody, err)
	}

	// /flight: the park, the manager's grant and the unpark are all on the record.
	fbody, _ := get(t, admin.URL+"/flight")
	for _, want := range []string{" ENQ ", " LRT_GRANT ", " GRANT "} {
		if !strings.Contains(fbody, want) {
			t.Fatalf("/flight missing %q:\n%s", want, fbody)
		}
	}

	// pprof is mounted.
	_, resp = get(t, admin.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", resp.StatusCode)
	}
	_, resp = get(t, admin.URL+"/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status = %d", resp.StatusCode)
	}
}

// TestAdminPlaneNoRecorder: the admin surface degrades cleanly when the
// flight recorder is disabled.
func TestAdminPlaneNoRecorder(t *testing.T) {
	_, srv := startServer(t, testCfg())
	admin := httptest.NewServer(srv.AdminHandler(BuildInfo{Version: "v", GoVersion: "g"}))
	defer admin.Close()
	body, _ := get(t, admin.URL+"/flight")
	if !strings.Contains(body, "disabled") {
		t.Fatalf("/flight without recorder = %q", body)
	}
	mbody, _ := get(t, admin.URL+"/metrics")
	if !strings.Contains(mbody, "lockd_build_info") {
		t.Fatalf("/metrics without recorder missing build info:\n%s", mbody)
	}
}

func TestPromWriter(t *testing.T) {
	var sb strings.Builder
	pw := &promWriter{w: &sb, typed: map[string]bool{}}
	pw.counter("x_total", "", 3)
	pw.counter("x_total", `worker="1"`, 4) // same family: one TYPE header
	pw.gauge("g", `name="a\"b"`, 1.5)
	want := "# TYPE x_total counter\nx_total 3\nx_total{worker=\"1\"} 4\n" +
		"# TYPE g gauge\ng{name=\"a\\\"b\"} 1.5\n"
	if out := sb.String(); out != want {
		t.Fatalf("output\n%s\nwant\n%s", out, want)
	}
}

func TestEscapeLabel(t *testing.T) {
	got := escapeLabel("a\"b\\c\nd")
	want := `a\"b\\c\nd`
	if got != want {
		t.Fatalf("escapeLabel = %q, want %q", got, want)
	}
}
