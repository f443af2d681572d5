package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fairrw/internal/lockmgr"
	"fairrw/internal/lockmgr/client"
	"fairrw/internal/lockmgr/wire"
)

// fakeCluster gates ops by name prefix: names starting with "mine-"
// are owned here, everything else answers NotOwner. It exercises the
// server's Cluster seam without booting real heartbeats.
type fakeCluster struct {
	wm       wire.Membership
	isolated atomic.Bool
}

func (f *fakeCluster) GateOp(name []byte, acquire bool) bool {
	return !f.isolated.Load() && bytes.HasPrefix(name, []byte("mine-"))
}

func (f *fakeCluster) Isolated() bool { return f.isolated.Load() }

func (f *fakeCluster) AppendMembership(buf []byte) []byte {
	out, err := wire.AppendMembership(buf, &f.wm)
	if err != nil {
		panic(err)
	}
	return out
}

func (f *fakeCluster) Epoch() uint64    { return f.wm.Epoch }
func (f *fakeCluster) MemberCount() int { return len(f.wm.Members) }
func (f *fakeCluster) StatusJSON() ([]byte, error) {
	return []byte(`{"self":"fake","epoch":7}`), nil
}

func startClusteredServer(t *testing.T) (addr string, m *lockmgr.Manager, fake *fakeCluster) {
	t.Helper()
	m = lockmgr.New(testCfg())
	fake = &fakeCluster{wm: wire.Membership{
		Epoch:   7,
		Members: []string{"10.0.0.1:7600", "10.0.0.2:7600", "10.0.0.3:7600"},
	}}
	srv := NewWithConfig(m, Config{Workers: 2, Cluster: fake})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown(5 * time.Second)
		<-served
	})
	return ln.Addr().String(), m, fake
}

// TestClusterGateNotOwner: a pipelined batch mixing owned and foreign
// names gets per-op statuses in request order, and the NotOwner
// response carries the membership.
func TestClusterGateNotOwner(t *testing.T) {
	addr, _, _ := startClusteredServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sid, err := c.Open(time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	c.QueueAcquire(sid, "mine-a", true, 0)
	c.QueueAcquire(sid, "theirs-b", true, 0)
	c.QueueRelease(sid, "mine-a", true)
	errs, err := c.Flush(nil)
	if err != nil {
		t.Fatalf("flush: %v", err)
	}
	if len(errs) != 3 {
		t.Fatalf("got %d results, want 3", len(errs))
	}
	if errs[0] != nil {
		t.Errorf("acquire mine-a: %v, want nil", errs[0])
	}
	if !errors.Is(errs[1], client.ErrNotOwner) {
		t.Errorf("acquire theirs-b: %v, want ErrNotOwner", errs[1])
	}
	if errs[2] != nil {
		t.Errorf("release mine-a: %v, want nil", errs[2])
	}
	wm, ok := c.Membership()
	if !ok {
		t.Fatal("NotOwner response carried no membership")
	}
	if wm.Epoch != 7 || len(wm.Members) != 3 {
		t.Errorf("membership: epoch %d, %d members; want 7, 3", wm.Epoch, len(wm.Members))
	}

	// A gated release is refused too — a non-owner must not mutate
	// state it no longer authorities.
	if err := c.Release(sid, "theirs-b", true); !errors.Is(err, client.ErrNotOwner) {
		t.Errorf("release theirs-b: %v, want ErrNotOwner", err)
	}
}

// TestClusterGateFenced: on an isolated (quorum-less) node the server
// refuses the whole lease lifecycle — OpOpen and OpKeepAlive answer
// NotOwner exactly like named ops, so a partitioned minority can
// neither grant a new lease nor renew one a client already holds.
// OpClose stays ungated: releasing state is always safe.
func TestClusterGateFenced(t *testing.T) {
	addr, _, fake := startClusteredServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sid, err := c.Open(time.Minute) // healthy node: lease granted
	if err != nil {
		t.Fatalf("open before isolation: %v", err)
	}

	fake.isolated.Store(true)
	if err := c.KeepAlive(sid, time.Minute); !errors.Is(err, client.ErrNotOwner) {
		t.Errorf("keepalive on fenced node: %v, want ErrNotOwner", err)
	}
	if _, err := c.Open(time.Minute); !errors.Is(err, client.ErrNotOwner) {
		t.Errorf("open on fenced node: %v, want ErrNotOwner", err)
	}
	if err := c.Acquire(sid, "mine-a", true, 0); !errors.Is(err, client.ErrNotOwner) {
		t.Errorf("acquire on fenced node: %v, want ErrNotOwner", err)
	}
	// The refusal carries the membership so a routing client can re-aim.
	if wm, ok := c.Membership(); !ok || len(wm.Members) != 3 {
		t.Errorf("fenced NotOwner membership: ok=%v members=%d, want 3", ok, len(wm.Members))
	}
	if err := c.CloseSession(sid); err != nil {
		t.Errorf("close on fenced node: %v, want nil", err)
	}
}

// TestClusterGateBehindParkedAcquire: frames the server answers itself —
// a gated acquire, OpClusterInfo, OpStats — pipelined behind an acquire
// that parks are answered after the park resolves, once each, in request
// order, although none of them reaches the manager.
func TestClusterGateBehindParkedAcquire(t *testing.T) {
	addr, m, _ := startClusteredServer(t)

	c1, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	sid1, err := c1.Open(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Acquire(sid1, "mine-x", true, 0); err != nil {
		t.Fatalf("holder acquire: %v", err)
	}

	rc := dialRaw(t, addr)
	sid2 := rc.open(t, time.Minute)
	rc.write(
		&wire.Request{Op: wire.OpAcquire, SID: sid2, Excl: true, Wait: int64(5 * time.Second), Name: "mine-x"}, // parks behind c1
		&wire.Request{Op: wire.OpAcquire, SID: sid2, Excl: true, Name: "theirs-y"},                             // gated: NotOwner, but must wait its turn
		&wire.Request{Op: wire.OpClusterInfo},
		&wire.Request{Op: wire.OpStats},
	)

	// Wait until the acquire is parked: nothing may be answered yet.
	deadline := time.Now().Add(5 * time.Second)
	for m.QueueLen("mine-x") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second acquire never parked")
		}
		time.Sleep(time.Millisecond)
	}
	rc.expectSilence(20 * time.Millisecond)
	if err := c1.Release(sid1, "mine-x", true); err != nil {
		t.Fatalf("release: %v", err)
	}

	if resp := rc.read(5 * time.Second); resp.Status != wire.StatusOK {
		t.Fatalf("parked acquire: status %d, want OK", resp.Status)
	}
	for _, what := range []string{"gated acquire", "cluster info"} {
		resp := rc.read(5 * time.Second)
		want := wire.StatusNotOwner
		if what == "cluster info" {
			want = wire.StatusOK
		}
		if resp.Status != want {
			t.Fatalf("%s: status %d, want %d", what, resp.Status, want)
		}
		if wm, err := wire.DecodeMembership(resp.Payload); err != nil || wm.Epoch != 7 || len(wm.Members) != 3 {
			t.Fatalf("%s: membership %+v (%v), want epoch 7 with 3 members", what, wm, err)
		}
	}
	stats := rc.read(5 * time.Second)
	var sp statsPayload
	if stats.Status != wire.StatusOK || json.Unmarshal(stats.Payload, &sp) != nil {
		t.Fatalf("stats: status %d, payload %q", stats.Status, stats.Payload)
	}
	if sp.ExclGrants != 2 || sp.ClusterEpoch != 7 || sp.ClusterMembers != 3 {
		t.Errorf("stats: %d excl grants, epoch %d, %d members; want 2, 7, 3", sp.ExclGrants, sp.ClusterEpoch, sp.ClusterMembers)
	}
	// Nothing is answered twice after the grant re-parses the frames.
	rc.expectSilence(200 * time.Millisecond)
}

// TestClusterInfo: clustered servers answer OpClusterInfo with the
// membership; non-clustered servers answer OK with an empty payload so
// a Router can treat any single lockd as a cluster of one.
func TestClusterInfo(t *testing.T) {
	addr, _, _ := startClusteredServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wm, err := c.ClusterInfo()
	if err != nil {
		t.Fatalf("ClusterInfo: %v", err)
	}
	if wm.Epoch != 7 || len(wm.Members) != 3 {
		t.Errorf("clustered: epoch %d, %d members; want 7, 3", wm.Epoch, len(wm.Members))
	}

	plainAddr, _ := startServer(t, testCfg())
	pc, err := client.Dial(plainAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	wm, err = pc.ClusterInfo()
	if err != nil {
		t.Fatalf("ClusterInfo non-clustered: %v", err)
	}
	if wm.Epoch != 0 || len(wm.Members) != 0 {
		t.Errorf("non-clustered: epoch %d, %d members; want empty", wm.Epoch, len(wm.Members))
	}
}

// TestAdminCluster: /cluster serves the node's status document on a
// clustered server and {"clustered":false} otherwise, and the metrics
// plane exports the epoch and member-count gauges.
func TestAdminCluster(t *testing.T) {
	fake := &fakeCluster{wm: wire.Membership{
		Epoch:   7,
		Members: []string{"10.0.0.1:7600", "10.0.0.2:7600", "10.0.0.3:7600"},
	}}
	srv := NewWithConfig(lockmgr.New(testCfg()), Config{Workers: 1, Cluster: fake})
	t.Cleanup(func() { srv.Shutdown(time.Second) })
	h := srv.AdminHandler(BuildInfo{})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cluster", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/cluster: status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"epoch":7`) {
		t.Errorf("/cluster body %q lacks epoch", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "lockd_cluster_epoch 7") {
		t.Errorf("metrics lack lockd_cluster_epoch 7")
	}
	if !strings.Contains(body, "lockd_cluster_members 3") {
		t.Errorf("metrics lack lockd_cluster_members 3")
	}

	plainSrv := NewWithConfig(lockmgr.New(testCfg()), Config{Workers: 1})
	t.Cleanup(func() { plainSrv.Shutdown(time.Second) })
	rec = httptest.NewRecorder()
	plainSrv.AdminHandler(BuildInfo{}).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cluster", nil))
	if !strings.Contains(rec.Body.String(), `"clustered": false`) &&
		!strings.Contains(rec.Body.String(), `"clustered":false`) {
		t.Errorf("non-clustered /cluster body %q", rec.Body.String())
	}
}
