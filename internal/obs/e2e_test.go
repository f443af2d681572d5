package obs_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"fairrw/internal/microbench"
	"fairrw/internal/obs"
)

// capture runs a small contended microbenchmark with tracing on.
func capture(t *testing.T, lock string) *obs.Capture {
	t.Helper()
	res := microbench.Run(microbench.Config{
		Model: "A", Lock: lock, Threads: 8, WritePct: 50,
		TotalIters: 400, Seed: 42,
		Obs: obs.Options{Records: true, Metrics: true, Cache: true},
	})
	if res.Err != nil {
		t.Fatalf("microbench: %v", res.Err)
	}
	if res.Obs == nil {
		t.Fatal("Obs requested but Result.Obs is nil")
	}
	return res.Obs
}

// TestEndToEndLCU drives the full stack — machine, LCU/LRT device,
// coherence, links — under tracing and checks the capture's shape.
func TestEndToEndLCU(t *testing.T) {
	c := capture(t, "lcu")
	if len(c.Records()) == 0 {
		t.Fatal("no records captured")
	}
	// Kernel event order implies nondecreasing cycles.
	kinds := map[obs.Kind]int{}
	for i, r := range c.Records() {
		kinds[r.Kind]++
		if i > 0 && r.At < c.Records()[i-1].At {
			t.Fatalf("records out of time order at %d: %d after %d", i, r.At, c.Records()[i-1].At)
		}
	}
	for _, k := range []obs.Kind{obs.KReq, obs.KGrant, obs.KAcq, obs.KUnlock, obs.KXfer, obs.KLRTReq} {
		if kinds[k] == 0 {
			t.Errorf("no %v records in an 8-thread contended LCU run; kinds: %v", k, kinds)
		}
	}
	if c.M == nil || c.M.Acquire.Count() == 0 {
		t.Fatal("acquire histogram empty")
	}
	if c.M.Transfer.Count() == 0 {
		t.Fatal("transfer histogram empty")
	}
	links := 0
	for _, ls := range c.M.Links {
		links += len(ls.Bins)
	}
	if links == 0 {
		t.Fatal("no link occupancy recorded")
	}
}

// TestEndToEndSoftwareLock checks the swlocks.Trace wrapper path: MCS is a
// pure software lock, so acquisitions must still appear via the wrapper.
func TestEndToEndSoftwareLock(t *testing.T) {
	c := capture(t, "mcs")
	acq, unl := 0, 0
	for _, r := range c.Records() {
		switch r.Kind {
		case obs.KAcq:
			acq++
		case obs.KUnlock:
			unl++
		}
	}
	if acq == 0 || unl == 0 {
		t.Fatalf("software-lock run recorded %d acquires / %d unlocks, want both > 0", acq, unl)
	}
	if c.M.Acquire.Count() == 0 {
		t.Fatal("acquire histogram empty for software lock")
	}
	// Software locks spin on coherent memory, so cache transactions must
	// show up (the HW-lock path never touches the coherence fabric).
	cache := 0
	for _, r := range c.Records() {
		if r.Kind == obs.KCacheRd || r.Kind == obs.KCacheOwn {
			cache++
		}
	}
	if cache == 0 {
		t.Fatal("no cache-transaction records in a software-lock run")
	}
}

// TestEndToEndDeterministic asserts two identical runs export byte-equal
// traces and metrics.
func TestEndToEndDeterministic(t *testing.T) {
	export := func() ([]byte, []byte) {
		col := &obs.Collector{}
		col.Add(capture(t, "lcu"))
		var tb, mb bytes.Buffer
		if err := col.WriteChrome(&tb); err != nil {
			t.Fatal(err)
		}
		if err := col.WriteMetrics(&mb); err != nil {
			t.Fatal(err)
		}
		return tb.Bytes(), mb.Bytes()
	}
	t1, m1 := export()
	t2, m2 := export()
	if !json.Valid(t1) {
		t.Fatal("trace is not valid JSON")
	}
	if !bytes.Equal(t1, t2) {
		t.Fatal("identical runs exported different traces")
	}
	if !bytes.Equal(m1, m2) {
		t.Fatal("identical runs exported different metrics")
	}
}
