package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

func TestOptionsEnabled(t *testing.T) {
	if (Options{}).Enabled() {
		t.Error("zero Options must be disabled")
	}
	if !(Options{Records: true}).Enabled() {
		t.Error("Records must enable capture")
	}
	if !(Options{Metrics: true}).Enabled() {
		t.Error("Metrics must enable capture")
	}
	if (Options{Cache: true}).Enabled() {
		t.Error("Cache is a refinement; alone it enables nothing")
	}
}

// TestRecordSize: a Record stays 40 bytes, the memory cost of every
// captured event and of every slot of lockd's flight-recorder rings.
func TestRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(Record{}); n != 40 {
		t.Fatalf("Record is %d bytes, want 40", n)
	}
}

func TestCaptureRecGatingAndCap(t *testing.T) {
	off := New(Options{Metrics: true}, Meta{})
	off.Rec(1, 0, KReq, 1, 1, 0)
	if len(off.Records()) != 0 {
		t.Fatalf("Records disabled but %d records stored", len(off.Records()))
	}

	c := New(Options{Records: true}, Meta{})
	for i := 0; i < maxRecords+2; i++ {
		c.Rec(uint64(i), 0, KReq, 1, 1, 0)
	}
	if len(c.Records()) != maxRecords {
		t.Fatalf("got %d records, want %d (cap)", len(c.Records()), maxRecords)
	}
	if c.Dropped() != 2 {
		t.Fatalf("got %d dropped, want 2", c.Dropped())
	}
	if recs := c.Records(); recs[0].At != 2 || recs[maxRecords-1].At != maxRecords+1 {
		t.Fatalf("kept records %d..%d, want the last: 2..%d", recs[0].At, recs[maxRecords-1].At, maxRecords+1)
	}
	var col Collector
	col.Add(New(Options{Records: true}, Meta{}))
	col.Add(c)
	if runs, dropped, kept := col.Truncated(); runs != 1 || dropped != 2 || kept != maxRecords {
		t.Fatalf("Truncated() = %d runs, %d dropped, %d kept; want 1, 2, %d", runs, dropped, kept, maxRecords)
	}

	// Cache events are off by default even with Records on.
	c2 := New(Options{Records: true}, Meta{})
	c2.CacheEvent(1, 0, KCacheRd, 0x40, 10)
	if len(c2.Records()) != 0 {
		t.Fatalf("cache events recorded without their gate: %d", len(c2.Records()))
	}
}

func TestLockAcquiredAuxPacking(t *testing.T) {
	c := New(Options{Records: true, Metrics: true}, Meta{})
	c.LockAcquired(500, 2, 7, 0x99, 123, true)
	c.LockAcquired(600, 3, 8, 0x99, 0, false)
	if len(c.Records()) != 2 {
		t.Fatalf("got %d records, want 2", len(c.Records()))
	}
	r := c.Records()[0]
	if r.Aux>>1 != 123 || r.Aux&1 != 1 {
		t.Errorf("write acquire aux = %#x, want waited 123 | write bit", r.Aux)
	}
	if r2 := c.Records()[1]; r2.Aux != 0 {
		t.Errorf("read acquire with no wait: aux = %#x, want 0", r2.Aux)
	}
	if got := c.M.Acquire.Count(); got != 2 {
		t.Errorf("acquire histogram count = %d, want 2", got)
	}
}

func TestSamplerDeterministicCompaction(t *testing.T) {
	run := func() []DepthSample {
		var s Sampler
		for i := 0; i < 100_000; i++ {
			s.Add(uint64(i), i%17)
		}
		return s.Samples
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) > samplerCap {
		t.Fatalf("sample count %d out of (0, %d]", len(a), samplerCap)
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic sample count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	// Cycles must be strictly increasing (one observation per cycle here).
	for i := 1; i < len(a); i++ {
		if a[i].Cycle <= a[i-1].Cycle {
			t.Fatalf("samples out of order at %d: %v then %v", i, a[i-1], a[i])
		}
	}
}

func TestMetricsTransferAndWait(t *testing.T) {
	m := newMetrics(nil)

	m.transferEnd(50, 0x10) // unmatched end: ignored
	if m.Transfer.Count() != 0 {
		t.Fatal("unmatched transferEnd must not count")
	}
	m.transferStart(100, 0x10)
	m.transferEnd(140, 0x10)
	m.transferEnd(150, 0x10) // interval already closed
	if got := m.Transfer.Count(); got != 1 {
		t.Fatalf("transfer count = %d, want 1", got)
	}
	if got := m.Transfer.Max(); got != 40 {
		t.Fatalf("transfer max = %d, want 40", got)
	}

	m.waitStart(10, 1)
	m.waitStart(11, 1) // idempotent
	m.waitStart(12, 2)
	m.waitEnd(20, 3) // unknown tid: no-op
	m.waitEnd(21, 1)
	if m.depth != 1 {
		t.Fatalf("depth = %d, want 1 (tid 2 still waiting)", m.depth)
	}
	want := []DepthSample{{10, 1}, {12, 2}, {21, 1}}
	if len(m.Depth.Samples) != len(want) {
		t.Fatalf("depth samples = %v, want %v", m.Depth.Samples, want)
	}
	for i, s := range want {
		if m.Depth.Samples[i] != s {
			t.Fatalf("depth samples = %v, want %v", m.Depth.Samples, want)
		}
	}
}

func TestLinkSeriesBinning(t *testing.T) {
	m := newMetrics([]string{"l0", "l1"})
	m.linkCross(0, 100, 8, 0)
	m.linkCross(0, binCycles-100, 8, 4)
	m.linkCross(0, binCycles+500, 8, 0)
	m.linkCross(-1, 100, 8, 0) // out of range: ignored
	m.linkCross(2, 100, 8, 0)
	ls := m.Links[0]
	if len(ls.Bins) != 2 {
		t.Fatalf("bins = %v, want 2 bins", ls.Bins)
	}
	if b := ls.Bins[0]; b.Bin != 0 || b.Busy != 16 || b.Wait != 4 || b.Msgs != 2 {
		t.Fatalf("bin 0 = %+v", b)
	}
	if b := ls.Bins[1]; b.Bin != 1 || b.Busy != 8 || b.Msgs != 1 {
		t.Fatalf("bin 1 = %+v", b)
	}
	if len(m.Links[1].Bins) != 0 {
		t.Fatal("untouched link grew bins")
	}
}

func TestKindStrings(t *testing.T) {
	for k := KReq; k <= KKernel; k++ {
		if s := k.String(); strings.HasPrefix(s, "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
}

// synthetic builds a small capture exercising every export path.
func synthetic() *Capture {
	c := New(Options{Records: true, Metrics: true, Cache: true},
		Meta{Name: "test run", Cores: 2, LRTs: 1, Links: []string{"hub"}})
	c.Rec(10, CoreNode(0), KReq, 0x80, 1, 1)
	c.WaitStart(10, 1)
	c.TransferStart(15, 0x80)
	c.Rec(40, LRTNode(0), KLRTGrant, 0x80, 1, 0)
	c.TransferEnd(60, 0x80)
	c.WaitEnd(60, 1)
	c.LockAcquired(60, 0, 1, 0x80, 50, true)
	c.Rec(100, CoreNode(0), KUnlock, 0x80, 1, 0)
	c.Rec(110, CoreNode(1), KUnlock, 0x80, 9, 0) // unpaired unlock
	c.CacheEvent(120, 1, KCacheRd, 0x40, 180)
	c.LinkCross(0, 50, 8, 2)
	return c
}

func TestWriteChromeValidJSON(t *testing.T) {
	col := &Collector{}
	col.Add(synthetic())
	col.Add(nil) // skipped
	var b bytes.Buffer
	if err := col.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.Bytes())
	}
	byName := map[string]int{}
	events := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			byName[e.Args.Name]++ // track names live in args
		} else {
			byName[e.Name]++
			events++
		}
	}
	if events == 0 {
		t.Fatal("no non-metadata events")
	}
	for _, want := range []string{"core 0", "lrt 0", "kernel", "wait W", "cs W", "REQ", "LRT_GRANT", "CACHE_RD", "link hub", "lock queue depth"} {
		if byName[want] == 0 {
			t.Errorf("trace has no %q event; names: %v", want, byName)
		}
	}
}

func TestWriteMetricsValidJSON(t *testing.T) {
	col := &Collector{}
	col.Add(synthetic())
	var b bytes.Buffer
	if err := col.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs []struct {
			Name     string `json:"name"`
			Acquire  struct{ Count uint64 }
			Transfer struct{ Count uint64 }
			Links    []struct {
				Name string    `json:"name"`
				Bins []LinkBin `json:"bins"`
			} `json:"links"`
			Records int `json:"records"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.Bytes())
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(doc.Runs))
	}
	r := doc.Runs[0]
	if r.Name != "test run" || r.Acquire.Count != 1 || r.Transfer.Count != 1 || r.Records == 0 {
		t.Fatalf("unexpected run summary: %+v", r)
	}
	if len(r.Links) != 1 || r.Links[0].Name != "hub" || len(r.Links[0].Bins) != 1 {
		t.Fatalf("unexpected links: %+v", r.Links)
	}
}

func TestWriteFlight(t *testing.T) {
	c := New(Options{Records: true}, Meta{})
	for i := 0; i < maxRecords+2; i++ {
		c.Rec(uint64(i*10), CoreNode(i%2), KReq, 0x80, uint64(i), 0)
	}
	var b bytes.Buffer
	c.WriteFlight(&b, 2)
	out := b.String()
	if want := fmt.Sprintf("%d earlier records elided", maxRecords-2); !strings.Contains(out, want) {
		t.Errorf("missing elision header:\n%s", out)
	}
	if !strings.Contains(out, "REQ") || !strings.Contains(out, "core1") {
		t.Errorf("missing record rendering:\n%s", out)
	}
	if want := fmt.Sprintf("2 records dropped at the %d-record cap", maxRecords); !strings.Contains(out, want) {
		t.Errorf("missing dropped footer:\n%s", out)
	}
	if got := strings.Count(out, "REQ"); got != 2 {
		t.Errorf("got %d record lines, want 2:\n%s", got, out)
	}
}

// TestWriteFlightShowsRunsLastRecords: past the cap the log keeps the
// run's newest records, so the flight dump's last lines are the run's
// last events, not the last of its first maxRecords.
func TestWriteFlightShowsRunsLastRecords(t *testing.T) {
	c := New(Options{Records: true}, Meta{})
	const n = maxRecords + 1000
	for i := 0; i < n; i++ {
		c.Rec(uint64(i), CoreNode(0), KRel, 0x80, uint64(i), 0)
	}
	var b bytes.Buffer
	c.WriteFlight(&b, 2)
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want header, 2 records, footer:\n%s", len(lines), b.String())
	}
	for i, tid := range []int{n - 2, n - 1} {
		if want := fmt.Sprintf("[%10d] core0   REL       t%-4d 0x80 aux=0", tid, tid); lines[1+i] != want {
			t.Errorf("line %d = %q, want %q", 1+i, lines[1+i], want)
		}
	}
}
