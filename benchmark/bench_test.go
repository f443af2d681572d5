package main

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, med, q3 := quartiles([]float64{46, 1, 22, 2, 37, 4, 29, 7, 16, 11})
	if q1 != 3.5 || med != 13.5 || q3 != 31.0 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
	// quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]: two points extrapolate.
	q1, med, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || med != 2 || q3 != 3.5 {
		t.Errorf("quartiles of two = %v %v %v, want 0.5 2 3.5", q1, med, q3)
	}
	if q1, med, q3 = quartiles([]float64{5}); q1 != 5 || med != 5 || q3 != 5 {
		t.Errorf("quartiles of one = %v %v %v", q1, med, q3)
	}
}

func TestPercentileAndSeries(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {25, 20}, {90, 46}, {100, 50}} {
		if got := percentile(sorted, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	v := series{4, 1, 3, 2, 100}.median("us")
	if v.Value != 3 || v.Median != 3 || v.Slices != 5 || v.Unit != "us" {
		t.Errorf("median of slices = %+v, want 3 over 5 slices", v)
	}
	if v.Q1 != 1.5 || v.Q3 != 52 {
		t.Errorf("quartiles of slices = %v %v, want 1.5 52", v.Q1, v.Q3)
	}
	// The quiet-end value is the second best slice whichever way better
	// points; the median is reported beside it.
	var lat, rate series
	for i := 1; i <= 20; i++ {
		lat = append(lat, float64(i))
		rate = append(rate, float64(i))
	}
	if v := lat.quiet("us", "lower"); v.Value != 2 || v.Median != 10.5 {
		t.Errorf("quiet latency = %v (median %v), want 2 (10.5)", v.Value, v.Median)
	}
	if v := rate.quiet("1/s", "higher"); v.Value != 19 {
		t.Errorf("quiet rate = %v, want 19", v.Value)
	}
	if v := (series{7}).quiet("us", "lower"); v.Value != 7 {
		t.Errorf("quiet of one slice = %v, want 7", v.Value)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(1)
	b := tr.thread(0)
	root := b.begin("bench.txn", -1, 7)
	child := b.begin("layer.Call", root, 7)
	b.end(child)
	b.end(root)
	// Fix the clock readings so the arithmetic is exact.
	b.spans[root].start, b.spans[root].end = 0, 1000
	b.spans[child].start, b.spans[child].end = 100, 700
	rows := map[string]selfRow{}
	for _, r := range tr.selfTimes() {
		rows[r.Name] = r
	}
	if r := rows["bench.txn"]; r.TotalUS != 1 || r.SelfUS != 0.4 {
		t.Errorf("bench.txn = %+v, want total 1us self 0.4us", r)
	}
	if r := rows["layer.Call"]; r.SelfUS != 0.6 {
		t.Errorf("layer.Call = %+v, want self 0.6us", r)
	}
	var nilBuf *traceBuf
	nilBuf.end(nilBuf.begin("x", -1, 0)) // a nil buffer records nothing and does not panic
}

func doc(ops, p50 float64, spreadShare float64, failed int64) *document {
	mk := func(v float64) value {
		return value{Value: v, Q1: v * (1 - spreadShare/2), Q3: v * (1 + spreadShare/2), Slices: 20}
	}
	return &document{Workloads: map[string]report{"w": {
		Workload: "w", Correct: true, Attempted: 1000, Failed: failed,
		EndToEnd: map[string]value{"ops_per_s": mk(ops), "op_p50_us": mk(p50)},
	}}}
}

func TestCompareVerdicts(t *testing.T) {
	s := &spec{EndToEnd: []metricDef{
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
	}}
	cases := []struct {
		name     string
		old, new *document
		want     []string
		code     int
	}{
		{"same", doc(100, 10, 0.02, 0), doc(105, 10.5, 0.02, 0), []string{"same", "same"}, 0},
		{"better", doc(100, 10, 0.02, 0), doc(120, 8, 0.02, 0), []string{"better", "better"}, 0},
		{"worse throughput", doc(100, 10, 0.02, 0), doc(80, 10, 0.02, 0), []string{"worse", "same"}, 1},
		{"worse latency", doc(100, 10, 0.02, 0), doc(100, 12, 0.02, 0), []string{"same", "worse"}, 1},
		{"too noisy to tell", doc(100, 10, 0.30, 0), doc(80, 12, 0.30, 0), []string{"unresolved", "unresolved"}, 0},
		{"more failures", doc(100, 10, 0.02, 0), doc(100, 10, 0.02, 3), []string{"same", "same", "worse"}, 1},
	}
	verdictRE := regexp.MustCompile(`(better|same|worse|unresolved)\s*$`)
	for _, c := range cases {
		var buf bytes.Buffer
		code := compareDocs(s, c.old, c.new, &buf)
		var got []string
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n")[1:] {
			got = append(got, verdictRE.FindStringSubmatch(line)[1])
		}
		if code != c.code || !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: exit %d verdicts %v, want exit %d %v\n%s", c.name, code, got, c.code, c.want, buf.String())
		}
	}
	var buf bytes.Buffer
	if code := compareDocs(s, doc(1, 1, 0, 0), &document{}, &buf); code != 1 {
		t.Errorf("documents with no workload in common: exit %d, want 1", code)
	}
}

// TestSpecAgreesWithTables: BENCHMARK.json declares exactly the workloads
// and metrics the code emits, within the contract's limits.
func TestSpecAgreesWithTables(t *testing.T) {
	s, err := readSpec(filepath.Join(repoRoot(), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", s.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(s.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the code's table")
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: outside the allowed characters", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	var setup *metricDef
	for i, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = &endToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better")
	} else {
		for _, d := range endToEnd {
			if d.Bound > setup.Bound {
				t.Errorf("%q has a larger bound than setup_s", d.Name)
			}
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics: over the limit", len(endToEnd), len(perLayer))
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name || s.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %q, code %q (or their why differs)", i, s.Workloads[i].Name, w.name)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
	if !reflect.DeepEqual(s.Paths, []string{"benchmark"}) || !reflect.DeepEqual(s.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("paths %v command %v", s.Paths, s.Command)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d", s.RunSeconds)
	}
}

// TestSmokeEveryWorkload runs each workload at its shortest, traced and
// untraced, and checks that it is correct and emits exactly the declared
// metrics, finite and, end to end, above zero.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []bool{false, true} {
			rep := runWorkload(w, runCfg{seed: 1, smoke: true, trace: trace})
			if !rep.Correct {
				t.Errorf("%s trace=%v: incorrect: %v", w.name, trace, rep.Problems)
			}
			res := rep.emit(trace)
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s not emitted", w.name, d.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s = %v", w.name, d.Name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, must be above zero", w.name, d.Name, m.Value)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s in %q, declared %q", w.name, d.Name, m.Unit, d.Unit)
				}
			}
			if trace {
				parks := res.Metrics["server.parks_per_pair"].Value
				if w.name == "svc-pipelined-read" && parks >= 0.01 {
					t.Errorf("svc-pipelined-read parks %.3f of its pairs; it is meant to stay on the try path", parks)
				}
				if w.name == "svc-handoff-write" && parks <= 0.2 {
					t.Errorf("svc-handoff-write parks only %.3f of its pairs; it is meant to queue", parks)
				}
			}
		}
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, b, c := genStream(1, 0, 90, 64), genStream(1, 0, 90, 64), genStream(2, 0, 90, 64)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different op stream")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seed, same op stream")
	}
	if reflect.DeepEqual(a, genStream(1, 1, 90, 64)) {
		t.Error("the two clients share an op stream")
	}
	excl := 0
	for _, o := range a {
		if o.key >= 64 {
			t.Fatalf("key %d outside 64 keys", o.key)
		}
		if o.excl {
			excl++
		}
	}
	if share := float64(excl) / float64(len(a)); share < 0.08 || share > 0.12 {
		t.Errorf("exclusive share %.3f, want about 0.10", share)
	}

	// The simulator sees the seed only through its configs: same seed,
	// identical simulated statistics; another seed, other statistics.
	digest := func(seed int64) string {
		in, err := setupSim("sim-stm", seed)
		if err != nil {
			t.Fatal(err)
		}
		var s sliceSample
		return in.pass(nil, &s)
	}
	d1, d1again, d2 := digest(1), digest(1), digest(2)
	if d1 != d1again {
		t.Errorf("same seed, simulated statistics differ: %s vs %s", d1, d1again)
	}
	if d1 == d2 {
		t.Error("different seed, identical simulated statistics")
	}
	g, err := readGolden()
	if err != nil {
		t.Fatal(err)
	}
	if want := g["sim-stm"]["1"]; want != d1 {
		t.Errorf("seed 1 digest %s, golden file has %q", d1, want)
	}
}
