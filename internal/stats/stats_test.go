package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Fatal("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
}

func TestStdDev(t *testing.T) {
	if !almost(StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}), math.Sqrt(32.0/7.0)) {
		t.Fatal("stddev wrong")
	}
	if StdDev([]float64{5}) != 0 {
		t.Fatal("single-sample stddev should be 0")
	}
}

func TestCI95(t *testing.T) {
	// n=5, df=4, t=2.776
	xs := []float64{10, 12, 14, 16, 18}
	want := 2.776 * StdDev(xs) / math.Sqrt(5)
	if !almost(CI95(xs), want) {
		t.Fatalf("CI95 = %v, want %v", CI95(xs), want)
	}
	if CI95([]float64{1}) != 0 {
		t.Fatal("CI of one sample should be 0")
	}
}

func TestGeoMean(t *testing.T) {
	if !almost(GeoMean([]float64{1, 4}), 2) {
		t.Fatal("geomean wrong")
	}
}

// Property: mean is bounded by min and max.
func TestMeanBoundedProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		lo, hi := slices.Min(clean), slices.Max(clean)
		m := Mean(clean)
		return m >= lo-1e-6 && m <= hi+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: stddev is non-negative and zero for constant slices.
func TestStdDevProperty(t *testing.T) {
	f := func(v float64, n uint8) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
			return true
		}
		xs := make([]float64, int(n%20)+2)
		for i := range xs {
			xs[i] = v
		}
		return almost(StdDev(xs), 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Histogram (observability-layer metrics).

func TestHistogramSmallValuesExact(t *testing.T) {
	var h Histogram
	for v := uint64(0); v < 4; v++ {
		h.Add(v)
	}
	if h.Count() != 4 || h.Min() != 0 || h.Max() != 3 {
		t.Fatalf("count/min/max = %d/%d/%d", h.Count(), h.Min(), h.Max())
	}
	if !almost(h.Mean(), 1.5) {
		t.Errorf("mean = %v, want 1.5", h.Mean())
	}
	bs := h.Buckets()
	if len(bs) != 4 {
		t.Fatalf("buckets = %+v, want 4 exact buckets", bs)
	}
	for i, b := range bs {
		if b.Lo != uint64(i) || b.Hi != uint64(i) || b.Count != 1 {
			t.Errorf("bucket %d = %+v", i, b)
		}
	}
}

func TestHistogramBucketMonotonic(t *testing.T) {
	// Bucket index and bounds must be monotone and consistent across
	// magnitudes: every value lands in a bucket whose range contains it.
	prev := -1
	for _, v := range []uint64{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 100, 1000, 1 << 20, 1<<40 + 12345, 1<<63 + 9} {
		i := histBucket(v)
		if i < prev {
			t.Fatalf("histBucket(%d) = %d < previous %d", v, i, prev)
		}
		prev = i
		lo, hi := histBounds(i)
		if v < lo || v > hi {
			t.Errorf("value %d in bucket %d with bounds [%d, %d]", v, i, lo, hi)
		}
	}
	if i := histBucket(^uint64(0)); i >= histSize {
		t.Fatalf("histBucket(max) = %d out of range", i)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	for v := uint64(1); v <= 1000; v++ {
		h.Add(v)
	}
	// Log-bucket quantization bounds the relative error by 1/histSub.
	for _, tc := range []struct{ p, want float64 }{
		{50, 500}, {95, 950}, {99, 990},
	} {
		got := h.Percentile(tc.p)
		if got < tc.want*0.75 || got > tc.want*1.25 {
			t.Errorf("p%v = %v, want within 25%% of %v", tc.p, got, tc.want)
		}
	}
	if h.Percentile(0) != 1 || h.Percentile(100) != 1000 {
		t.Errorf("p0/p100 = %v/%v, want 1/1000", h.Percentile(0), h.Percentile(100))
	}
	var empty Histogram
	if empty.Percentile(50) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram must report zeros")
	}
}

func TestHistogramBucketsCoverAllSamples(t *testing.T) {
	var h Histogram
	const n = 10_000
	for i := 0; i < n; i++ {
		h.Add(uint64(i) * 37 % 4096)
	}
	var total uint64
	for _, b := range h.Buckets() {
		if b.Lo > b.Hi {
			t.Errorf("bucket with inverted bounds: %+v", b)
		}
		total += b.Count
	}
	if total != n {
		t.Errorf("bucket counts sum to %d, want %d", total, n)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, whole Histogram
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		v := uint64(rng.Intn(1 << 20))
		whole.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(&b)
	if a.Count() != whole.Count() || a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatalf("merged count/min/max = %d/%d/%d, want %d/%d/%d",
			a.Count(), a.Min(), a.Max(), whole.Count(), whole.Min(), whole.Max())
	}
	if a.Mean() != whole.Mean() {
		t.Fatalf("merged mean %v, want %v", a.Mean(), whole.Mean())
	}
	for _, p := range []float64{1, 50, 99} {
		if got, want := a.Percentile(p), whole.Percentile(p); got != want {
			t.Fatalf("merged p%v = %v, want %v", p, got, want)
		}
	}
	var empty Histogram
	a.Merge(&empty) // no-op
	if a.Count() != whole.Count() {
		t.Fatal("merging an empty histogram changed the count")
	}
	empty.Merge(&a) // merge into zero value adopts min/max
	if empty.Min() != whole.Min() || empty.Max() != whole.Max() {
		t.Fatal("merge into empty histogram lost min/max")
	}
}
