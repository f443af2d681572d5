// Package stats provides the small statistical toolkit used by the
// benchmark harnesses: means, standard deviations, Student-t 95%
// confidence intervals (Figure 13 reports them), geometric means, and a
// fixed log-bucket histogram for latency distributions (the observability
// layer's acquire/transfer metrics, with their percentiles).
package stats

import (
	"fmt"
	"io"
	"math"
	"math/bits"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// t95 holds two-sided 95% Student-t critical values by degrees of freedom
// (1-30); beyond 30 the normal approximation 1.96 is used.
var t95 = []float64{
	0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// CI95 returns the half-width of the 95% confidence interval of the mean.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	df := n - 1
	t := 1.96
	if df < len(t95) {
		t = t95[df]
	}
	return t * StdDev(xs) / math.Sqrt(float64(n))
}

// GeoMean returns the geometric mean of xs (which must be positive).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Histogram counts uint64 samples in fixed logarithmic buckets: exact
// buckets below histSub, then histSub sub-buckets per power of two, so the
// relative quantization error is bounded by 1/histSub at any magnitude.
// The zero value is ready to use, and recording a sample is allocation
// free — suitable for simulator hot paths.
type Histogram struct {
	counts [histSize]uint64
	n      uint64
	sum    uint64
	min    uint64
	max    uint64
}

const (
	histSub  = 4 // sub-buckets per power of two
	histSize = 256
)

// histBucket maps a value to its bucket index.
func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	b := bits.Len64(v) - 1 // position of the top bit, >= 2
	top := v >> uint(b-2)  // top three bits, in [4, 8)
	return 4*(b-2) + int(top-4) + 4
}

// histBounds returns the closed value range [lo, hi] of bucket i.
func histBounds(i int) (lo, hi uint64) {
	if i < histSub {
		return uint64(i), uint64(i)
	}
	b := (i-histSub)/histSub + 2
	t := uint64((i-histSub)%histSub + histSub)
	lo = t << uint(b-2)
	hi = (t+1)<<uint(b-2) - 1
	return lo, hi
}

// Add records one sample.
func (h *Histogram) Add(v uint64) {
	h.counts[histBucket(v)]++
	h.sum += v
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
}

// Reset discards every recorded sample, returning h to its zero state.
// Load generators use it to drop warmup samples: record from the start,
// Reset when the warmup window closes, and only steady-state samples
// remain.
func (h *Histogram) Reset() { *h = Histogram{} }

// Merge folds o's samples into h, so per-worker histograms recorded
// without sharing can be aggregated after the fact. Bucket layouts are
// identical by construction, so the merge is exact.
func (h *Histogram) Merge(o *Histogram) {
	if o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.n }

// Mean returns the arithmetic mean of the recorded samples.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Min returns the smallest recorded sample.
func (h *Histogram) Min() uint64 { return h.min }

// Max returns the largest recorded sample.
func (h *Histogram) Max() uint64 { return h.max }

// Percentile estimates the p-th percentile (0 <= p <= 100) by locating the
// bucket holding the target rank and interpolating linearly within it. The
// result is exact below histSub and within the bucket's bounds above.
func (h *Histogram) Percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return float64(h.min)
	}
	if p >= 100 {
		return float64(h.max)
	}
	rank := p / 100 * float64(h.n)
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo, hi := histBounds(i)
			if hi > h.max {
				hi = h.max
			}
			frac := (rank - float64(cum)) / float64(c)
			return float64(lo) + frac*float64(hi-lo)
		}
		cum += c
	}
	return float64(h.max)
}

// WriteProm renders h as one Prometheus cumulative histogram: a # TYPE
// header, one `_bucket` line per non-empty bucket (cumulative counts,
// inclusive `le` upper bounds) plus the mandatory `+Inf` bucket, then
// `_sum` and `_count`. scale converts sample units into the exported
// unit — 1e-9 for nanosecond samples exported as Prometheus-conventional
// seconds. labels is the brace-free label list shared by every line
// (empty for none). Rendering only non-empty buckets keeps a 256-bucket
// log histogram's exposition compact while staying a valid cumulative
// histogram: `le` bounds are strictly increasing by construction.
func (h *Histogram) WriteProm(w io.Writer, name, labels string, scale float64) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	h.WritePromSeries(w, name, labels, scale)
}

// WritePromSeries is WriteProm without the # TYPE header, for emitting
// several label sets of the same histogram family under one header.
func (h *Histogram) WritePromSeries(w io.Writer, name, labels string, scale float64) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		_, hi := histBounds(i)
		cum += c
		fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", name, labels+sep, float64(hi)*scale, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels+sep, h.n)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sum)*scale)
		fmt.Fprintf(w, "%s_count %d\n", name, h.n)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, float64(h.sum)*scale)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.n)
	}
}

// Bucket is one non-empty histogram bucket.
type Bucket struct {
	Lo, Hi uint64 // closed value range
	Count  uint64
}

// Buckets returns the non-empty buckets in increasing value order.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := histBounds(i)
		out = append(out, Bucket{Lo: lo, Hi: hi, Count: c})
	}
	return out
}
