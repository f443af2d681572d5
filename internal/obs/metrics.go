package obs

import (
	"encoding/json"
	"io"

	"fairrw/internal/stats"
)

// Metrics is the cycle-binned metrics recorder of one run: latency
// histograms, per-link occupancy time series, and a live queue-depth
// sampler. All updates are driven by the (single-goroutine) simulation, so
// no locking is needed and the contents are deterministic.
type Metrics struct {
	// Acquire is the distribution of cycles threads spent between first
	// requesting a lock and entering the critical section.
	Acquire stats.Histogram
	// Transfer is the distribution of lock hand-off times: release (or
	// direct transfer) initiation to the next grant of the same lock.
	Transfer stats.Histogram

	// Depth samples the number of threads waiting in lock queues.
	Depth Sampler

	// Links holds one binned occupancy series per interconnect link.
	Links []LinkSeries

	lastRel map[uint64]uint64   // lock -> transfer start cycle
	waiting map[uint64]struct{} // tids currently waiting
	depth   int
}

// binCycles is the width of a link series' time bin.
const binCycles = 10_000

func newMetrics(linkNames []string) *Metrics {
	m := &Metrics{
		lastRel: make(map[uint64]uint64),
		waiting: make(map[uint64]struct{}),
	}
	m.Links = make([]LinkSeries, len(linkNames))
	for i, name := range linkNames {
		m.Links[i].Name = name
	}
	return m
}

func (m *Metrics) transferStart(cycle, lock uint64) {
	m.lastRel[lock] = cycle
}

func (m *Metrics) transferEnd(cycle, lock uint64) {
	t0, ok := m.lastRel[lock]
	if !ok {
		return
	}
	delete(m.lastRel, lock)
	if cycle >= t0 {
		m.Transfer.Add(cycle - t0)
	}
}

func (m *Metrics) waitStart(cycle, tid uint64) {
	if _, ok := m.waiting[tid]; ok {
		return
	}
	m.waiting[tid] = struct{}{}
	m.depth++
	m.Depth.Add(cycle, m.depth)
}

func (m *Metrics) waitEnd(cycle, tid uint64) {
	if _, ok := m.waiting[tid]; !ok {
		return
	}
	delete(m.waiting, tid)
	m.depth--
	m.Depth.Add(cycle, m.depth)
}

func (m *Metrics) linkCross(id int, cycle, busy, wait uint64) {
	if id < 0 || id >= len(m.Links) {
		return
	}
	m.Links[id].add(cycle/binCycles, busy, wait)
}

// LinkBin aggregates one link's traffic over one time bin.
type LinkBin struct {
	Bin  uint64 `json:"bin"`  // bin index; start cycle = bin * binCycles
	Busy uint64 `json:"busy"` // cycles of serialization occupancy charged
	Wait uint64 `json:"wait"` // cycles messages queued behind earlier ones
	Msgs uint64 `json:"msgs"`
}

// LinkSeries is the binned occupancy record of one interconnect link.
// Bins are stored sparsely in increasing time order (simulation time only
// moves forward).
type LinkSeries struct {
	Name string    `json:"name"`
	Bins []LinkBin `json:"bins,omitempty"`
}

func (s *LinkSeries) add(bin, busy, wait uint64) {
	n := len(s.Bins)
	if n == 0 || s.Bins[n-1].Bin != bin {
		s.Bins = append(s.Bins, LinkBin{Bin: bin})
		n++
	}
	b := &s.Bins[n-1]
	b.Busy += busy
	b.Wait += wait
	b.Msgs++
}

// DepthSample is one queue-depth observation.
type DepthSample struct {
	Cycle uint64 `json:"cycle"`
	Depth int    `json:"depth"`
}

// Sampler keeps a bounded, deterministic sample of a time series: it
// records every stride-th observation, and when the buffer fills it drops
// every other retained sample and doubles the stride. The result depends
// only on the observation sequence, never on wall-clock or randomness.
type Sampler struct {
	Samples []DepthSample
	stride  uint64
	skip    uint64
}

const samplerCap = 4096

// Add offers one observation to the sampler.
func (s *Sampler) Add(cycle uint64, depth int) {
	if s.stride == 0 {
		s.stride = 1
	}
	if s.skip > 0 {
		s.skip--
		return
	}
	s.skip = s.stride - 1
	if len(s.Samples) == samplerCap {
		half := s.Samples[:0]
		for i := 0; i < samplerCap; i += 2 {
			half = append(half, s.Samples[i])
		}
		s.Samples = half
		s.stride *= 2
	}
	s.Samples = append(s.Samples, DepthSample{Cycle: cycle, Depth: depth})
}

// histSummary is the serialized form of a latency histogram.
type histSummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	Min   uint64  `json:"min"`
	Max   uint64  `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

func summarize(h *stats.Histogram) histSummary {
	return histSummary{
		Count: h.Count(), Mean: h.Mean(), Min: h.Min(), Max: h.Max(),
		P50: h.Percentile(50), P95: h.Percentile(95), P99: h.Percentile(99),
	}
}

// runMetrics is the serialized form of one run's metrics.
type runMetrics struct {
	Name       string        `json:"name"`
	BinWidth   uint64        `json:"bin_cycles"`
	Acquire    histSummary   `json:"acquire"`
	Transfer   histSummary   `json:"transfer"`
	QueueDepth []DepthSample `json:"queue_depth,omitempty"`
	Links      []LinkSeries  `json:"links,omitempty"`
	Records    int           `json:"records"`
	Dropped    uint64        `json:"dropped,omitempty"`
}

// WriteMetrics serializes every collected run's metrics as structured
// JSON. Output is fully deterministic: runs appear in collection order and
// all series are ordered slices.
func (c *Collector) WriteMetrics(w io.Writer) error {
	out := struct {
		Runs []runMetrics `json:"runs"`
	}{Runs: []runMetrics{}}
	for _, cap := range c.Caps {
		if cap.M == nil {
			continue
		}
		m := cap.M
		rm := runMetrics{
			Name:       cap.Meta.Name,
			BinWidth:   binCycles,
			Acquire:    summarize(&m.Acquire),
			Transfer:   summarize(&m.Transfer),
			QueueDepth: m.Depth.Samples,
			Records:    len(cap.Recs),
			Dropped:    cap.Dropped,
		}
		for _, ls := range m.Links {
			if len(ls.Bins) > 0 {
				rm.Links = append(rm.Links, ls)
			}
		}
		out.Runs = append(out.Runs, rm)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
