package lockmgr

import (
	"time"

	"fairrw/internal/stats"
)

// Counters are the manager's monotonic counters plus the live waiter
// gauge. Like the table they count, they are guarded by Manager.mu, and
// each is booked in the hold that makes its event, so Stats reads one
// consistent cut: grants match wait samples and releases hold samples.
type Counters struct {
	SharedGrants     uint64 `json:"shared_grants"`
	ExclGrants       uint64 `json:"excl_grants"`
	Releases         uint64 `json:"releases"`
	Timeouts         uint64 `json:"timeouts"`
	Keepalives       uint64 `json:"keepalives"`
	SessionsOpened   uint64 `json:"sessions_opened"`
	SessionsClosed   uint64 `json:"sessions_closed"`
	LeaseExpirations uint64 `json:"lease_expirations"`
	RevokedHolds     uint64 `json:"revoked_holds"`
	EntriesCreated   uint64 `json:"entries_created"`
	EntriesGCed      uint64 `json:"entries_gced"`
	Waiting          int64  `json:"waiting"`
}

// Snapshot is one consistent view of the manager's counters, table sizes
// and wait and hold distributions, read in one hold of Manager.mu and
// shaped for JSON dumping (cmd/lockd -metrics, the wire Stats op).
type Snapshot struct {
	Counters

	Entries  int `json:"entries"`
	Sessions int `json:"sessions"`

	WaitCount     uint64  `json:"wait_count"`
	WaitMeanUS    float64 `json:"wait_mean_us"`
	WaitP50US     float64 `json:"wait_p50_us"`
	WaitP99US     float64 `json:"wait_p99_us"`
	WaitMaxUS     float64 `json:"wait_max_us"`
	WaitTotalSecs float64 `json:"wait_total_secs"`

	HoldCount  uint64  `json:"hold_count"`
	HoldMeanUS float64 `json:"hold_mean_us"`
	HoldP50US  float64 `json:"hold_p50_us"`
	HoldP99US  float64 `json:"hold_p99_us"`
	HoldMaxUS  float64 `json:"hold_max_us"`
}

// granted books one grant in mode excl and its queue wait: 0 on the try
// path (acquire), the measured wait for a queued acquire (complete). mu is
// held.
func (m *Manager) granted(excl bool, waited time.Duration) {
	if excl {
		m.c.ExclGrants++
	} else {
		m.c.SharedGrants++
	}
	m.wait.Add(uint64(waited))
}

// Stats returns a snapshot of the manager's counters, table sizes, and
// wait and hold percentiles (internal/stats histograms). The hold of mu
// only copies; the percentiles are computed after it.
func (m *Manager) Stats() Snapshot {
	m.mu.Lock()
	c, entries, sessions := m.c, len(m.entries), len(m.sessions)
	wait, hold := m.wait, m.holdH
	m.mu.Unlock()
	return Snapshot{
		Counters: c,
		Entries:  entries,
		Sessions: sessions,

		WaitCount:     wait.Count(),
		WaitMeanUS:    wait.Mean() / 1e3,
		WaitP50US:     wait.Percentile(50) / 1e3,
		WaitP99US:     wait.Percentile(99) / 1e3,
		WaitMaxUS:     float64(wait.Max()) / 1e3,
		WaitTotalSecs: wait.Mean() * float64(wait.Count()) / 1e9,

		HoldCount:  hold.Count(),
		HoldMeanUS: hold.Mean() / 1e3,
		HoldP50US:  hold.Percentile(50) / 1e3,
		HoldP99US:  hold.Percentile(99) / 1e3,
		HoldMaxUS:  float64(hold.Max()) / 1e3,
	}
}

// WaitHistogram returns a copy of the grant-wait histogram (ns samples)
// for exposition (the admin plane's Prometheus histogram).
func (m *Manager) WaitHistogram() stats.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.wait
}

// HoldHistogram returns a copy of the hold-time histogram (ns samples).
func (m *Manager) HoldHistogram() stats.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.holdH
}
