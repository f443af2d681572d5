package lockmgr

import (
	"sync/atomic"

	"fairrw/internal/stats"
)

// counters are the manager's obs-style monotonic counters plus the live
// waiter gauge. All fields are updated with atomics on the request paths;
// Stats() reads them without stopping the world, so a snapshot is
// internally consistent only per-field (the convention internal/obs uses
// for its run counters).
type counters struct {
	sharedGrants   atomic.Uint64
	exclGrants     atomic.Uint64
	releases       atomic.Uint64
	timeouts       atomic.Uint64
	keepalives     atomic.Uint64
	sessionsOpened atomic.Uint64
	sessionsClosed atomic.Uint64
	expirations    atomic.Uint64
	revokedHolds   atomic.Uint64
	entriesCreated atomic.Uint64
	entriesGCed    atomic.Uint64
	waiting        atomic.Int64
}

// Snapshot is one consistent-enough view of the manager's counters and
// wait-latency distribution, shaped for JSON dumping (cmd/lockd -metrics,
// the wire Stats op).
type Snapshot struct {
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

	Entries  int   `json:"entries"`
	Sessions int   `json:"sessions"`
	Waiting  int64 `json:"waiting"`

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

// observeWait records n grants that each waited ns in queue: one
// contended grant, or a batch's uncontended (zero-wait) grants under a
// single histogram-lock hold.
func (m *Manager) observeWait(ns, n uint64) {
	if n == 0 {
		return
	}
	m.waitMu.Lock()
	m.wait.AddN(ns, n)
	m.waitMu.Unlock()
}

// observeHold records releases' hold times (grant to release), a whole
// batch's under one lock hold.
func (m *Manager) observeHold(ns ...int64) {
	if len(ns) == 0 {
		return
	}
	m.holdMu.Lock()
	for _, d := range ns {
		m.holdH.Add(uint64(max(d, 0)))
	}
	m.holdMu.Unlock()
}

// Stats returns a snapshot of the manager's counters, table sizes, and
// wait-latency percentiles (p50/p99 via internal/stats histograms).
func (m *Manager) Stats() Snapshot {
	s := Snapshot{
		SharedGrants:     m.c.sharedGrants.Load(),
		ExclGrants:       m.c.exclGrants.Load(),
		Releases:         m.c.releases.Load(),
		Timeouts:         m.c.timeouts.Load(),
		Keepalives:       m.c.keepalives.Load(),
		SessionsOpened:   m.c.sessionsOpened.Load(),
		SessionsClosed:   m.c.sessionsClosed.Load(),
		LeaseExpirations: m.c.expirations.Load(),
		RevokedHolds:     m.c.revokedHolds.Load(),
		EntriesCreated:   m.c.entriesCreated.Load(),
		EntriesGCed:      m.c.entriesGCed.Load(),
		Entries:          m.EntryCount(),
		Sessions:         m.SessionCount(),
		Waiting:          m.c.waiting.Load(),
	}
	m.waitMu.Lock()
	s.WaitCount = m.wait.Count()
	s.WaitMeanUS = m.wait.Mean() / 1e3
	s.WaitP50US = m.wait.Percentile(50) / 1e3
	s.WaitP99US = m.wait.Percentile(99) / 1e3
	s.WaitMaxUS = float64(m.wait.Max()) / 1e3
	s.WaitTotalSecs = m.wait.Mean() * float64(m.wait.Count()) / 1e9
	m.waitMu.Unlock()
	m.holdMu.Lock()
	s.HoldCount = m.holdH.Count()
	s.HoldMeanUS = m.holdH.Mean() / 1e3
	s.HoldP50US = m.holdH.Percentile(50) / 1e3
	s.HoldP99US = m.holdH.Percentile(99) / 1e3
	s.HoldMaxUS = float64(m.holdH.Max()) / 1e3
	m.holdMu.Unlock()
	return s
}

// WaitHistogram returns a copy of the grant-wait histogram (ns samples)
// for exposition (the admin plane's Prometheus histogram).
func (m *Manager) WaitHistogram() stats.Histogram {
	m.waitMu.Lock()
	h := m.wait
	m.waitMu.Unlock()
	return h
}

// HoldHistogram returns a copy of the hold-time histogram (ns samples).
func (m *Manager) HoldHistogram() stats.Histogram {
	m.holdMu.Lock()
	h := m.holdH
	m.holdMu.Unlock()
	return h
}
