package lockmgr

import "sort"

// LockProfile is one row of the hot-lock table: the per-lock contention
// profile maintained on the lock's table entry and read out on scrape.
// Acquires counts acquire arrivals, one per acquire executed
// to a result or queued: a batch acquire answered ErrDeferred, or
// ErrWouldBlock with no Waiter to queue for, is counted when it comes
// back, not twice. The wait columns cover contended grants only —
// uncontended try-path grants have zero queue wait by definition.
type LockProfile struct {
	Name        string  `json:"name"`
	Acquires    uint64  `json:"acquires"`
	WaitTotalUS float64 `json:"wait_total_us"`
	WaitMaxUS   float64 `json:"wait_max_us"`
	QueueLen    int     `json:"queue_len"`
}

// HotLocks returns the top-k locks by attributed wait time (acquire
// arrivals break ties), most contended first. It walks the live entry
// table in one hold of Manager.mu and sorts after it — bounded work and
// memory, since idle entries are collected down to the working set — so
// it is safe to call on a scrape path while the server is under load. A
// lock idle past IdleTTL has been collected and no longer appears: the
// table profiles live traffic, not history.
func (m *Manager) HotLocks(k int) []LockProfile {
	if k <= 0 {
		return nil
	}
	var all []LockProfile
	m.mu.Lock()
	for _, e := range m.entries {
		if e.acquires == 0 {
			continue
		}
		all = append(all, LockProfile{
			Name:        e.name,
			Acquires:    e.acquires,
			WaitTotalUS: float64(e.waitNS) / 1e3,
			WaitMaxUS:   float64(e.maxWaitNS) / 1e3,
			QueueLen:    e.lk.Len(),
		})
	}
	m.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if a.WaitTotalUS != b.WaitTotalUS {
			return a.WaitTotalUS > b.WaitTotalUS
		}
		if a.Acquires != b.Acquires {
			return a.Acquires > b.Acquires
		}
		return a.Name < b.Name
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}
