package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"fairrw/internal/lockmgr"
	"fairrw/internal/obs"
	"fairrw/internal/stats"
)

// The admin plane: a live HTTP view of the lock service. One handler
// serves the same metrics in two encodings — Prometheus text for
// scrapers and JSON (the manager snapshot schema the wire Stats op and
// -metrics files already use, extended with worker and hot-lock tables)
// — plus the flight recorder and net/http/pprof. The manager's numbers
// are read in one short hold of Manager.mu, the one its ops take, so a
// scrape delays a worker loop by a copy at most and its numbers agree
// with each other; the workers' own counters stay lock-free.

// DefaultHotLocks is the hot-lock table depth served when a request
// does not pass ?k=, and the depth cmd/lockd writes to its -metrics file.
const DefaultHotLocks = 20

// BuildInfo identifies the running binary so every metrics payload (and
// each bench JSON row derived from one) is attributable to a build.
type BuildInfo struct {
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
}

// WorkerStats is one event-loop worker's counters at a scrape.
type WorkerStats struct {
	Worker       int    `json:"worker"`
	Conns        int64  `json:"conns"`     // accepted and not yet dropped, silent ones included
	Wakeups      uint64 `json:"wakeups"`   // loop cycles run for listed events: their bringers found the loop busy
	Donations    uint64 `json:"donations"` // loop cycles run by the event's own bringer; every cycle is one or the other
	Batches      uint64 `json:"batches"`
	BatchOps     uint64 `json:"batch_ops"`
	Parks        uint64 `json:"parks"`
	Unparks      uint64 `json:"unparks"`
	Condemned    uint64 `json:"condemned"`
	Drained      uint64 `json:"drained"`
	Flushes      uint64 `json:"flushes"`       // coalesced response chunks written
	InlineWrites uint64 `json:"inline_writes"` // of those, written whole by the loop, not a drain
	FlushStalls  uint64 `json:"flush_stalls"`  // drains started because a socket refused bytes: a peer was behind
	Backpressure uint64 `json:"backpressure"`

	HomeOps    uint64 `json:"home_ops"`    // acquire/release ops decoded
	OutBlocked uint64 `json:"out_blocked"` // parse pauses on the maxOutq bound

	// Always zero: the forwarding plane and the second write stage they counted are gone; benchmark/svc.go still reads them.
	FwdRuns, FwdOps, FwdInline, FlushEscalations uint64 `json:"-"`

	// Socket writes: the loop's inline writes plus the drains' writev passes.
	Writevs      uint64 `json:"writevs"`       // writes issued
	WritevChunks uint64 `json:"writev_chunks"` // per-conn chunks summed over writes
	WritevBytes  uint64 `json:"writev_bytes"`  // bytes written
	WriteErrs    uint64 `json:"write_errs"`    // conns condemned on write errors
}

// WorkerStats snapshots every worker's event-loop counters.
func (s *Server) WorkerStats() []WorkerStats {
	out := make([]WorkerStats, len(s.workers))
	for i, w := range s.workers {
		out[i] = WorkerStats{
			Worker:       w.idx,
			Conns:        w.st.conns.Load(),
			Wakeups:      w.st.wakeups.Load(),
			Donations:    w.st.donations.Load(),
			Batches:      w.st.batches.Load(),
			BatchOps:     w.st.batchOps.Load(),
			Parks:        w.st.parks.Load(),
			Unparks:      w.st.unparks.Load(),
			Condemned:    w.st.condemned.Load(),
			Drained:      w.st.drained.Load(),
			Flushes:      w.st.flushes.Load(),
			InlineWrites: w.st.inline.Load(),
			FlushStalls:  w.st.flushStalls.Load(),
			Backpressure: w.st.backpressure.Load(),

			HomeOps:    w.st.namedOps.Load(),
			OutBlocked: w.st.outBlocked.Load(),

			Writevs:      w.st.writevs.Load(),
			WritevChunks: w.st.writevBufs.Load(),
			WritevBytes:  w.st.writevBytes.Load(),
			WriteErrs:    w.st.writeErrs.Load(),
		}
	}
	return out
}

// BatchSizeHistogram merges the per-worker ops-per-batch histograms.
func (s *Server) BatchSizeHistogram() stats.Histogram {
	var h stats.Histogram
	for _, w := range s.workers {
		w.bhMu.Lock()
		wh := w.batchH
		w.bhMu.Unlock()
		h.Merge(&wh)
	}
	return h
}

// WritevSizeHistogram merges the per-worker chunks-per-writev
// histograms: how many queued response chunks each drain pass coalesced
// into one writev. Inline writes are always one chunk and are not in it.
func (s *Server) WritevSizeHistogram() stats.Histogram {
	var h stats.Histogram
	for _, w := range s.workers {
		w.wvMu.Lock()
		wh := w.wvH
		w.wvMu.Unlock()
		h.Merge(&wh)
	}
	return h
}

// Recorder returns the server's flight recorder (nil when disabled).
func (s *Server) Recorder() *obs.Recorder { return s.rec }

// WriteFlight renders the flight recorder, oldest record first, with
// obs.WriteRecords: times are ns since the first record shown.
func (s *Server) WriteFlight(w io.Writer) {
	if s.rec == nil {
		fmt.Fprintln(w, "(flight recorder disabled)")
		return
	}
	recs := s.rec.Events()
	var t0 uint64
	if len(recs) > 0 {
		t0 = recs[0].At
	}
	obs.WriteRecords(w, recs, t0)
}

// MetricsPayload is the admin plane's JSON document, also what
// cmd/lockd writes as its -metrics file.
type MetricsPayload struct {
	Build    BuildInfo             `json:"build"`
	Manager  lockmgr.Snapshot      `json:"manager"`
	Workers  []WorkerStats         `json:"workers"`
	HotLocks []lockmgr.LockProfile `json:"hot_locks"`

	// Cluster shape, present only on clustered servers: the membership
	// epoch and member count at the scrape. The full document — shares,
	// heartbeat ages, quarantines — lives on /cluster.
	ClusterEpoch   uint64 `json:"cluster_epoch,omitempty"`
	ClusterMembers int    `json:"cluster_members,omitempty"`
}

// Metrics assembles the full observability payload.
func (s *Server) Metrics(bi BuildInfo, topK int) MetricsPayload {
	p := MetricsPayload{
		Build:    bi,
		Manager:  s.m.Stats(),
		Workers:  s.WorkerStats(),
		HotLocks: s.m.HotLocks(topK),
	}
	if s.cluster != nil {
		p.ClusterEpoch = s.cluster.Epoch()
		p.ClusterMembers = s.cluster.MemberCount()
	}
	return p
}

// promWriter renders counters and gauges in the Prometheus text exposition
// format (version 0.0.4). It emits a family's # TYPE line once, before its
// first sample, so labelled series of one family (per-worker counters,
// per-lock gauges) declare the type exactly once, which is what scrapers
// require. Histograms are rendered by stats.Histogram.WriteProm.
type promWriter struct {
	w     io.Writer
	typed map[string]bool
}

// sample emits one sample of family name; labels is the brace-free label
// list (`worker="3"`), empty for an unlabelled series.
func (p *promWriter) sample(typ, name, labels string, v any) {
	if !p.typed[name] {
		p.typed[name] = true
		fmt.Fprintf(p.w, "# TYPE %s %s\n", name, typ)
	}
	if labels != "" {
		name += "{" + labels + "}"
	}
	fmt.Fprintf(p.w, "%s %v\n", name, v)
}

func (p *promWriter) counter(name, labels string, v uint64) { p.sample("counter", name, labels, v) }
func (p *promWriter) gauge(name, labels string, v float64)  { p.sample("gauge", name, labels, v) }

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline. Lock names are caller-controlled bytes, so the
// hot-lock table escapes them before they land in a label.
var escapeLabel = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace

// WriteProm renders the full metrics set in the Prometheus text
// exposition format: manager counters and gauges, wait/hold/batch-size
// histograms, per-worker series labelled worker="i", and the top-k
// hot-lock table labelled by lock name.
func (s *Server) WriteProm(w io.Writer, bi BuildInfo, topK int) {
	snap := s.m.Stats()
	pw := &promWriter{w: w, typed: map[string]bool{}}

	pw.gauge("lockd_build_info", fmt.Sprintf(`version=%q,go=%q`, bi.Version, bi.GoVersion), 1)

	pw.counter("lockd_shared_grants_total", "", snap.SharedGrants)
	pw.counter("lockd_excl_grants_total", "", snap.ExclGrants)
	pw.counter("lockd_releases_total", "", snap.Releases)
	pw.counter("lockd_timeouts_total", "", snap.Timeouts)
	pw.counter("lockd_keepalives_total", "", snap.Keepalives)
	pw.counter("lockd_sessions_opened_total", "", snap.SessionsOpened)
	pw.counter("lockd_sessions_closed_total", "", snap.SessionsClosed)
	pw.counter("lockd_lease_expirations_total", "", snap.LeaseExpirations)
	pw.counter("lockd_revoked_holds_total", "", snap.RevokedHolds)
	pw.counter("lockd_entries_created_total", "", snap.EntriesCreated)
	pw.counter("lockd_entries_gced_total", "", snap.EntriesGCed)
	pw.gauge("lockd_entries", "", float64(snap.Entries))
	pw.gauge("lockd_sessions", "", float64(snap.Sessions))
	pw.gauge("lockd_waiting", "", float64(snap.Waiting))

	if s.cluster != nil {
		pw.gauge("lockd_cluster_epoch", "", float64(s.cluster.Epoch()))
		pw.gauge("lockd_cluster_members", "", float64(s.cluster.MemberCount()))
	}

	wh := s.m.WaitHistogram()
	wh.WriteProm(w, "lockd_wait_seconds", "", 1e-9)
	hh := s.m.HoldHistogram()
	hh.WriteProm(w, "lockd_hold_seconds", "", 1e-9)
	bh := s.BatchSizeHistogram()
	bh.WriteProm(w, "lockd_batch_ops", "", 1)
	wvh := s.WritevSizeHistogram()
	wvh.WriteProm(w, "lockd_writev_chunks", "", 1)

	for _, ws := range s.WorkerStats() {
		l := fmt.Sprintf(`worker="%d"`, ws.Worker)
		pw.gauge("lockd_worker_conns", l, float64(ws.Conns))
		pw.counter("lockd_worker_wakeups_total", l, ws.Wakeups)
		pw.counter("lockd_worker_donations_total", l, ws.Donations)
		pw.counter("lockd_worker_batches_total", l, ws.Batches)
		pw.counter("lockd_worker_batch_ops_total", l, ws.BatchOps)
		pw.counter("lockd_worker_parks_total", l, ws.Parks)
		pw.counter("lockd_worker_unparks_total", l, ws.Unparks)
		pw.counter("lockd_worker_condemned_total", l, ws.Condemned)
		pw.counter("lockd_worker_drained_total", l, ws.Drained)
		pw.counter("lockd_worker_flushes_total", l, ws.Flushes)
		pw.counter("lockd_worker_inline_writes_total", l, ws.InlineWrites)
		pw.counter("lockd_worker_flush_stalls_total", l, ws.FlushStalls)
		pw.counter("lockd_worker_backpressure_total", l, ws.Backpressure)
		pw.counter("lockd_worker_home_ops_total", l, ws.HomeOps)
		pw.counter("lockd_worker_out_blocked_total", l, ws.OutBlocked)
		pw.counter("lockd_worker_writevs_total", l, ws.Writevs)
		pw.counter("lockd_worker_writev_chunks_total", l, ws.WritevChunks)
		pw.counter("lockd_worker_writev_bytes_total", l, ws.WritevBytes)
		pw.counter("lockd_worker_write_errs_total", l, ws.WriteErrs)
	}

	for _, hl := range s.m.HotLocks(topK) {
		l := fmt.Sprintf(`lock="%s"`, escapeLabel(hl.Name))
		pw.counter("lockd_hot_lock_acquires_total", l, hl.Acquires)
		pw.gauge("lockd_hot_lock_wait_seconds_total", l, hl.WaitTotalUS*1e-6)
		pw.gauge("lockd_hot_lock_wait_max_seconds", l, hl.WaitMaxUS*1e-6)
		pw.gauge("lockd_hot_lock_queue_len", l, float64(hl.QueueLen))
	}
}

// AdminHandler returns the admin-plane HTTP handler:
//
//	/metrics        Prometheus text exposition
//	/metrics.json   MetricsPayload as JSON (?k= hot-lock depth)
//	/hotlocks       the hot-lock table alone (?k= depth)
//	/cluster        cluster membership, shares, heartbeat ages (JSON)
//	/flight         flight-recorder dump (WriteFlight), oldest record first
//	/debug/pprof/   the standard net/http/pprof surface
//
// Mount it on its own listener (lockd -admin): it is an operator
// surface and shares nothing with the wire-protocol port.
func (s *Server) AdminHandler(bi BuildInfo) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WriteProm(w, bi, hotK(r))
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(s.Metrics(bi, hotK(r)))
	})
	mux.HandleFunc("/hotlocks", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(s.m.HotLocks(hotK(r)))
	})
	mux.HandleFunc("/cluster", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if s.cluster == nil {
			fmt.Fprintln(w, `{"clustered":false}`)
			return
		}
		doc, err := s.cluster.StatusJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(doc)
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.WriteFlight(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// hotK parses the ?k= hot-lock depth, defaulting to DefaultHotLocks.
func hotK(r *http.Request) int {
	if v := r.URL.Query().Get("k"); v != "" {
		if k, err := strconv.Atoi(v); err == nil && k > 0 {
			return k
		}
	}
	return DefaultHotLocks
}
