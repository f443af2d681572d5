// Package obs holds the lock-event vocabulary shared by the simulator and
// lockd, and the simulator's observability layer. An event is a Record: the
// simulator's LCU/LRT/SSB devices record their protocol steps in cycles
// into a per-run Capture, and lockd (the software LRT) records its grant
// path in UnixNano into a flight-recorder ring (internal/lockmgr/introspect).
// Both render through WriteRecords; a Capture also exports as Chrome
// trace-event JSON (viewable in Perfetto) and cycle-binned metrics JSON.
//
// The layer is zero-overhead when disabled: every instrumented call site
// holds a *Capture pointer and checks it for nil before doing anything, so
// a run without tracing pays one predictable branch per site and performs
// no allocation. When enabled, each simulated machine owns its own
// Capture; records are appended in kernel event order, which is
// deterministic, so a sweep collected in configuration order produces
// byte-identical output at any worker count. A run keeps at most 1<<18
// records (the rest only count as dropped), and link series use
// 10 000-cycle bins.
//
// Import discipline: obs depends only on internal/stats and the standard
// library (cycles travel as plain uint64, not sim.Time), so the layers
// above internal/sim may depend on obs without cycles. internal/sim, the
// event kernel, depends on no repo package and records nothing.
package obs

// Kind classifies one recorded event. Values are fixed (trace files carry
// them): a new kind is appended. Aux is kind- and producer-specific, as
// each kind states: LCU = internal/core's LCU or LRT side, SSB =
// internal/ssb, lockd = the lock service's manager and server; 0 unless said.
type Kind uint8

const (
	// KReq: an LCU (or SSB core side) issued a lock REQUEST.
	// Aux: LCU bit 0 write, bit 1 nonblocking entry; SSB the write bit.
	KReq Kind = iota
	// KEnq: the requestor learned it is enqueued (WAIT ack); lockd queued
	// an acquire and parked its conn. Aux: lockd the wait bound in ns (0:
	// until the lease ends).
	KEnq
	// KGrant: a lock grant arrived at the requesting LCU / core; lockd
	// answered a parked acquire. Aux: LCU bit 0 head, bit 1 overflow, bit 2
	// from the LRT; SSB the write bit; lockd the queue wait in ns.
	KGrant
	// KAcq: a software thread completed a lock acquisition.
	// Aux: cycles waited << 1 | write.
	KAcq
	// KUnlock: a software thread released a lock.
	KUnlock
	// KRel: a RELEASE message was sent toward the lock's home.
	// Aux: LCU bit 0 write, bit 1 head drain; SSB the write bit.
	KRel
	// KXfer: a direct LCU-to-LCU lock transfer was initiated. Aux: the
	// receiving thread's id.
	KXfer
	// KRetry: a request was RETRYed (LCU) — the software must re-issue.
	KRetry
	// KNack: an SSB acquire attempt was refused at the home bank. Aux: the
	// write bit.
	KNack
	// KTimeout: a grant timer fired (suspended/migrated requestor); lockd:
	// a queued acquire's wait bound ran out. Aux: lockd the ns waited.
	KTimeout
	// KFwdReq: an enqueue was forwarded to a queue tail. Aux: its thread id.
	KFwdReq
	// KFwdRel: a release was forwarded through the queue (migration).
	// Aux: the thread id whose queue node is searched for.
	KFwdRel
	// KRelDone: a release was acknowledged complete.
	KRelDone
	// KLRTReq: a REQUEST arrived at the home LRT / SSB bank.
	// Aux: LCU bit 0 write, bit 1 nonblocking entry; SSB the write bit.
	KLRTReq
	// KLRTGrant: the LRT granted the lock directly; lockd's manager granted
	// a queued acquire. Aux: LCU 0 free lock, 1 reservation, 2 overflow
	// reader; lockd the queue wait in ns.
	KLRTGrant
	// KLRTRel: a RELEASE arrived at the home LRT / SSB bank.
	// Aux: LCU bit 0 write, bit 1 head drain; SSB the write bit.
	KLRTRel
	// KLRTHead: a head-update notification arrived at the LRT. Aux: the
	// lock's head-transfer count.
	KLRTHead
	// KPreempt: the scheduler preempted a thread at quantum end.
	KPreempt
	// KMigrate: a thread migrated to another core. Aux: the target core.
	KMigrate
	// KCacheRd: a coherent read miss completed. Aux: latency in cycles.
	KCacheRd
	// KCacheOwn: an exclusive-ownership transaction completed. Aux: latency.
	KCacheOwn
	// KKernel: reserved; no producer records it. It keeps its value so the
	// kinds after it keep theirs.
	KKernel
	// KCancel: lockd revoked a queued acquire; its session ended. Aux: ns waited.
	KCancel
	// KExpire: lockd revoked a session whose lease ran out, at its deadline
	// or on the first op after it. Aux: the holds revoked.
	KExpire
	// KSlow: a lockd grant's queue wait crossed the slow-lock threshold
	// (after its KLRTGrant). Aux: ns waited.
	KSlow
	// KCondemn: lockd condemned a conn (malformed frame or write error).
	KCondemn
	// KDrain: a lockd conn drained cleanly (EOF, no frames left).
	KDrain
)

// Record is one lock event: 40 bytes, appended by value.
type Record struct {
	At   uint64 // when: cycles in the simulator, UnixNano in lockd
	Lock uint64 // lock address (lockd: the name's FNV-1a hash); 0 when not applicable
	Tid  uint64 // actor: software thread id (lockd: session id); 0 when not applicable
	Aux  uint64 // kind- and producer-specific detail (see the Kind constants)
	Node int32  // track: CoreNode/LRTNode/KernelTrack/ConnNode
	Kind Kind
}

// Track numbering: cores occupy [0, lrtBase), LRTs [lrtBase, ...), the
// kernel gets a single dedicated track, and lockd's conns [connBase, ...).
// lockd's manager is one table and records on LRTNode(0).
const (
	lrtBase     = 1000
	KernelTrack = 3000
	connBase    = 4000
)

// CoreNode returns the track id for core i.
func CoreNode(i int) int32 { return int32(i) }

// LRTNode returns the track id for LRT (or SSB bank) i.
func LRTNode(i int) int32 { return lrtBase + int32(i) }

// ConnNode returns the track id for lockd connection id.
func ConnNode(id int32) int32 { return connBase + id }

// Options selects what a Capture records.
type Options struct {
	// Records enables the event log (required for trace export).
	Records bool
	// Metrics enables histograms, link occupancy and queue-depth series.
	Metrics bool
	// Cache additionally logs cache-transaction boundaries (misses and
	// ownership transfers).
	Cache bool
}

// Enabled reports whether the options ask for any capture at all.
func (o Options) Enabled() bool { return o.Records || o.Metrics }

// Meta describes the machine a Capture observes, for track naming.
type Meta struct {
	Name  string // run label, e.g. "B/ssb t=32 w=100%"
	Cores int
	LRTs  int
	Links []string // link names in topology order (index = link ID)
}

// Capture is the per-run event and metrics buffer. It is not safe for
// concurrent use; each simulated machine owns exactly one.
type Capture struct {
	Opt  Options
	Meta Meta

	Recs []Record
	// Dropped counts records discarded once Recs reached maxRecords.
	Dropped uint64

	// M holds the metrics recorder, nil unless Opt.Metrics.
	M *Metrics
}

// maxRecords caps a run's event log; later events only count in Dropped.
const maxRecords = 1 << 18

// New builds a Capture for a machine described by meta.
func New(opt Options, meta Meta) *Capture {
	c := &Capture{Opt: opt, Meta: meta}
	if opt.Metrics {
		c.M = newMetrics(meta.Links)
	}
	return c
}

// Rec appends one event record (when the event log is enabled).
func (c *Capture) Rec(cycle uint64, node int32, k Kind, lock, tid, aux uint64) {
	if !c.Opt.Records {
		return
	}
	if len(c.Recs) >= maxRecords {
		c.Dropped++
		return
	}
	c.Recs = append(c.Recs, Record{At: cycle, Lock: lock, Tid: tid, Aux: aux, Node: node, Kind: k})
}

// CacheEvent records a cache-transaction boundary (gated on Opt.Cache).
// lat is the transaction's total latency; the transaction started at
// cycle and completes at cycle+lat.
func (c *Capture) CacheEvent(cycle uint64, core int, k Kind, line, lat uint64) {
	if !c.Opt.Cache {
		return
	}
	c.Rec(cycle, CoreNode(core), k, line, 0, lat)
}

// LockAcquired records a completed lock acquisition: the thread waited
// `waited` cycles between first request and entry. Aux packs the waited
// time and the access mode (bit 0: write).
func (c *Capture) LockAcquired(cycle uint64, core int, tid, lock, waited uint64, write bool) {
	var w uint64
	if write {
		w = 1
	}
	c.Rec(cycle, CoreNode(core), KAcq, lock, tid, waited<<1|w)
	if c.M != nil {
		c.M.Acquire.Add(waited)
	}
}

// Unlocked records a lock release by the software thread.
func (c *Capture) Unlocked(cycle uint64, core int, tid, lock uint64) {
	c.Rec(cycle, CoreNode(core), KUnlock, lock, tid, 0)
}

// TransferStart marks the beginning of a lock hand-off (release or direct
// transfer initiated); TransferEnd on the same lock closes the interval
// into the transfer-time histogram.
func (c *Capture) TransferStart(cycle, lock uint64) {
	if c.M != nil {
		c.M.transferStart(cycle, lock)
	}
}

// TransferEnd closes a transfer interval opened by TransferStart.
func (c *Capture) TransferEnd(cycle, lock uint64) {
	if c.M != nil {
		c.M.transferEnd(cycle, lock)
	}
}

// WaitStart marks tid as waiting in some lock queue (grows the live
// queue-depth series); WaitEnd removes it. Both are idempotent per tid.
func (c *Capture) WaitStart(cycle, tid uint64) {
	if c.M != nil {
		c.M.waitStart(cycle, tid)
	}
}

// WaitEnd marks tid as no longer waiting.
func (c *Capture) WaitEnd(cycle, tid uint64) {
	if c.M != nil {
		c.M.waitEnd(cycle, tid)
	}
}

// LinkCross charges one message crossing link id at the given cycle: busy
// is the serialization occupancy, wait the queueing delay behind earlier
// messages.
func (c *Capture) LinkCross(id int, cycle, busy, wait uint64) {
	if c.M != nil {
		c.M.linkCross(id, cycle, busy, wait)
	}
}

// Collector accumulates the Captures of a sweep in configuration order, so
// serialized output is deterministic at any worker count.
type Collector struct {
	// Opt is applied to every run the harness attaches a Capture to.
	Opt Options

	Caps []*Capture
}

// Add appends one run's capture (nil captures are skipped).
func (c *Collector) Add(cap *Capture) {
	if cap != nil {
		c.Caps = append(c.Caps, cap)
	}
}

// Truncated reports how many runs hit the per-run record cap and how many
// records they dropped between them: their event logs, and so the trace,
// hold only each such run's first maxRecords events.
func (c *Collector) Truncated() (runs int, dropped uint64) {
	for _, cap := range c.Caps {
		if cap.Dropped > 0 {
			runs++
			dropped += cap.Dropped
		}
	}
	return runs, dropped
}
