package obs

import (
	"fmt"
	"io"
)

// String names the event kind for the flight recorder and trace export.
func (k Kind) String() string {
	switch k {
	case KReq:
		return "REQ"
	case KEnq:
		return "ENQ"
	case KGrant:
		return "GRANT"
	case KAcq:
		return "ACQ"
	case KUnlock:
		return "UNLOCK"
	case KRel:
		return "REL"
	case KXfer:
		return "XFER"
	case KRetry:
		return "RETRY"
	case KNack:
		return "NACK"
	case KTimeout:
		return "TIMEOUT"
	case KFwdReq:
		return "FWD_REQ"
	case KFwdRel:
		return "FWD_REL"
	case KRelDone:
		return "REL_DONE"
	case KLRTReq:
		return "LRT_REQ"
	case KLRTGrant:
		return "LRT_GRANT"
	case KLRTRel:
		return "LRT_REL"
	case KLRTHead:
		return "LRT_HEAD"
	case KPreempt:
		return "PREEMPT"
	case KMigrate:
		return "MIGRATE"
	case KCacheRd:
		return "CACHE_RD"
	case KCacheOwn:
		return "CACHE_OWN"
	case KKernel:
		return "KERNEL"
	case KCancel:
		return "CANCEL"
	case KExpire:
		return "EXPIRE"
	case KSlow:
		return "SLOW"
	case KCondemn:
		return "CONDEMN"
	case KDrain:
		return "DRAIN"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// trackName renders a record's track for human consumption.
func trackName(node int32) string {
	switch {
	case node >= connBase:
		return fmt.Sprintf("conn%d", node-connBase)
	case node == KernelTrack:
		return "kernel"
	case node >= lrtBase:
		return fmt.Sprintf("lrt%d", node-lrtBase)
	default:
		return fmt.Sprintf("core%d", node)
	}
}

// WriteFlight renders the last lastN captured records (0 = all) as text:
// the flight recorder for debugging wedged protocol states, complementing
// core.DumpState's structural snapshot with the event history that led
// there.
func (c *Capture) WriteFlight(w io.Writer, lastN int) {
	recs := c.Records()
	if lastN > 0 && len(recs) > lastN {
		fmt.Fprintf(w, "... %d earlier records elided ...\n", len(recs)-lastN)
		recs = recs[len(recs)-lastN:]
	}
	WriteRecords(w, recs, 0)
	if d := c.Dropped(); d > 0 {
		fmt.Fprintf(w, "(%d records dropped at the %d-record cap)\n", d, maxRecords)
	}
}

// WriteRecords renders recs one line each, in order — time since t0,
// track, kind, actor, lock and aux — or one "(flight recorder empty)". The simulator passes t0 = 0 (absolute
// cycles), lockd its first record's time (ns since it).
func WriteRecords(w io.Writer, recs []Record, t0 uint64) {
	if len(recs) == 0 {
		fmt.Fprintln(w, "(flight recorder empty)")
	}
	for _, r := range recs {
		fmt.Fprintf(w, "[%10d] %-7s %-9s t%-4d %#x aux=%d\n",
			r.At-t0, trackName(r.Node), r.Kind, r.Tid, r.Lock, r.Aux)
	}
}
