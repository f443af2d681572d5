package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// WriteChrome renders every collected run as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Each run
// becomes one process; cores, LRTs and the kernel get one thread track
// each, interconnect links appear as counter tracks (busy % per time bin)
// derived from the metrics recorder, and lock critical sections and
// acquire waits render as duration spans. Timestamps are simulation
// cycles. The output is byte-deterministic: everything is emitted from
// ordered slices in collection order.
func (c *Collector) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := &chromeWriter{w: bw}
	cw.raw("{\"traceEvents\":[")
	for i, cap := range c.Caps {
		writeRun(cw, i+1, cap)
	}
	cw.raw("\n]}\n")
	if cw.err != nil {
		return cw.err
	}
	return bw.Flush()
}

// chromeWriter emits trace events with comma bookkeeping.
type chromeWriter struct {
	w     io.Writer
	first bool
	err   error
}

func (cw *chromeWriter) raw(s string) {
	if cw.err == nil {
		_, cw.err = io.WriteString(cw.w, s)
	}
}

// ev emits one event object given its pre-rendered JSON body.
func (cw *chromeWriter) ev(body string) {
	if cw.err != nil {
		return
	}
	if cw.first {
		cw.raw(",\n")
	} else {
		cw.raw("\n")
		cw.first = true
	}
	cw.raw(body)
}

func q(s string) string { return strconv.Quote(s) }

func writeRun(cw *chromeWriter, pid int, cap *Capture) {
	// Process and thread metadata.
	cw.ev(fmt.Sprintf(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":%s}}`, pid, q(cap.Meta.Name)))
	cw.ev(fmt.Sprintf(`{"ph":"M","pid":%d,"name":"process_sort_index","args":{"sort_index":%d}}`, pid, pid))
	for i := 0; i < cap.Meta.Cores; i++ {
		cw.ev(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
			pid, CoreNode(i), q(fmt.Sprintf("core %d", i))))
	}
	for i := 0; i < cap.Meta.LRTs; i++ {
		cw.ev(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
			pid, LRTNode(i), q(fmt.Sprintf("lrt %d", i))))
	}
	cw.ev(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":"kernel"}}`, pid, KernelTrack))

	// Event records. Acquire/unlock pairs render as "cs" duration spans on
	// the acquiring core's track; the wait preceding an acquire renders as
	// a "wait" span ending at the acquire instant.
	type lockKey struct{ tid, lock uint64 }
	held := map[lockKey]Record{}
	for _, r := range cap.Recs {
		switch r.Kind {
		case KAcq:
			waited, mode := r.Aux>>1, rwMode(r.Aux&1 != 0)
			if waited > 0 {
				cw.ev(fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"ts":%d,"dur":%d,"name":%s,"args":{"tid":%d,"lock":"%#x"}}`,
					pid, r.Node, r.At-waited, waited, q("wait "+mode), r.Tid, r.Lock))
			}
			held[lockKey{r.Tid, r.Lock}] = r
		case KUnlock:
			if a, ok := held[lockKey{r.Tid, r.Lock}]; ok {
				delete(held, lockKey{r.Tid, r.Lock})
				mode := rwMode(a.Aux&1 != 0)
				cw.ev(fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"ts":%d,"dur":%d,"name":%s,"args":{"tid":%d,"lock":"%#x"}}`,
					pid, a.Node, a.At, r.At-a.At, q("cs "+mode), r.Tid, r.Lock))
			} else {
				instant(cw, pid, r)
			}
		case KCacheRd, KCacheOwn:
			cw.ev(fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"ts":%d,"dur":%d,"name":%s,"args":{"line":"%#x"}}`,
				pid, r.Node, r.At, r.Aux, q(r.Kind.String()), r.Lock))
		default:
			instant(cw, pid, r)
		}
	}

	// Counter tracks from the metrics recorder.
	if m := cap.M; m != nil {
		for _, ls := range m.Links {
			for _, b := range ls.Bins {
				busy := float64(b.Busy) / binCycles * 100
				queued := float64(b.Wait) / binCycles * 100
				cw.ev(fmt.Sprintf(`{"ph":"C","pid":%d,"ts":%d,"name":%s,"args":{"busy%%":%s,"queued%%":%s}}`,
					pid, b.Bin*binCycles, q("link "+ls.Name), fnum(busy), fnum(queued)))
			}
		}
		for _, s := range m.Depth.Samples {
			cw.ev(fmt.Sprintf(`{"ph":"C","pid":%d,"ts":%d,"name":"lock queue depth","args":{"waiting":%d}}`,
				pid, s.Cycle, s.Depth))
		}
	}
}

func instant(cw *chromeWriter, pid int, r Record) {
	cw.ev(fmt.Sprintf(`{"ph":"i","s":"t","pid":%d,"tid":%d,"ts":%d,"name":%s,"args":{"tid":%d,"lock":"%#x","aux":%d}}`,
		pid, r.Node, r.At, q(r.Kind.String()), r.Tid, r.Lock, r.Aux))
}

func rwMode(write bool) string {
	if write {
		return "W"
	}
	return "R"
}

// fnum formats a float deterministically and compactly for JSON.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
