package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// DumpState renders all allocated LCU entries and live LRT entries (each
// LRT's in address order), for debugging wedged protocol states in tests
// and examples.
func (d *Device) DumpState() string {
	var b strings.Builder
	for _, u := range d.lcus {
		for _, e := range u.entries {
			if e.status == StatusFree {
				continue
			}
			fmt.Fprintf(&b, "lcu%-3d %-7s t%-4d %#x head=%v ovf=%v next=%s xfer=%d class=%d\n",
				u.core, e.status, e.tid, e.addr, e.head, e.overflow, e.next, e.xfer, e.class)
		}
	}
	for _, l := range d.lrts {
		var ents []*lrtEntry
		l.each(func(e *lrtEntry) { ents = append(ents, e) })
		slices.SortFunc(ents, func(a, b *lrtEntry) int { return cmp.Compare(a.addr, b.addr) })
		for _, e := range ents {
			fmt.Fprintf(&b, "lrt%-3d %#x head=%s tail=%s granted=%v rdCnt=%d ww=%d xfer=%d resv=%s\n",
				l.index, e.addr, e.head, e.tail, e.granted, e.readerCnt, e.waitingWriters, e.xfer, e.resv)
		}
	}
	return b.String()
}
