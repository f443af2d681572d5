package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The tracer records spans from the benchmark's own files, around the
// exported calls it makes into each layer. Spans stay in memory until the
// workload ends. Spans inside the library are a later change.

type span struct {
	name   string
	start  int64 // ns since the tracer's epoch
	end    int64
	parent int32 // index into the same traceBuf, -1 for a root
	req    uint64
}

// traceBuf is one goroutine's span log; it is not shared, so recording
// takes no lock. A nil *traceBuf records nothing, which is how untraced
// slices run the same code.
type traceBuf struct {
	epoch time.Time
	tid   int
	spans []span
}

type tracer struct {
	epoch time.Time
	bufs  []*traceBuf
}

func newTracer(threads int) *tracer {
	t := &tracer{epoch: time.Now()}
	for i := 0; i < threads; i++ {
		t.bufs = append(t.bufs, &traceBuf{epoch: t.epoch, tid: i, spans: make([]span, 0, 1<<16)})
	}
	return t
}

// thread returns goroutine i's buffer, nil on a nil tracer.
func (t *tracer) thread(i int) *traceBuf {
	if t == nil {
		return nil
	}
	return t.bufs[i]
}

func (b *traceBuf) begin(name string, parent int32, req uint64) int32 {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{name: name, start: int64(time.Since(b.epoch)), parent: parent, req: req})
	return int32(len(b.spans) - 1)
}

func (b *traceBuf) end(id int32) {
	if b == nil {
		return
	}
	b.spans[id].end = int64(time.Since(b.epoch))
}

// selfRow is one span name's aggregate: self time is the span's duration
// minus the part of it its child spans cover.
type selfRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
	MeanUS  float64 `json:"mean_us"`
}

func (t *tracer) selfTimes() []selfRow {
	type acc struct {
		n           int
		total, self int64
	}
	by := map[string]*acc{}
	for _, b := range t.bufs {
		child := make([]int64, len(b.spans))
		for _, s := range b.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range b.spans {
			a := by[s.name]
			if a == nil {
				a = &acc{}
				by[s.name] = a
			}
			a.n++
			a.total += s.end - s.start
			a.self += s.end - s.start - child[i]
		}
	}
	rows := make([]selfRow, 0, len(by))
	for name, a := range by {
		rows = append(rows, selfRow{
			Name: name, Count: a.n,
			TotalUS: float64(a.total) / 1e3, SelfUS: float64(a.self) / 1e3,
			MeanUS: float64(a.total) / 1e3 / float64(a.n),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfUS > rows[j].SelfUS })
	return rows
}

func (t *tracer) count() int {
	n := 0
	for _, b := range t.bufs {
		n += len(b.spans)
	}
	return n
}

// maxTraceEvents caps the spans written per goroutine: the file is for
// opening in Perfetto, the aggregates above cover every span.
const maxTraceEvents = 20000

// writeChrome writes the spans as Chrome trace-event JSON, the format
// internal/obs exports, so a benchmark trace opens in the same viewer.
func (t *tracer) writeChrome(path, workload string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var events []event
	for _, b := range t.bufs {
		spans := b.spans
		if len(spans) > maxTraceEvents {
			spans = spans[:maxTraceEvents]
		}
		for i, s := range spans {
			events = append(events, event{
				Name: s.name, Ph: "X",
				TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				PID: 1, TID: b.tid,
				Args: map[string]any{"id": i, "parent": s.parent, "req": s.req},
			})
		}
	}
	doc := map[string]any{
		"displayTimeUnit": "ns",
		"otherData":       map[string]any{"workload": workload, "spans": t.count()},
		"selfTimes":       t.selfTimes(),
		"traceEvents":     events,
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func printSelfTimes(w io.Writer, rows []selfRow) {
	fmt.Fprintf(w, "  %-28s %10s %14s %14s %10s\n", "span", "count", "total_us", "self_us", "mean_us")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %10d %14.1f %14.1f %10.3f\n", r.Name, r.Count, r.TotalUS, r.SelfUS, r.MeanUS)
	}
}
