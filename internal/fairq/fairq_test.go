package fairq

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// harness drives a Lock[int] the way its users do — an arrival tries,
// then queues; a release or a cancel runs an admission pass — and checks
// every grant against its own account of the lock: who holds it, and who
// waits in which order. Nothing in that account comes from the Lock.
type harness struct {
	t       testing.TB
	l       Lock[int]
	nodes   []*Node[int]
	held    []bool // by id
	readers int
	writer  bool
	waiting []int        // ids in arrival order
	revoked map[int]bool // ids whose grant finds them gone
	granted []int        // this step's grants, in order
}

func newHarness(t testing.TB) *harness { return &harness{t: t, revoked: map[int]bool{}} }

func (h *harness) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf(format, args...)
}

// take checks a grant to id — immediate or by a pass — against the
// account: only the oldest waiter may be granted (nobody is overtaken; an
// arrival only when nobody waits), and the mode must fit the holders.
func (h *harness) take(id int, queued bool) {
	h.t.Helper()
	if queued && (len(h.waiting) == 0 || h.waiting[0] != id) {
		h.fatalf("granted %d, but the oldest waiter is %v", id, h.waiting)
	}
	if !queued && len(h.waiting) != 0 {
		h.fatalf("arrival %d granted at once past waiters %v", id, h.waiting)
	}
	if queued {
		h.waiting = h.waiting[1:]
	}
	if h.writer || (h.nodes[id].Write && h.readers > 0) {
		h.fatalf("granted %d (write %v) beside %d readers, writer %v", id, h.nodes[id].Write, h.readers, h.writer)
	}
	if h.nodes[id].Write {
		h.writer = true
	} else {
		h.readers++
	}
	h.held[id] = true
	h.granted = append(h.granted, id)
}

// grant is the pass's callback: a revoked head leaves without the lock.
func (h *harness) grant(n *Node[int]) {
	h.t.Helper()
	if n != h.l.Head() {
		h.fatalf("the pass offered %d, not the head", n.V)
	}
	h.l.Remove(n)
	if h.revoked[n.V] {
		delete(h.revoked, n.V)
		h.waiting = h.waiting[1:]
		return
	}
	h.l.Take(n.Write)
	h.take(n.V, true)
}

func (h *harness) arrive(write bool) {
	id := len(h.nodes)
	h.nodes = append(h.nodes, &Node[int]{Write: write, V: id})
	h.held = append(h.held, false)
	if h.l.TryAcquire(write) {
		h.take(id, false)
		return
	}
	h.l.Enqueue(h.nodes[id])
	h.waiting = append(h.waiting, id)
}

func (h *harness) release(id int) {
	h.t.Helper()
	n := h.nodes[id]
	if !h.held[id] || !h.l.Drop(n.Write) {
		h.fatalf("release of %d, which holds %v", id, h.held[id])
	}
	h.held[id] = false
	if n.Write {
		h.writer = false
	} else {
		h.readers--
	}
	h.l.Admit(h.grant)
}

func (h *harness) cancel(id int) {
	h.t.Helper()
	i := h.index(id)
	if i < 0 || !h.l.Queued(h.nodes[id]) {
		h.fatalf("cancel of %d, which is not waiting", id)
	}
	h.l.Remove(h.nodes[id])
	h.waiting = append(h.waiting[:i:i], h.waiting[i+1:]...)
	delete(h.revoked, id)
	h.l.Admit(h.grant)
}

func (h *harness) index(id int) int {
	for i, w := range h.waiting {
		if w == id {
			return i
		}
	}
	return -1
}

// check holds the Lock to the account after a step: the FIFO's structure
// (links both ways, tail, Len, Queued) and order, the holders, Idle, and
// that the pass admitted everyone it could — the head, if any, does not
// fit.
func (h *harness) check() {
	h.t.Helper()
	q := &h.l.Queue
	var prev *Node[int]
	i := 0
	for n := q.head; n != nil; prev, n = n, n.next {
		if n.prev != prev || i >= len(h.waiting) || n != h.nodes[h.waiting[i]] {
			h.fatalf("queue position %d: node %d mislinked or out of arrival order %v", i, n.V, h.waiting)
		}
		i++
	}
	if q.tail != prev || q.Len() != i || i != len(h.waiting) || (prev != nil && prev.next != nil) {
		h.fatalf("tail %v, Len %d, walked %d, %d waiting", q.tail, q.Len(), i, len(h.waiting))
	}
	for id, n := range h.nodes {
		if q.Queued(n) != (h.index(id) >= 0) {
			h.fatalf("Queued(%d) = %v", id, q.Queued(n))
		}
	}
	if r, w := h.l.Holders(); r != h.readers || w != h.writer {
		h.fatalf("holders %d/%v, want %d/%v", r, w, h.readers, h.writer)
	}
	if h.l.Idle() != (h.readers == 0 && !h.writer && len(h.waiting) == 0) {
		h.fatalf("Idle %v with %d readers, writer %v, %d waiting", h.l.Idle(), h.readers, h.writer, len(h.waiting))
	}
	if len(h.waiting) > 0 {
		head := h.nodes[h.waiting[0]]
		if !h.writer && (!head.Write || h.readers == 0) {
			h.fatalf("head %d (write %v) fits %d readers, writer %v, but waits", head.V, head.Write, h.readers, h.writer)
		}
	}
}

// run plays a script — "+r"/"+w" arrive (ids count arrivals from 0),
// "-N" releases N, "xN" cancels N's wait, "!N" revokes N so its turn in a
// pass finds it gone — and returns each step's grants: ids joined by
// ",", "." for none.
func (h *harness) run(script string) string {
	h.t.Helper()
	var out []string
	for _, op := range strings.Fields(script) {
		h.granted = h.granted[:0]
		id, _ := strconv.Atoi(op[1:])
		switch op[0] {
		case '+':
			h.arrive(op[1] == 'w')
		case '-':
			h.release(id)
		case 'x':
			h.cancel(id)
		case '!':
			h.revoked[id] = true
		}
		h.check()
		ids := make([]string, len(h.granted))
		for i, id := range h.granted {
			ids[i] = strconv.Itoa(id)
		}
		if len(ids) == 0 {
			ids = []string{"."}
		}
		out = append(out, strings.Join(ids, ","))
	}
	return strings.Join(out, " ")
}

func TestAdmission(t *testing.T) {
	for _, tc := range []struct{ name, script, want string }{
		{"readers batch", "+w +r +r +w +r -0 -1 -2 -3", "0 . . . . 1,2 . 3 4"},
		{"readers share at once", "+r +r -0 -1", "0 1 . ."},
		{"a writer waits for every reader", "+r +r +w -0 -1", "0 1 . . 2"},
		{"a writer ends the pass", "+w +w +w +r -0 -1 -2", "0 . . . 1 2 3"},
		{"no bypass past a queued writer", "+r +w +r -0 -1", "0 . . 1 2"},
		{"a revoked writer head lets readers in", "+w +w +r +r !1 -0 -2 -3", "0 . . . . 2,3 . ."},
		{"a revoked reader head lets a writer in", "+w +r +w +r !1 -0 -2", "0 . . . . 2 3"},
		{"cancelling the batch boundary admits the readers behind", "+r +w +r +r x1", "0 . . . 2,3"},
		{"cancelling a waiter behind the head admits nobody", "+w +r +w +r x2 -0", "0 . . . . 1,3"},
		{"cancelling the head writer behind a writer admits nobody", "+w +w +r x1 -0", "0 . . . 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := newHarness(t).run(tc.script); got != tc.want {
				t.Fatalf("%s:\ngot  %s\nwant %s", tc.script, got, tc.want)
			}
		})
	}
}

// TestAdmissionTrace plays seeded random traces of arrivals, releases,
// cancels and revocations; the harness checks every grant and the whole
// structure after every step.
func TestAdmissionTrace(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := &traceTB{TB: t, seed: seed}
		h := newHarness(tb)
		for step := 0; step < 400; step++ {
			var holding []int
			for id, held := range h.held {
				if held {
					holding = append(holding, id)
				}
			}
			var op string
			switch r := rng.Intn(10); {
			case r < 4 || len(holding)+len(h.waiting) == 0:
				op = "+" + []string{"r", "w"}[rng.Intn(2)]
			case r < 8 && len(holding) > 0:
				op = fmt.Sprint("-", holding[rng.Intn(len(holding))])
			case len(h.waiting) > 0 && r == 8:
				op = fmt.Sprint("x", h.waiting[rng.Intn(len(h.waiting))])
			case len(h.waiting) > 0:
				op = fmt.Sprint("!", h.waiting[rng.Intn(len(h.waiting))])
			default:
				op = fmt.Sprint("-", holding[rng.Intn(len(holding))])
			}
			tb.script = append(tb.script, op)
			h.run(op)
		}
	}
}

// traceTB reports a trace failure with its seed and the script so far.
type traceTB struct {
	testing.TB
	seed   int64
	script []string
}

func (tb *traceTB) Fatalf(format string, args ...any) {
	tb.TB.Helper()
	tb.TB.Fatalf("seed %d, after %s: %s", tb.seed, strings.Join(tb.script, " "), fmt.Sprintf(format, args...))
}
