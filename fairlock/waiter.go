package fairlock

import "sync"

// waiter is one queued acquisition in the contended (slow) path: an
// intrusive doubly-linked node, so timed waiters unlink in O(1) instead of
// the old O(n) slice scan, recycled through a sync.Pool so contended
// acquires do not allocate in steady state. The ready channel has capacity
// 1 and is reused across lives of the node: each wait consumes exactly the
// one token its grant sends, so the channel is always empty when the node
// returns to the pool.
type waiter struct {
	next, prev *waiter
	write      bool
	queued     bool // linked into a lock's waitq; guarded by that lock's qmu
	ready      chan struct{}
}

var waiterPool = sync.Pool{New: func() any {
	return &waiter{ready: make(chan struct{}, 1)}
}}

func newWaiter(write bool) *waiter {
	w := waiterPool.Get().(*waiter)
	w.write = write
	return w
}

// putWaiter recycles a node. The caller must guarantee the grant token has
// been consumed (or can never be sent: the node was unlinked under qmu
// before any grant reached it). Every mutable field is reset here — a
// recycled node must not leak a stale mode or link into its next life,
// and the ready channel is drained (never replaced: replacing
// it would allocate) in case a caller ever recycles a node with an
// unconsumed token.
func putWaiter(w *waiter) {
	w.next, w.prev = nil, nil
	w.write = false
	w.queued = false
	select {
	case <-w.ready:
	default:
	}
	waiterPool.Put(w)
}

// waitq is an intrusive FIFO of waiters. All operations require the owning
// lock's qmu.
type waitq struct{ head, tail *waiter }

func (q *waitq) pushBack(w *waiter) {
	w.prev = q.tail
	w.next = nil
	if q.tail != nil {
		q.tail.next = w
	} else {
		q.head = w
	}
	q.tail = w
	w.queued = true
}

func (q *waitq) remove(w *waiter) {
	if w.prev != nil {
		w.prev.next = w.next
	} else {
		q.head = w.next
	}
	if w.next != nil {
		w.next.prev = w.prev
	} else {
		q.tail = w.prev
	}
	w.next, w.prev = nil, nil
	w.queued = false
}
