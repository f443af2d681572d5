// Package fairq is the one admission model of the repository's fair
// locks, as the paper's LCU/LRT run one queue discipline for every lock:
// arrival order, with consecutive readers granted together (read-grant
// chaining), and nobody ever overtaken. It is pure state — no mutex, no
// clock, no goroutine; users hold their own lock around it. lockmgr's
// table entry and fairlock.RefRWMutex run on Lock; fairlock's core links
// its waiters through Queue and encodes Lock's rule in its state word.
package fairq

// Node is one queued acquire: its mode, its links and a payload.
type Node[T any] struct {
	Write      bool
	V          T
	next, prev *Node[T]
}

// Next returns the node queued behind n, nil at the tail.
func (n *Node[T]) Next() *Node[T] { return n.next }

// Queue is an intrusive FIFO of Nodes; the zero value is empty.
type Queue[T any] struct {
	head, tail *Node[T]
	n          int
}

// Enqueue appends n, which must not be queued, at the tail.
func (q *Queue[T]) Enqueue(n *Node[T]) {
	n.prev, n.next = q.tail, nil
	if q.tail != nil {
		q.tail.next = n
	} else {
		q.head = n
	}
	q.tail = n
	q.n++
}

// Remove unlinks n, which must be on q, and clears its links.
func (q *Queue[T]) Remove(n *Node[T]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		q.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		q.tail = n.prev
	}
	n.next, n.prev = nil, nil
	q.n--
}

// Head returns the oldest queued node, nil if q is empty.
func (q *Queue[T]) Head() *Node[T] { return q.head }

// Len returns the number of queued nodes.
func (q *Queue[T]) Len() int { return q.n }

// Queued reports whether n is on q.
func (q *Queue[T]) Queued(n *Node[T]) bool { return n.prev != nil || q.head == n }

// Lock is a reader-writer lock's holders and its Queue of waiters. The
// zero value is free.
type Lock[T any] struct {
	Queue[T]
	readers int
	writer  bool
}

// Fits reports whether a grant in the given mode fits the holders.
func (l *Lock[T]) Fits(write bool) bool { return !l.writer && (!write || l.readers == 0) }

// TryAcquire grants the mode at once if nobody is queued and it fits the
// holders: an arrival never overtakes a waiter.
func (l *Lock[T]) TryAcquire(write bool) bool {
	if l.head != nil || !l.Fits(write) {
		return false
	}
	l.Take(write)
	return true
}

// Take records one grant in the given mode.
func (l *Lock[T]) Take(write bool) {
	if write {
		l.writer = true
	} else {
		l.readers++
	}
}

// Drop records one release in the given mode; false if it was not held.
func (l *Lock[T]) Drop(write bool) bool {
	switch {
	case write && l.writer:
		l.writer = false
	case !write && l.readers > 0:
		l.readers--
	default:
		return false
	}
	return true
}

// Holders returns the number of readers and whether a writer holds.
func (l *Lock[T]) Holders() (readers int, writer bool) { return l.readers, l.writer }

// Idle reports whether nobody holds l and nobody waits.
func (l *Lock[T]) Idle() bool { return l.readers == 0 && !l.writer && l.head == nil }

// Admit calls grant with the head while it fits the holders. grant must
// remove it and Take its mode, unless it was revoked meanwhile, which
// lets the pass go on. A granted reader leaves the next reader fitting,
// so consecutive readers go in together; a granted writer ends the pass.
func (l *Lock[T]) Admit(grant func(*Node[T])) {
	for h := l.head; h != nil && l.Fits(h.Write); h = l.head {
		grant(h)
	}
}
