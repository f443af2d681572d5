package fairlock

import (
	"sync"

	"fairrw/internal/fairq"
)

// waiter is one queued acquisition in the contended (slow) path: a
// fairq.Node, so a timed waiter unlinks in O(1), whose payload is its
// ready channel. Nodes are recycled through a sync.Pool so contended
// acquires do not allocate in steady state. The channel has capacity 1
// and is reused across lives of the node: each wait consumes exactly the
// one token its grant sends, so it is empty when the node is recycled.
type waiter = fairq.Node[chan struct{}]

var waiterPool = sync.Pool{New: func() any {
	return &waiter{V: make(chan struct{}, 1)}
}}

func newWaiter(write bool) *waiter {
	w := waiterPool.Get().(*waiter)
	w.Write = write
	return w
}

// putWaiter recycles a node. The caller must guarantee the grant token has
// been consumed (or can never be sent: the node was unlinked under qmu
// before any grant reached it). The whole node is reset here — a recycled
// node must not leak a stale mode or link into its next life — and the
// ready channel is drained (never replaced: replacing it would allocate)
// in case a caller ever recycles a node with an unconsumed token.
func putWaiter(w *waiter) {
	select {
	case <-w.V:
	default:
	}
	*w = waiter{V: w.V}
	waiterPool.Put(w)
}
