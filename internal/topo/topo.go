// Package topo models the system interconnect: node addressing, links with
// propagation latency and finite bandwidth (serialization occupancy), and
// the two topologies of the paper's evaluation — the hierarchical-switch
// network of Model A and the 4-chip hub-connected m-CMP of Model B.
//
// Congestion is modelled per link: each message occupies a link for its
// serialization time, so a retry storm (e.g. SSB remote retries crossing
// chips) queues behind itself and end-to-end latency grows, which is the
// effect behind Figure 9b.
package topo

import (
	"fmt"
	"math"

	"fairrw/internal/obs"
	"fairrw/internal/sim"
)

// NodeKind distinguishes the agent classes attached to the network.
type NodeKind uint8

const (
	// CoreNode is a processor core (and its colocated L1 + LCU).
	CoreNode NodeKind = iota
	// MemNode is a memory controller (and its colocated LRT / SSB bank).
	MemNode
)

// NodeID addresses an agent on the interconnect.
type NodeID struct {
	Kind  NodeKind
	Index int
}

// Core returns the NodeID of core i.
func Core(i int) NodeID { return NodeID{CoreNode, i} }

// Mem returns the NodeID of memory controller i.
func Mem(i int) NodeID { return NodeID{MemNode, i} }

func (n NodeID) String() string {
	switch n.Kind {
	case CoreNode:
		return fmt.Sprintf("core%d", n.Index)
	case MemNode:
		return fmt.Sprintf("mem%d", n.Index)
	}
	return fmt.Sprintf("node(%d,%d)", n.Kind, n.Index)
}

// Link is a shared network resource. Messages crossing it are serialized:
// each occupies the link for SerLat cycles, and messages exceeding the
// link's capacity in a time window queue into the next window.
//
// Occupancy is tracked in a ring of fixed-width time buckets rather than a
// single busy-until cursor, because transactions charge their later legs
// at future times: a single cursor would make a present message queue
// behind a reservation hundreds of cycles ahead even though the link is
// idle now, and the artificial waits cascade.
type Link struct {
	Name   string
	ID     int      // index into Network.Links (set by the topology builder)
	SerLat sim.Time // occupancy per message (inverse bandwidth)

	ring [linkRingSize]linkBucket

	// Stats
	Msgs      uint64
	TotalWait sim.Time // cycles spent queueing behind earlier messages
}

const (
	linkBucketBits = 6 // 64-cycle buckets
	linkBucketLen  = sim.Time(1) << linkBucketBits
	linkRingSize   = 64 // 4096-cycle reservation window
)

type linkBucket struct {
	epoch uint64
	used  sim.Time
}

// cross reserves capacity for one message arriving at time t and returns
// the time at which the message has crossed the link.
func (l *Link) cross(t sim.Time) sim.Time {
	l.Msgs++
	if l.SerLat == 0 {
		return t
	}
	for {
		b := uint64(t) >> linkBucketBits
		slot := &l.ring[b%linkRingSize]
		if slot.epoch != b {
			if slot.epoch > b {
				// A newer window already recycled this slot; this (rare)
				// out-of-order charge just pays latency without booking.
				return t + l.SerLat
			}
			slot.epoch = b
			slot.used = 0
		}
		if slot.used+l.SerLat <= linkBucketLen {
			slot.used += l.SerLat
			return t + l.SerLat
		}
		// Window full: queue into the next one.
		next := sim.Time(b+1) << linkBucketBits
		l.TotalWait += next - t
		t = next
	}
}

// Reset clears link occupancy and statistics (between benchmark runs).
func (l *Link) Reset() {
	l.ring = [linkRingSize]linkBucket{}
	l.Msgs = 0
	l.TotalWait = 0
}

const (
	// maxHops is the most shared links one route may cross: the access,
	// root/hub and access legs of a cross-chip message.
	maxHops = 3
	// maxLinks is how many links a one-byte hop index can name.
	maxLinks = 1 << 8
)

// route is one precomputed source→destination path: the shared links a
// message crosses, in order, as indices into Network.Links, plus the total
// propagation latency (the uncongested one-way latency). It packs into 8
// bytes and holds no pointer, so the whole route table is one allocation
// the collector never scans.
type route struct {
	hops [maxHops]uint8
	n    uint8
	prop uint32
}

// Network routes messages between nodes. The topology is evaluated once
// per chip pair at construction; its routes are then copied into a flat
// node-pair table of fixed-size routes, so the per-message path lookup is
// one table index and allocates nothing, and the table is one
// allocation, not one per node pair. A node sending to itself crosses
// nothing.
type Network struct {
	K     *sim.Kernel
	Name  string
	Links []*Link // byHop[:len(links)]

	numCores, numMems int
	routes            []route          // [idx(from)*nodes + idx(to)]
	byHop             *[maxLinks]*Link // Links padded to every index a hop can hold: no bounds check

	// Obs, when non-nil, receives per-link occupancy records.
	Obs *obs.Capture

	// Stats
	Sent uint64
}

// RouteFunc describes a topology by chip: it appends to buf the shared
// links a message crosses from one chip to another (or within one chip),
// in order, and returns the extended slice plus the propagation latency.
// It is evaluated once per chip pair when the Network is built, never on
// the message path, and buf is reused across pairs.
type RouteFunc func(buf []*Link, fromChip, toChip int) (links []*Link, propagation sim.Time)

// NewNetwork builds a network over links for numCores cores and numMems
// memory controllers spread over chips chips by chipOf, routed by routeOf.
// It panics on more than maxLinks links, a link slower than one booking
// bucket, a node placed outside [0, chips), or a route with more than
// maxHops links, a link not in links or a propagation a route cannot hold.
func NewNetwork(k *sim.Kernel, name string, links []*Link, numCores, numMems, chips int, chipOf func(NodeID) int, routeOf RouteFunc) *Network {
	if len(links) > maxLinks {
		panic(fmt.Sprintf("topo: %s has %d links, more than the %d a hop index can name", name, len(links), maxLinks))
	}
	byHop := new([maxLinks]*Link)
	copy(byHop[:], links)
	n := &Network{K: k, Name: name, Links: byHop[:len(links):len(links)],
		numCores: numCores, numMems: numMems, byHop: byHop}
	for i, l := range links {
		if l.SerLat > linkBucketLen {
			panic(fmt.Sprintf("topo: %s link %q occupies %d cycles per message, more than its %d-cycle booking bucket", name, l.Name, l.SerLat, linkBucketLen))
		}
		l.ID = i
	}
	byChip := make([]route, chips*chips)
	buf := make([]*Link, 0, maxHops)
	for c := range byChip {
		cf, ct := c/chips, c%chips
		ls, prop := routeOf(buf[:0], cf, ct)
		if len(ls) > maxHops {
			panic(fmt.Sprintf("topo: %s route chip%d→chip%d crosses %d links, more than maxHops (%d)", name, cf, ct, len(ls), maxHops))
		}
		if prop > math.MaxUint32 {
			panic(fmt.Sprintf("topo: %s route chip%d→chip%d has propagation %d, more than a route holds", name, cf, ct, prop))
		}
		r := route{n: uint8(len(ls)), prop: uint32(prop)}
		for h, l := range ls {
			if uint(l.ID) >= uint(len(links)) || links[l.ID] != l {
				panic(fmt.Sprintf("topo: %s route chip%d→chip%d crosses link %q, which is not in the network", name, cf, ct, l.Name))
			}
			r.hops[h] = uint8(l.ID)
		}
		byChip[c] = r
	}
	nodes := numCores + numMems
	chipAt := make([]int, nodes)
	for i := range chipAt {
		if chipAt[i] = chipOf(n.nodeOf(i)); uint(chipAt[i]) >= uint(chips) {
			panic(fmt.Sprintf("topo: %s puts %v on chip %d, outside [0, %d)", name, n.nodeOf(i), chipAt[i], chips))
		}
	}
	n.routes = make([]route, nodes*nodes)
	for fi, cf := range chipAt {
		row, chipRow := n.routes[fi*nodes:][:nodes], byChip[cf*chips:][:chips]
		for ti, ct := range chipAt {
			row[ti] = chipRow[ct]
		}
		row[fi] = route{}
	}
	return n
}

// idx flattens a NodeID into a route-table index: cores first, then
// memory controllers. A node beyond the table panics with a beyondTable,
// whose message is built only then, so idx inlines into routeOf.
func (n *Network) idx(node NodeID) int {
	i, end := node.Index, n.numCores
	if node.Kind != CoreNode {
		i, end = n.numCores+node.Index, n.numCores+n.numMems
	}
	if i >= end {
		panic(beyondTable{node, n.numCores, n.numMems})
	}
	return i
}

// beyondTable is the panic value for a node outside the route table.
type beyondTable struct {
	node              NodeID
	numCores, numMems int
}

func (e beyondTable) Error() string {
	if e.node.Kind == CoreNode {
		return fmt.Sprintf("topo: %v beyond the %d-core route table", e.node, e.numCores)
	}
	return fmt.Sprintf("topo: %v beyond the %d-controller route table", e.node, e.numMems)
}

// nodeOf is the inverse of idx, used when building the table.
func (n *Network) nodeOf(i int) NodeID {
	if i < n.numCores {
		return Core(i)
	}
	return Mem(i - n.numCores)
}

// routeOf returns the precomputed route between two nodes.
func (n *Network) routeOf(from, to NodeID) *route {
	return &n.routes[n.idx(from)*(n.numCores+n.numMems)+n.idx(to)]
}

// Delay computes the one-way delivery latency for a message sent now,
// charging occupancy on every shared link along the route.
func (n *Network) Delay(from, to NodeID) sim.Time {
	return n.DelayAt(n.K.Now(), from, to)
}

// DelayAt computes the one-way latency for a message injected at absolute
// time start, charging link occupancy. It lets multi-leg transactions
// (request, forward, reply) charge each leg at the time it actually begins.
func (n *Network) DelayAt(start sim.Time, from, to NodeID) sim.Time {
	n.Sent++
	r := n.routeOf(from, to)
	t := start
	for _, h := range r.hops[:r.n] {
		l := n.byHop[h]
		t2 := l.cross(t)
		if n.Obs != nil && l.SerLat > 0 {
			n.Obs.LinkCross(int(h), uint64(t), uint64(l.SerLat), uint64(t2-t-l.SerLat))
		}
		t = t2
	}
	return (t - start) + sim.Time(r.prop)
}

// SendTo delivers a message: it computes the congested one-way latency
// and schedules r.Recv(tag) at arrival time via the kernel's value-typed
// receive event, so high-rate senders allocate nothing per message.
func (n *Network) SendTo(from, to NodeID, r sim.Receiver, tag uint64) {
	n.K.ScheduleRecv(n.Delay(from, to), r, tag)
}

// Uncongested returns the propagation-only latency between two nodes,
// without charging link occupancy. Used for calibration and for modelling
// transactions whose queueing is charged elsewhere.
func (n *Network) Uncongested(from, to NodeID) sim.Time {
	return sim.Time(n.routeOf(from, to).prop)
}

// ResetStats clears all link and network counters.
func (n *Network) ResetStats() {
	n.Sent = 0
	for _, l := range n.Links {
		l.Reset()
	}
}
