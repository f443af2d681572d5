package topo

import (
	"strconv"

	"fairrw/internal/sim"
)

// ModelAConfig parameterizes the Model A (in-order, 32 single-core chips,
// hierarchical switch) interconnect. Latencies follow Figure 8: memory is
// uniform (186 cycles local and remote), so all traffic crosses the
// hierarchy root.
type ModelAConfig struct {
	Chips        int      // number of single-core chips (default 32)
	OneWay       sim.Time // propagation, any chip to any chip
	AccessSerLat sim.Time // per-chip access link occupancy per message
	RootSerLat   sim.Time // root switch occupancy per message
	RootPlanes   int      // parallel crossbar planes at the hierarchy root
}

// DefaultModelA returns the configuration used throughout the evaluation.
// The root is a multi-plane crossbar (the E25K uses an 18x18 crossbar), so
// simultaneous bursts from many chips do not serialize through one funnel.
func DefaultModelA() ModelAConfig {
	return ModelAConfig{Chips: 32, OneWay: 55, AccessSerLat: 4, RootSerLat: 2, RootPlanes: 8}
}

// NewModelA builds the hierarchical-switch network: one access link per
// chip plus a shared root. Cores and memory controllers are numbered
// per-chip (core i and mem i live on chip i).
func NewModelA(k *sim.Kernel, cfg ModelAConfig) *Network {
	links, chipOf, routeOf := modelA(cfg)
	return NewNetwork(k, "modelA", links, cfg.Chips, cfg.Chips, cfg.Chips, chipOf, routeOf)
}

// modelA returns Model A's links, node placement and routes, for NewModelA
// and the route-table tests.
func modelA(cfg ModelAConfig) ([]*Link, func(NodeID) int, RouteFunc) {
	links := newLinks(cfg.Chips+max(cfg.RootPlanes, 1), func(i int) (string, sim.Time) {
		if i < cfg.Chips {
			return "accessA" + strconv.Itoa(i), cfg.AccessSerLat
		}
		return "rootA" + strconv.Itoa(i-cfg.Chips), cfg.RootSerLat
	})
	access, roots := links[:cfg.Chips], links[cfg.Chips:]
	chipOf := func(n NodeID) int { return n.Index % cfg.Chips }
	return links, chipOf, func(buf []*Link, cf, ct int) ([]*Link, sim.Time) {
		// Model A memory latency is uniform (Fig. 8: local = remote =
		// 186 cycles), so every route crosses the hierarchy root, even
		// a core talking to its own chip's memory controller.
		root := roots[ct%len(roots)] // plane by destination chip
		return append(buf, access[cf], root, access[ct]), cfg.OneWay
	}
}

// newLinks returns n links allocated as one slab, link i named and timed
// by spec(i).
func newLinks(n int, spec func(i int) (string, sim.Time)) []*Link {
	slab, links := make([]Link, n), make([]*Link, n)
	for i := range slab {
		slab[i].Name, slab[i].SerLat = spec(i)
		links[i] = &slab[i]
	}
	return links
}

// ModelBConfig parameterizes the Model B (4-chip × 8-core m-CMP, Sun T5440
// derived) interconnect: per-chip crossbars joined by four coherence hubs
// with scarce bandwidth.
type ModelBConfig struct {
	Chips        int
	CoresPerChip int
	MemPerChip   int
	IntraOneWay  sim.Time // propagation within a chip
	InterOneWay  sim.Time // propagation across chips (via a hub)
	XbarSerLat   sim.Time // per-chip crossbar occupancy per message
	HubSerLat    sim.Time // per-hub occupancy per message
	Hubs         int
}

// DefaultModelB returns the configuration used throughout the evaluation.
func DefaultModelB() ModelBConfig {
	return ModelBConfig{
		Chips: 4, CoresPerChip: 8, MemPerChip: 2,
		IntraOneWay: 20, InterOneWay: 60,
		XbarSerLat: 2, HubSerLat: 10, Hubs: 4,
	}
}

// NewModelB builds the m-CMP network. Cores 0..31 map to chip i/8; memory
// controllers 0..7 map to chip j/2. Cross-chip traffic is spread across
// the hubs deterministically by (source, destination) chip pair.
func NewModelB(k *sim.Kernel, cfg ModelBConfig) *Network {
	links, chipOf, routeOf := modelB(cfg)
	return NewNetwork(k, "modelB", links, cfg.Chips*cfg.CoresPerChip, cfg.Chips*cfg.MemPerChip, cfg.Chips, chipOf, routeOf)
}

// modelB returns Model B's links, node placement and routes, for NewModelB
// and the route-table tests.
func modelB(cfg ModelBConfig) ([]*Link, func(NodeID) int, RouteFunc) {
	links := newLinks(cfg.Chips+cfg.Hubs, func(i int) (string, sim.Time) {
		if i < cfg.Chips {
			return "xbarB" + strconv.Itoa(i), cfg.XbarSerLat
		}
		return "hubB" + strconv.Itoa(i-cfg.Chips), cfg.HubSerLat
	})
	xbar, hubs := links[:cfg.Chips], links[cfg.Chips:]
	chipOf := func(n NodeID) int {
		if n.Kind == CoreNode {
			return n.Index / cfg.CoresPerChip
		}
		return n.Index / cfg.MemPerChip
	}
	return links, chipOf, func(buf []*Link, cf, ct int) ([]*Link, sim.Time) {
		if cf == ct {
			return append(buf, xbar[cf]), cfg.IntraOneWay
		}
		h := hubs[(cf*7+ct*3)%cfg.Hubs]
		return append(buf, xbar[cf], h, xbar[ct]), cfg.InterOneWay
	}
}
