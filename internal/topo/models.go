package topo

import (
	"fmt"

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
	links, routeOf := modelA(cfg)
	return NewNetwork(k, "modelA", links, cfg.Chips, cfg.Chips, routeOf)
}

// modelA returns Model A's links and routes, for NewModelA and the
// route-table tests.
func modelA(cfg ModelAConfig) ([]*Link, RouteFunc) {
	access := make([]*Link, cfg.Chips)
	links := make([]*Link, 0, cfg.Chips+1)
	for i := range access {
		access[i] = &Link{Name: fmt.Sprintf("accessA%d", i), SerLat: cfg.AccessSerLat}
		links = append(links, access[i])
	}
	planes := cfg.RootPlanes
	if planes <= 0 {
		planes = 1
	}
	roots := make([]*Link, planes)
	for i := range roots {
		roots[i] = &Link{Name: fmt.Sprintf("rootA%d", i), SerLat: cfg.RootSerLat}
		links = append(links, roots[i])
	}

	chipOf := func(n NodeID) int { return n.Index % cfg.Chips }

	return links, func(buf []*Link, from, to NodeID) ([]*Link, sim.Time) {
		if from == to {
			return buf, 0
		}
		// Model A memory latency is uniform (Fig. 8: local = remote =
		// 186 cycles), so every route crosses the hierarchy root, even
		// a core talking to its own chip's memory controller.
		cf, ct := chipOf(from), chipOf(to)
		root := roots[ct%len(roots)] // plane by destination chip
		return append(buf, access[cf], root, access[ct]), cfg.OneWay
	}
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
	links, routeOf := modelB(cfg)
	return NewNetwork(k, "modelB", links, cfg.Chips*cfg.CoresPerChip, cfg.Chips*cfg.MemPerChip, routeOf)
}

// modelB returns Model B's links and routes, for NewModelB and the
// route-table tests.
func modelB(cfg ModelBConfig) ([]*Link, RouteFunc) {
	xbar := make([]*Link, cfg.Chips)
	links := make([]*Link, 0, cfg.Chips+cfg.Hubs)
	for i := range xbar {
		xbar[i] = &Link{Name: fmt.Sprintf("xbarB%d", i), SerLat: cfg.XbarSerLat}
		links = append(links, xbar[i])
	}
	hubs := make([]*Link, cfg.Hubs)
	for i := range hubs {
		hubs[i] = &Link{Name: fmt.Sprintf("hubB%d", i), SerLat: cfg.HubSerLat}
		links = append(links, hubs[i])
	}

	chipOf := func(n NodeID) int {
		if n.Kind == CoreNode {
			return n.Index / cfg.CoresPerChip
		}
		return n.Index / cfg.MemPerChip
	}

	return links, func(buf []*Link, from, to NodeID) ([]*Link, sim.Time) {
		if from == to {
			return buf, 0
		}
		cf, ct := chipOf(from), chipOf(to)
		if cf == ct {
			return append(buf, xbar[cf]), cfg.IntraOneWay
		}
		h := hubs[(cf*7+ct*3)%cfg.Hubs]
		return append(buf, xbar[cf], h, xbar[ct]), cfg.InterOneWay
	}
}
