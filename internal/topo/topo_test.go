package topo

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"fairrw/internal/sim"
)

func TestLinkSerialization(t *testing.T) {
	l := &Link{Name: "l", SerLat: 4}
	// A 64-cycle window fits 16 messages at 4 cycles each; the 17th queues
	// into the next window.
	for i := 0; i < 16; i++ {
		if got := l.cross(0); got != 4 {
			t.Fatalf("cross %d = %d, want 4", i, got)
		}
	}
	if got := l.cross(0); got != 68 {
		t.Fatalf("overflow cross = %d, want 68 (next window + SerLat)", got)
	}
	if l.TotalWait != 64 {
		t.Fatalf("TotalWait = %d, want 64", l.TotalWait)
	}
	// A late message in an idle window does not queue.
	if got := l.cross(1000); got != 1004 {
		t.Fatalf("late cross = %d, want 1004", got)
	}
	l.Reset()
	if l.Msgs != 0 || l.TotalWait != 0 {
		t.Fatal("Reset did not clear link state")
	}
}

func TestLinkOutOfOrderChargesDoNotBlockPresent(t *testing.T) {
	l := &Link{Name: "l", SerLat: 4}
	// A reservation far in the future must not delay a message now.
	if got := l.cross(500); got != 504 {
		t.Fatalf("future charge = %d, want 504", got)
	}
	if got := l.cross(0); got != 4 {
		t.Fatalf("present message was blocked by a future reservation: %d", got)
	}
	if l.TotalWait != 0 {
		t.Fatalf("TotalWait = %d, want 0", l.TotalWait)
	}
}

func TestModelARouting(t *testing.T) {
	k := sim.New()
	n := NewModelA(k, DefaultModelA())

	// Self-route is free.
	if d := n.Uncongested(Core(3), Core(3)); d != 0 {
		t.Fatalf("self route latency = %d, want 0", d)
	}
	// Cross-chip propagation equals OneWay.
	if d := n.Uncongested(Core(0), Core(31)); d != 55 {
		t.Fatalf("cross-chip latency = %d, want 55", d)
	}
	// Model A memory is uniform: local and remote controllers cost the same.
	local := n.Uncongested(Core(5), Mem(5))
	remote := n.Uncongested(Core(5), Mem(6))
	if local != remote {
		t.Fatalf("model A memory should be uniform: local %d vs remote %d", local, remote)
	}
}

func TestModelBRouting(t *testing.T) {
	k := sim.New()
	n := NewModelB(k, DefaultModelB())

	// Same chip: cores 0 and 7 share chip 0.
	intra := n.Uncongested(Core(0), Core(7))
	// Cross chip: core 0 (chip 0) to core 8 (chip 1).
	inter := n.Uncongested(Core(0), Core(8))
	if intra != 20 || inter != 60 {
		t.Fatalf("intra=%d inter=%d, want 20/60", intra, inter)
	}
	// Memory controllers 0,1 are on chip 0; 2,3 on chip 1.
	if d := n.Uncongested(Core(3), Mem(1)); d != 20 {
		t.Fatalf("core3->mem1 = %d, want intra 20", d)
	}
	if d := n.Uncongested(Core(3), Mem(2)); d != 60 {
		t.Fatalf("core3->mem2 = %d, want inter 60", d)
	}
}

func TestCongestionGrowsDelay(t *testing.T) {
	k := sim.New()
	n := NewModelB(k, DefaultModelB())

	// Hammer one cross-chip route; later messages should see growing delay
	// as they queue on the hub.
	first := n.Delay(Core(0), Core(8))
	var last sim.Time
	for i := 0; i < 50; i++ {
		last = n.Delay(Core(0), Core(8))
	}
	if last <= first {
		t.Fatalf("delay did not grow under congestion: first=%d last=%d", first, last)
	}
	n.ResetStats()
	again := n.Delay(Core(0), Core(8))
	if again != first {
		t.Fatalf("after reset, delay = %d, want %d", again, first)
	}
}

// recorder is a Receiver that logs the time and tag of each delivery.
type recorder struct {
	k    *sim.Kernel
	at   []sim.Time
	tags []uint64
}

func (r *recorder) Recv(tag uint64) {
	r.at = append(r.at, r.k.Now())
	r.tags = append(r.tags, tag)
}

func TestSendDelivers(t *testing.T) {
	k := sim.New()
	n := NewModelA(k, DefaultModelA())
	r := &recorder{k: k}
	n.SendTo(Core(0), Core(1), r, 42)
	k.Run()
	// 2 access links (4 each) + root (2) + propagation 55 = 65.
	if len(r.at) != 1 || r.at[0] != 65 || r.tags[0] != 42 {
		t.Fatalf("deliveries at %v with tags %v, want one at 65 with tag 42", r.at, r.tags)
	}
	if n.Sent != 1 {
		t.Fatalf("Sent = %d, want 1", n.Sent)
	}
}

// TestRoutesFollowNodeRule checks every node pair of both models against
// the node rule: a node sending to itself crosses nothing, and any other
// pair takes what the topology's RouteFunc returns for the pair's chips —
// the same links in the same order and the same propagation. It also
// checks that the build evaluates each chip pair exactly once and that a
// route packs into 8 bytes.
func TestRoutesFollowNodeRule(t *testing.T) {
	if size := unsafe.Sizeof(route{}); size != 8 {
		t.Fatalf("a route is %d bytes, want 8", size)
	}
	acfg, bcfg := DefaultModelA(), DefaultModelB()
	aLinks, aChip, aRoute := modelA(acfg)
	bLinks, bChip, bRoute := modelB(bcfg)
	for _, m := range []struct {
		name               string
		links              []*Link
		cores, mems, chips int
		chipOf             func(NodeID) int
		routeOf            RouteFunc
		calls              int
	}{
		{"A", aLinks, acfg.Chips, acfg.Chips, acfg.Chips, aChip, aRoute, 1024},
		{"B", bLinks, bcfg.Chips * bcfg.CoresPerChip, bcfg.Chips * bcfg.MemPerChip, bcfg.Chips, bChip, bRoute, 16},
	} {
		calls := map[[2]int]int{}
		counted := func(buf []*Link, cf, ct int) ([]*Link, sim.Time) {
			calls[[2]int{cf, ct}]++
			return m.routeOf(buf, cf, ct)
		}
		n := NewNetwork(sim.New(), m.name, m.links, m.cores, m.mems, m.chips, m.chipOf, counted)
		total := 0
		for pair, c := range calls {
			if c != 1 {
				t.Errorf("model %s: chip pair %v evaluated %d times, want once", m.name, pair, c)
			}
			total += c
		}
		if total != m.calls || len(calls) != m.chips*m.chips {
			t.Fatalf("model %s: %d RouteFunc calls over %d chip pairs, want %d over %d", m.name, total, len(calls), m.calls, m.chips*m.chips)
		}
		nodes := m.cores + m.mems
		for fi := 0; fi < nodes; fi++ {
			for ti := 0; ti < nodes; ti++ {
				from, to := n.nodeOf(fi), n.nodeOf(ti)
				r := n.routeOf(from, to)
				got := make([]*Link, r.n)
				for h := range got {
					got[h] = n.Links[r.hops[h]]
				}
				var want []*Link
				var wantProp sim.Time
				if from != to {
					want, wantProp = m.routeOf(nil, m.chipOf(from), m.chipOf(to))
				}
				if len(got) != len(want) || sim.Time(r.prop) != wantProp {
					t.Fatalf("model %s %v→%v: %d links, prop %d; the node rule says %d links, prop %d",
						m.name, from, to, len(got), r.prop, len(want), wantProp)
				}
				for h := range want {
					if got[h] != want[h] {
						t.Fatalf("model %s %v→%v hop %d: %s, RouteFunc says %s", m.name, from, to, h, got[h].Name, want[h].Name)
					}
				}
			}
		}
	}
}

func TestNewNetworkRejectsUnindexableRoutes(t *testing.T) {
	wantPanic := func(name, substr string, build func()) {
		t.Helper()
		defer func() {
			t.Helper()
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, substr) {
				t.Fatalf("%s: panic %q, want one mentioning %q", name, msg, substr)
			}
		}()
		build()
	}
	links := []*Link{{Name: "l0"}, {Name: "l1"}, {Name: "l2"}, {Name: "l3"}}
	oneChip := func(NodeID) int { return 0 }
	wantPanic("4-hop route", "crosses 4 links, more than maxHops (3)", func() {
		NewNetwork(sim.New(), "long", links, 2, 0, 1, oneChip, func(buf []*Link, cf, ct int) ([]*Link, sim.Time) {
			return append(buf, links...), 1
		})
	})
	wantPanic("foreign link", `link "stray"`, func() {
		NewNetwork(sim.New(), "stray", links, 2, 0, 1, oneChip, func(buf []*Link, cf, ct int) ([]*Link, sim.Time) {
			return append(buf, &Link{Name: "stray"}), 1
		})
	})
	wantPanic("foreign link, negative ID", `link "stray"`, func() {
		NewNetwork(sim.New(), "stray", links, 2, 0, 1, oneChip, func(buf []*Link, cf, ct int) ([]*Link, sim.Time) {
			return append(buf, &Link{Name: "stray", ID: -1}), 1
		})
	})
	wantPanic("propagation past a route", "has propagation 4294967296, more than a route holds", func() {
		NewNetwork(sim.New(), "far", links, 2, 0, 1, oneChip, func(buf []*Link, cf, ct int) ([]*Link, sim.Time) {
			return buf, 1 << 32
		})
	})
	for _, chip := range []int{-1, 2} {
		wantPanic("node off the chips", fmt.Sprintf("puts core0 on chip %d, outside [0, 2)", chip), func() {
			NewNetwork(sim.New(), "lost", links, 2, 0, 2, func(NodeID) int { return chip }, func(buf []*Link, cf, ct int) ([]*Link, sim.Time) {
				return buf, 0
			})
		})
	}
	many := make([]*Link, maxLinks+1)
	for i := range many {
		many[i] = &Link{Name: "l"}
	}
	wantPanic("257 links", "has 257 links, more than the 256", func() {
		NewNetwork(sim.New(), "wide", many, 2, 0, 1, oneChip, func(buf []*Link, cf, ct int) ([]*Link, sim.Time) {
			return buf, 0
		})
	})
	// A link slower than one booking bucket would queue every message into
	// the next bucket forever.
	slow := DefaultModelB()
	slow.HubSerLat = linkBucketLen + 1
	wantPanic("link slower than a bucket", `link "hubB0" occupies 65 cycles per message, more than its 64-cycle booking bucket`, func() {
		NewModelB(sim.New(), slow)
	})
	slow.HubSerLat = linkBucketLen
	if d := NewModelB(sim.New(), slow).Delay(Core(0), Core(31)); d != 2+64+2+60 {
		t.Fatalf("a link of one full bucket: Delay = %d, want %d", d, 2+64+2+60)
	}
	a := NewModelA(sim.New(), DefaultModelA())
	wantPanic("core beyond the table", "core32 beyond the 32-core route table", func() { a.Delay(Core(32), Core(0)) })
	wantPanic("controller beyond the table", "mem32 beyond the 32-controller route table", func() { a.Delay(Core(0), Mem(32)) })
}

func TestModelBHubSpreading(t *testing.T) {
	k := sim.New()
	n := NewModelB(k, DefaultModelB())
	// Traffic between different chip pairs should not all use one hub.
	for cf := 0; cf < 4; cf++ {
		for ct := 0; ct < 4; ct++ {
			if cf == ct {
				continue
			}
			n.Delay(Core(cf*8), Core(ct*8))
		}
	}
	used := 0
	for _, l := range n.Links {
		if l.Name[:3] == "hub" && l.Msgs > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("only %d hubs carried traffic; routing does not spread load", used)
	}
}

// TestDelayAtNoAllocs asserts the per-message path — precomputed route
// lookup plus link occupancy charging — allocates nothing.
func TestDelayAtNoAllocs(t *testing.T) {
	for _, n := range []*Network{NewModelA(sim.New(), DefaultModelA()), NewModelB(sim.New(), DefaultModelB())} {
		var tm sim.Time
		if avg := testing.AllocsPerRun(500, func() {
			tm += n.DelayAt(tm, Core(0), Core(8))
			tm += n.DelayAt(tm, Core(3), Mem(2))
			tm += n.DelayAt(tm, Core(5), Core(5))
		}); avg != 0 {
			t.Fatalf("%s: DelayAt allocates %.1f/op, want 0", n.Name, avg)
		}
	}
}

// BenchmarkDelayAt measures the per-message route cost, sweeping every
// core→controller pair of each model in turn, so the row reads the route
// table's layout rather than one cached route.
func BenchmarkDelayAt(b *testing.B) {
	for _, m := range []struct {
		name  string
		build func(*sim.Kernel) *Network
	}{
		{"A", func(k *sim.Kernel) *Network { return NewModelA(k, DefaultModelA()) }},
		{"B", func(k *sim.Kernel) *Network { return NewModelB(k, DefaultModelB()) }},
	} {
		b.Run(m.name, func(b *testing.B) {
			n := m.build(sim.New())
			b.ReportAllocs()
			b.ResetTimer()
			var tm sim.Time
			c, mem := 0, 0
			for i := 0; i < b.N; i++ {
				tm += n.DelayAt(tm, Core(c), Mem(mem))
				if c++; c == n.numCores {
					c = 0
					if mem++; mem == n.numMems {
						mem = 0
					}
				}
			}
		})
	}
}
