// The ownership map lives in package owner; these tests reach it through
// cluster.Map and cluster.NewMap, the names the benchmark calls, so a break
// in the forwarding shows here too.
package cluster

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fairrw/internal/lockmgr/owner"
	"fairrw/internal/lockmgr/wire"
)

func mustMap(t *testing.T, epoch uint64, members []string) *Map {
	t.Helper()
	m, err := NewMap(epoch, members)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("key-%04d", i)
	}
	return names
}

// Rendezvous ownership must not depend on the order the member list
// arrived in: every permutation of the same set yields the same owner
// for every name.
func TestOwnerDeterministicAcrossOrderings(t *testing.T) {
	members := []string{"10.0.0.1:7600", "10.0.0.2:7600", "10.0.0.3:7600", "10.0.0.4:7600", "10.0.0.5:7600"}
	names := testNames(512)
	base := mustMap(t, 1, members)

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]string(nil), members...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		m := mustMap(t, 1, shuffled)
		for _, name := range names {
			if got, want := m.Owner(name), base.Owner(name); got != want {
				t.Fatalf("trial %d: Owner(%q) = %q under ordering %v, want %q", trial, name, got, shuffled, want)
			}
		}
	}
}

// Duplicated members must collapse: a repeated address cannot double a
// node's share.
func TestNewMapDedup(t *testing.T) {
	m := mustMap(t, 1, []string{"b:1", "a:1", "b:1", "a:1", "c:1"})
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (deduped)", m.Len())
	}
	if got := m.Members(); got[0] != "a:1" || got[1] != "b:1" || got[2] != "c:1" {
		t.Fatalf("Members = %v, want sorted a,b,c", got)
	}
}

func TestNewMapRejects(t *testing.T) {
	if _, err := NewMap(1, []string{""}); err == nil {
		t.Fatal("empty address accepted")
	}
	if _, err := NewMap(1, []string{strings.Repeat("a", wire.MaxMemberAddr+1)}); err == nil {
		t.Fatal("oversized address accepted")
	}
	if _, err := NewMap(1, make([]string, wire.MaxMembers+1)); err == nil {
		t.Fatal("oversized member list accepted")
	}
}

// Removing one member must move exactly the names that member owned:
// rendezvous scores for survivors are unchanged, so no other name may
// change hands. The moved share should be ≈ 1/N.
func TestMinimalReshuffleOnRemove(t *testing.T) {
	members := []string{"n1:1", "n2:1", "n3:1", "n4:1"}
	names := testNames(4096)
	before := mustMap(t, 1, members)
	after := before.Without("n3:1")

	if after.Epoch() != 2 {
		t.Fatalf("epoch after removal = %d, want 2", after.Epoch())
	}
	if after.Contains("n3:1") {
		t.Fatal("removed member still present")
	}

	moved := 0
	for _, name := range names {
		was, is := before.Owner(name), after.Owner(name)
		if was == "n3:1" {
			if is == "n3:1" {
				t.Fatalf("%q still owned by removed member", name)
			}
			moved++
			continue
		}
		if was != is {
			t.Fatalf("%q moved %q -> %q though its owner survived", name, was, is)
		}
	}
	// The dead member's share must be roughly 1/4; allow a generous
	// band so the test pins the property, not the hash.
	if lo, hi := len(names)/8, len(names)/2; moved < lo || moved > hi {
		t.Fatalf("removal moved %d/%d names, want within [%d, %d] (≈1/4)", moved, len(names), lo, hi)
	}
}

// Ownership must also be stable under add-then-remove: re-adding the
// same member set at any epoch reproduces identical ownership.
func TestOwnershipStableAcrossEpochs(t *testing.T) {
	members := []string{"n1:1", "n2:1", "n3:1"}
	a := mustMap(t, 1, members)
	b := mustMap(t, 9, members)
	for _, name := range testNames(256) {
		if a.Owner(name) != b.Owner(name) {
			t.Fatalf("Owner(%q) differs across epochs with identical members", name)
		}
	}
}

// Every member must own a nonempty, roughly fair share.
func TestShareBalance(t *testing.T) {
	members := []string{"n1:1", "n2:1", "n3:1"}
	m := mustMap(t, 1, members)
	counts := map[string]int{}
	names := testNames(3000)
	for _, name := range names {
		counts[m.Owner(name)]++
	}
	for _, mem := range members {
		share := float64(counts[mem]) / float64(len(names))
		if share < 0.15 || share > 0.55 {
			t.Fatalf("member %s owns %.0f%% of names, want ≈33%%", mem, 100*share)
		}
	}
}

func TestOwnerBytesMatchesOwner(t *testing.T) {
	m := mustMap(t, 1, []string{"n1:1", "n2:1", "n3:1"})
	for _, name := range testNames(128) {
		if m.Owner(name) != m.OwnerBytes([]byte(name)) {
			t.Fatalf("OwnerBytes(%q) disagrees with Owner", name)
		}
	}
}

func TestEmptyAndSingleMaps(t *testing.T) {
	empty := mustMap(t, 0, nil)
	if empty.Owner("x") != "" || empty.OwnerBytes([]byte("x")) != "" {
		t.Fatal("empty map claimed an owner")
	}
	solo := mustMap(t, 1, []string{"n1:1"})
	if solo.Owner("anything") != "n1:1" {
		t.Fatal("single-member map must own everything")
	}
	if solo.Without("n1:1").Len() != 0 {
		t.Fatal("removing the only member must empty the map")
	}
	if solo.Without("other:1") != solo {
		t.Fatal("removing a non-member must return the same map")
	}
}

func TestMembershipRoundTrip(t *testing.T) {
	m := mustMap(t, 7, []string{"n2:1", "n1:1"})
	wm := m.Membership()
	p, err := wire.AppendMembership(nil, &wm)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := wire.DecodeMembership(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := owner.FromMembership(&dec)
	if err != nil {
		t.Fatal(err)
	}
	if back.Epoch() != 7 || back.Len() != 2 || back.Owner("k") != m.Owner("k") {
		t.Fatalf("round trip lost state: %+v", back)
	}
}

// The lookup path must not allocate: the Router calls Owner per op.
func TestOwnerAllocs(t *testing.T) {
	m := mustMap(t, 1, []string{"n1:1", "n2:1", "n3:1", "n4:1", "n5:1"})
	name := "key-0042"
	raw := []byte(name)
	if n := testing.AllocsPerRun(1000, func() {
		if m.Owner(name) == "" {
			t.Fatal("no owner")
		}
	}); n != 0 {
		t.Fatalf("Owner allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if m.OwnerBytes(raw) == "" {
			t.Fatal("no owner")
		}
	}); n != 0 {
		t.Fatalf("OwnerBytes allocates %.1f/op, want 0", n)
	}
}

func BenchmarkOwner(b *testing.B) {
	m, _ := NewMap(1, []string{"n1:1", "n2:1", "n3:1", "n4:1", "n5:1"})
	names := testNames(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Owner(names[i&63])
	}
}
