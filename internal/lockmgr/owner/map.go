// Package owner distributes the lockmgr namespace across N lockd
// nodes — the software analogue of the paper's per-memory-controller
// Lock Reservation Table banks, with a whole process as the bank.
//
// Ownership is rendezvous (highest-random-weight) hashing: every node
// scores every name as mix64(hash(name) ^ hash(member)) and the highest
// score wins. Rendezvous has exactly the property the failover design
// needs: when a member dies, only the names it owned move (each
// surviving member's score for every name is unchanged, so a name's
// owner changes iff its old owner left) — the cluster-wide equivalent
// of minimal reshuffle.
//
// A Map is immutable after construction. Membership changes produce a
// new Map at a higher epoch; the epoch only rises, so clients can adopt
// any membership they see iff its epoch beats their cached one, with no
// coordination.
package owner

import (
	"fmt"
	"sort"

	"fairrw/internal/lockmgr/wire"
)

// Map is an immutable ownership map: a member list plus the epoch it
// became current at. The zero Map (no members, epoch 0) means "not
// clustered".
type Map struct {
	epoch   uint64
	members []string // sorted, deduplicated
	hashes  []uint64 // hash64(members[i]), precomputed
}

// NewMap builds an ownership map. Members are copied, sorted, and
// deduplicated so two maps built from the same set — in any order — are
// identical, and index-based tie-breaks are order-independent.
func NewMap(epoch uint64, members []string) (*Map, error) {
	if len(members) > wire.MaxMembers {
		return nil, fmt.Errorf("cluster: %d members > %d", len(members), wire.MaxMembers)
	}
	ms := make([]string, len(members))
	copy(ms, members)
	sort.Strings(ms)
	out := ms[:0]
	for i, m := range ms {
		if m == "" || len(m) > wire.MaxMemberAddr {
			return nil, fmt.Errorf("cluster: member address %q", m)
		}
		if i > 0 && m == ms[i-1] {
			continue
		}
		out = append(out, m)
	}
	hs := make([]uint64, len(out))
	for i, m := range out {
		hs[i] = hash64(m)
	}
	return &Map{epoch: epoch, members: out, hashes: hs}, nil
}

// Epoch reports when this membership became current.
func (m *Map) Epoch() uint64 { return m.epoch }

// Len reports the member count.
func (m *Map) Len() int { return len(m.members) }

// Members returns the sorted member list. Callers must not mutate it.
func (m *Map) Members() []string { return m.members }

// Contains reports whether addr is a member.
func (m *Map) Contains(addr string) bool {
	i := sort.SearchStrings(m.members, addr)
	return i < len(m.members) && m.members[i] == addr
}

// Owner returns the member owning name, or "" on an empty map. The
// lookup is allocation-free: one pass hashing the name, one pass mixing
// it against each precomputed member hash.
func (m *Map) Owner(name string) string { return owner(m, name) }

// OwnerBytes is Owner for a name still aliasing a decode buffer, so the
// server's parse loop can gate ops without materializing a string.
func (m *Map) OwnerBytes(name []byte) string { return owner(m, name) }

// owner is the one rendezvous lookup behind Owner and OwnerBytes: the
// member whose score for name is highest. Ties (astronomically unlikely
// with 64-bit scores) break to the lower index; since members are sorted
// that choice is order-independent too.
func owner[T string | []byte](m *Map, name T) string {
	if len(m.members) == 0 {
		return ""
	}
	h := hash64(name)
	best, bestScore := 0, mix64(h^m.hashes[0])
	for i := 1; i < len(m.hashes); i++ {
		if s := mix64(h ^ m.hashes[i]); s > bestScore {
			best, bestScore = i, s
		}
	}
	return m.members[best]
}

// Without returns a new map at epoch+1 lacking addr. Removing a
// non-member returns the receiver unchanged (same epoch): the caller
// learned nothing new about the cluster.
func (m *Map) Without(addr string) *Map {
	if !m.Contains(addr) {
		return m
	}
	members := make([]string, 0, len(m.members)-1)
	hashes := make([]uint64, 0, len(m.members)-1)
	for i, mm := range m.members {
		if mm == addr {
			continue
		}
		members = append(members, mm)
		hashes = append(hashes, m.hashes[i])
	}
	return &Map{epoch: m.epoch + 1, members: members, hashes: hashes}
}

// Membership converts the map to its wire form.
func (m *Map) Membership() wire.Membership {
	return wire.Membership{Epoch: m.epoch, Members: m.members}
}

// FromMembership builds a map from a decoded wire payload.
func FromMembership(wm *wire.Membership) (*Map, error) {
	return NewMap(wm.Epoch, wm.Members)
}

// hash64 is FNV-1a 64 over the name's bytes: stable across processes
// (unlike maphash) and cheap.
func hash64[T string | []byte](s T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler that
// turns the xor of two FNV hashes into an unbiased rendezvous score.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
