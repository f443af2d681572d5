package coherence

import (
	"math/rand"
	"testing"

	"fairrw/internal/memmodel"
)

// TestCacheResetMatchesFresh drives a reset array and a newly built one
// with the same access stream: reset only ages the ways' stamps, so every
// answer, victim and counter must still match an array that was never used.
func TestCacheResetMatchesFresh(t *testing.T) {
	const sets, ways = 4, 2
	used := &newCacheArrays(1, sets, ways)[0]
	rng := rand.New(rand.NewSource(1))
	line := func() memmodel.Addr { return memmodel.Addr(rng.Intn(24)) << memmodel.LineShift }
	for round := 0; round < 3; round++ {
		for i := 0; i < 200; i++ { // dirty every way, in a different pattern per round
			used.insert(line())
			used.invalidate(line())
		}
		used.reset()
		fresh := &newCacheArrays(1, sets, ways)[0]
		for i := 0; i < 500; i++ {
			l := line()
			switch rng.Intn(4) {
			case 0:
				if a, b := used.has(l), fresh.has(l); a != b {
					t.Fatalf("round %d step %d: has = %v after reset, %v fresh", round, i, a, b)
				}
			case 1:
				if a, b := used.peek(l), fresh.peek(l); a != b {
					t.Fatalf("round %d step %d: peek = %v after reset, %v fresh", round, i, a, b)
				}
			case 2:
				if a, b := used.invalidate(l), fresh.invalidate(l); a != b {
					t.Fatalf("round %d step %d: invalidate = %v after reset, %v fresh", round, i, a, b)
				}
			default:
				v1, e1 := used.insert(l)
				v2, e2 := fresh.insert(l)
				if v1 != v2 || e1 != e2 {
					t.Fatalf("round %d step %d: insert evicted (%#x,%v) after reset, (%#x,%v) fresh", round, i, v1, e1, v2, e2)
				}
			}
		}
		if used.Hits != fresh.Hits || used.Misses != fresh.Misses || used.Evictions != fresh.Evictions {
			t.Fatalf("round %d: counters %d/%d/%d after reset, %d/%d/%d fresh", round,
				used.Hits, used.Misses, used.Evictions, fresh.Hits, fresh.Misses, fresh.Evictions)
		}
	}
}
