package coherence

import "fairrw/internal/memmodel"

// cacheArray is a set-associative presence tracker with LRU replacement.
// It records which lines a cache holds; coherence *state* lives in the
// directory, so the array only answers hit/miss and picks victims.
//
// All ways live in one flat backing slice (set i occupies
// ways[i*assoc:(i+1)*assoc]), so building a cache is a single allocation
// and a set probe walks contiguous memory. The slice is built by the first
// insert: a machine pays for the caches its threads touch, not for every
// core and chip of the model.
type cacheArray struct {
	ways  []cacheWay // nsets * assoc entries
	nsets int
	assoc int
	clock uint64
	// epoch is the stamp of a live way. A way holds a line only while its
	// stamp equals it, so reset empties the whole array by bumping it.
	epoch uint64

	Hits, Misses, Evictions uint64
}

type cacheWay struct {
	line  memmodel.Addr
	epoch uint64 // valid iff equal to the array's epoch; 0 is never live
	used  uint64
}

// newCacheArrays returns n empty arrays of the given geometry as one slab.
func newCacheArrays(n, sets, ways int) []cacheArray {
	cs := make([]cacheArray, n)
	for i := range cs {
		cs[i] = cacheArray{nsets: sets, assoc: ways, epoch: 1}
	}
	return cs
}

// setOf returns line's set: nil while the array has never held a line.
func (c *cacheArray) setOf(line memmodel.Addr) []cacheWay {
	if c.ways == nil {
		return nil
	}
	s := int((line >> memmodel.LineShift) % uint64(c.nsets))
	return c.ways[s*c.assoc : (s+1)*c.assoc]
}

// findWay returns the index of line within set, or -1. It is the single
// scan shared by has, peek and invalidate.
func (c *cacheArray) findWay(set []cacheWay, line memmodel.Addr) int {
	for i := range set {
		if set[i].epoch == c.epoch && set[i].line == line {
			return i
		}
	}
	return -1
}

// has reports whether line is present, updating LRU on hit.
func (c *cacheArray) has(line memmodel.Addr) bool {
	set := c.setOf(line)
	if i := c.findWay(set, line); i >= 0 {
		c.clock++
		set[i].used = c.clock
		c.Hits++
		return true
	}
	c.Misses++
	return false
}

// peek reports presence without touching LRU or statistics.
func (c *cacheArray) peek(line memmodel.Addr) bool {
	return c.findWay(c.setOf(line), line) >= 0
}

// insert installs line, returning the evicted line (if any).
func (c *cacheArray) insert(line memmodel.Addr) (victim memmodel.Addr, evicted bool) {
	if c.ways == nil {
		c.ways = make([]cacheWay, c.nsets*c.assoc)
	}
	set := c.setOf(line)
	c.clock++
	// Already present (e.g. upgrade): refresh.
	if i := c.findWay(set, line); i >= 0 {
		set[i].used = c.clock
		return 0, false
	}
	// Free way.
	for i := range set {
		if set[i].epoch != c.epoch {
			set[i] = cacheWay{line: line, epoch: c.epoch, used: c.clock}
			return 0, false
		}
	}
	// Evict LRU.
	lru := 0
	for i := 1; i < len(set); i++ {
		if set[i].used < set[lru].used {
			lru = i
		}
	}
	victim = set[lru].line
	set[lru] = cacheWay{line: line, epoch: c.epoch, used: c.clock}
	c.Evictions++
	return victim, true
}

// invalidate removes line if present, reporting whether it was.
func (c *cacheArray) invalidate(line memmodel.Addr) bool {
	set := c.setOf(line)
	if i := c.findWay(set, line); i >= 0 {
		set[i].epoch = 0
		return true
	}
	return false
}

// reset empties the array and clears its statistics without touching the
// ways: every stamp falls out of date at once, and insert takes stale ways
// first exactly as it took cleared ones.
func (c *cacheArray) reset() {
	c.epoch++
	c.clock = 0
	c.Hits, c.Misses, c.Evictions = 0, 0, 0
}
