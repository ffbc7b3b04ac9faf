package disksim

import "time"

// segment is one contiguous cached LBN range [start, end).
type segment struct {
	start, end int64
	lastUse    time.Duration
}

// cache is the drive's segmented read cache. Each segment caches one
// sequential stream; a read miss repopulates the least-recently-used segment
// with the request plus read-ahead up to the segment size, which is how
// sequential streams hit after the first request.
type cache struct {
	segments    []segment
	segSectors  int64 // capacity of one segment in sectors
	nextRefresh int
}

// newCache sizes the cache; zero segments disables it.
func newCache(totalBytes int64, segments int) *cache {
	if segments <= 0 || totalBytes <= 0 {
		return &cache{}
	}
	return &cache{
		segments:   make([]segment, 0, segments),
		segSectors: totalBytes / int64(segments) / 512,
	}
}

// enabled reports whether the cache holds anything at all.
func (c *cache) enabled() bool { return c.segSectors > 0 && cap(c.segments) > 0 }

// lookup reports whether [lbn, lbn+n) is fully cached, touching the first
// containing segment's recency on a hit.
func (c *cache) lookup(lbn int64, n int, now time.Duration) bool {
	if !c.enabled() {
		return false
	}
	end := lbn + int64(n)
	for i := range c.segments {
		s := &c.segments[i]
		// Contained iff lbn >= start and end <= s.end: both differences
		// are non-negative, so their OR has a clear sign bit. LBNs are
		// bounded by the disk size, so neither difference overflows.
		if (lbn-s.start)|(s.end-end) >= 0 {
			s.lastUse = now
			return true
		}
	}
	return false
}

// fill installs a read's range plus read-ahead into the LRU segment.
func (c *cache) fill(lbn int64, n int, total int64, now time.Duration) {
	if !c.enabled() {
		return
	}
	end := lbn + c.segSectors
	if end < lbn+int64(n) {
		end = lbn + int64(n) // oversized request: cache it whole anyway
	}
	if end > total {
		end = total
	}
	s := segment{start: lbn, end: end, lastUse: now}
	if len(c.segments) < cap(c.segments) {
		c.segments = append(c.segments, s)
		return
	}
	segs := c.segments
	lru, oldest := 0, segs[0].lastUse
	for i := 1; i < len(segs); i++ {
		if segs[i].lastUse < oldest { // strict: the lowest index wins a tie
			lru, oldest = i, segs[i].lastUse
		}
	}
	segs[lru] = s
}

// invalidate drops any segment overlapping a written range (write-through
// with invalidation — the conservative policy for data integrity). The
// survivors keep their order, so lookup's first match and fill's LRU
// tie-break are unchanged.
func (c *cache) invalidate(lbn int64, n int) {
	if !c.enabled() {
		return
	}
	end := lbn + int64(n)
	segs := c.segments
	kept := 0
	for i := range segs {
		// Disjoint iff s.end <= lbn or s.start >= end: at least one of
		// the two differences is non-negative, so their AND is too.
		if (lbn-segs[i].end)&(segs[i].start-end) >= 0 {
			segs[kept] = segs[i]
			kept++
		}
	}
	c.segments = segs[:kept]
}
