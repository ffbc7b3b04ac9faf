package disksim

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The reference segment cache: lookup, fill and invalidate as they were
// before their scans were reworked. TestCacheMatchesReference pins the
// cache to them.

func refLookup(c *cache, lbn int64, n int, now time.Duration) bool {
	if !c.enabled() {
		return false
	}
	end := lbn + int64(n)
	for i := range c.segments {
		if lbn >= c.segments[i].start && end <= c.segments[i].end {
			c.segments[i].lastUse = now
			return true
		}
	}
	return false
}

func refFill(c *cache, lbn int64, n int, total int64, now time.Duration) {
	if !c.enabled() {
		return
	}
	end := lbn + c.segSectors
	if end < lbn+int64(n) {
		end = lbn + int64(n)
	}
	if end > total {
		end = total
	}
	s := segment{start: lbn, end: end, lastUse: now}
	if len(c.segments) < cap(c.segments) {
		c.segments = append(c.segments, s)
		return
	}
	lru := 0
	for i := 1; i < len(c.segments); i++ {
		if c.segments[i].lastUse < c.segments[lru].lastUse {
			lru = i
		}
	}
	c.segments[lru] = s
}

func refInvalidate(c *cache, lbn int64, n int) {
	if !c.enabled() {
		return
	}
	end := lbn + int64(n)
	out := c.segments[:0]
	for _, s := range c.segments {
		if s.end <= lbn || s.start >= end {
			out = append(out, s)
		}
	}
	c.segments = out
}

// cacheOp is one step of a differential cache run: a lookup (kind 0), a
// fill (1) or an invalidation (2) of [lbn, lbn+n), dt after the previous
// step.
type cacheOp struct {
	kind uint8
	lbn  int64
	n    int
	dt   time.Duration
}

// checkCacheOps runs ops on a cache and on the reference, both sized by
// newCache(bytes, segments) over a disk of total sectors, and requires the
// same hits and the same segments, in order, after every step.
func checkCacheOps(tb testing.TB, bytes int64, segments int, total int64, ops []cacheOp) {
	tb.Helper()
	got, want := newCache(bytes, segments), newCache(bytes, segments)
	var now time.Duration
	for i, op := range ops {
		now += op.dt
		switch op.kind {
		case 0:
			if g, w := got.lookup(op.lbn, op.n, now), refLookup(want, op.lbn, op.n, now); g != w {
				tb.Fatalf("step %d: lookup(%d,%d) = %t, reference %t", i, op.lbn, op.n, g, w)
			}
		case 1:
			got.fill(op.lbn, op.n, total, now)
			refFill(want, op.lbn, op.n, total, now)
		default:
			got.invalidate(op.lbn, op.n)
			refInvalidate(want, op.lbn, op.n)
		}
		if !slices.Equal(got.segments, want.segments) {
			tb.Fatalf("step %d (%+v): segments %v, reference %v", i, op, got.segments, want.segments)
		}
	}
}

// TestCacheMatchesReference compares the cache with the reference over
// long random sequences: overlapping segments, recency ties, ranges
// touching segment ends, and a disabled cache.
func TestCacheMatchesReference(t *testing.T) {
	const total = 4096
	for _, cfg := range []struct {
		bytes    int64
		segments int
	}{{0, 0}, {64 << 10, 1}, {64 << 10, 4}, {256 << 10, 16}} {
		rng := rand.New(rand.NewSource(int64(cfg.segments) + 1))
		ops := make([]cacheOp, 20000)
		for i := range ops {
			lbn := rng.Int63n(total)
			ops[i] = cacheOp{
				kind: uint8(rng.Intn(3)),
				lbn:  lbn,
				n:    1 + rng.Intn(int(min(64, total-lbn))),
				dt:   time.Duration(rng.Intn(3)), // repeats make recency ties
			}
		}
		checkCacheOps(t, cfg.bytes, cfg.segments, total, ops)
	}
}

// FuzzCache compares the cache with the reference on fuzzed step
// sequences, four bytes a step, over a 512-sector disk with up to 16
// segments of 16 sectors.
func FuzzCache(f *testing.F) {
	f.Add(uint8(4), []byte{1, 10, 8, 1, 0, 12, 4, 0, 2, 14, 1, 1, 0, 12, 4, 0})
	f.Add(uint8(1), []byte{1, 0, 47, 0, 1, 100, 3, 0, 0, 0, 16, 0, 2, 8, 0, 2})
	f.Add(uint8(0), []byte{1, 5, 5, 1, 0, 5, 5, 1})
	f.Fuzz(func(t *testing.T, segments uint8, data []byte) {
		const total = 512
		ops := make([]cacheOp, 0, len(data)/4)
		for ; len(data) >= 4; data = data[4:] {
			lbn := 2 * int64(data[1])
			ops = append(ops, cacheOp{
				kind: data[0] % 3,
				lbn:  lbn,
				n:    1 + int(min(int64(data[2]%48), total-1-lbn)),
				dt:   time.Duration(data[3] % 3),
			})
		}
		n := int(segments % 17)
		checkCacheOps(t, int64(n)*16*512, n, total, ops)
	})
}
