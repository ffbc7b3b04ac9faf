package trace

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/raid"
)

// Stream yields a workload's request sequence lazily: the same seeded RNG
// walk as Generate, one request per Next call, so a 10M-request replay never
// materializes a slice. It implements sim.Source[raid.Request].
type Stream struct {
	p             Params
	rng           *rand.Rand
	streams       []genStream
	span          int64
	meanGap       float64 // seconds between batches
	sizeLogQ      float64 // geometricSize's log(1 - 1/MeanSectors)
	volumeSectors int64
	now           float64 // seconds
	i             int
}

// genStream is one concurrent sequential source (a mail spool, a table
// scan) with a home region for jumps and a cursor for continuation.
type genStream struct {
	home   int64
	cursor int64
}

// Stream returns a lazy generator over a volume with the given addressable
// capacity (in sectors). Requests are yielded in arrival order (arrivals
// are nondecreasing) with IDs 0..Requests-1, deterministically in
// Params.Seed: collecting the stream reproduces Generate bit-for-bit.
func (p Params) Stream(volumeSectors int64) (*Stream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	streams := make([]genStream, p.Streams)
	for i := range streams {
		h := int64(rng.Float64() * float64(volumeSectors))
		streams[i] = genStream{home: h, cursor: h}
	}
	span := int64(p.LocalitySpan * float64(volumeSectors))
	if span < int64(p.MeanSectors)*4 {
		span = int64(p.MeanSectors) * 4
	}
	return &Stream{
		p:       p,
		rng:     rng,
		streams: streams,
		span:    span,
		// Preserve the configured mean rate despite zero-gap batches: the
		// exponential gaps between batches are stretched accordingly.
		meanGap:       1 / (p.ArrivalRate * (1 - p.BatchProb)),
		sizeLogQ:      math.Log(1 - 1/float64(p.MeanSectors)),
		volumeSectors: volumeSectors,
	}, nil
}

// Remaining returns how many requests the stream has yet to yield.
func (s *Stream) Remaining() int { return s.p.Requests - s.i }

// Next yields the next request, or false once Params.Requests have been
// produced.
func (s *Stream) Next() (raid.Request, bool) {
	if s.i >= s.p.Requests {
		return raid.Request{}, false
	}
	p, rng := &s.p, s.rng
	if s.i > 0 && rng.Float64() >= p.BatchProb {
		s.now += rng.ExpFloat64() * s.meanGap
	}

	st := &s.streams[rng.Intn(len(s.streams))]
	size := geometricSize(rng, p.MeanSectors, s.sizeLogQ)

	var block int64
	if rng.Float64() < p.SeqFraction {
		block = st.cursor
	} else {
		// Jump within the stream's locality window.
		lo := st.home - s.span/2
		if lo < 0 {
			lo = 0
		}
		hi := lo + s.span
		if hi > s.volumeSectors {
			hi = s.volumeSectors
			lo = hi - s.span
			if lo < 0 {
				lo = 0
			}
		}
		block = lo + int64(rng.Float64()*float64(hi-lo))
		// Occasionally the stream relocates entirely (a new file, a new
		// user's mailbox).
		if rng.Float64() < 0.05 {
			st.home = int64(rng.Float64() * float64(s.volumeSectors))
		}
	}
	if block+int64(size) > s.volumeSectors {
		block = s.volumeSectors - int64(size)
		if block < 0 {
			block = 0
			size = int(s.volumeSectors)
		}
	}
	st.cursor = block + int64(size)
	if st.cursor >= s.volumeSectors {
		st.cursor = st.home
	}

	r := raid.Request{
		ID:      int64(s.i),
		Arrival: time.Duration(s.now * float64(time.Second)),
		Block:   block,
		Sectors: size,
		Write:   rng.Float64() >= p.ReadFraction,
	}
	s.i++
	return r, true
}

// geometricSize draws a request size with the given mean, in sectors,
// clamped to [1, maxRequestSectors]. logQ is math.Log(1-1/mean), which the
// stream computes once.
func geometricSize(rng *rand.Rand, mean int, logQ float64) int {
	if mean <= 1 {
		return 1
	}
	// Geometric with success probability 1/mean has mean `mean`.
	u := rng.Float64()
	n := int(math.Ceil(math.Log(1-u) / logQ))
	if n < 1 {
		n = 1
	}
	if n > maxRequestSectors {
		n = maxRequestSectors
	}
	return n
}
