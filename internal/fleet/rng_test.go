package fleet

import (
	"math"
	"math/rand"
	"testing"
)

// streamDraws is how many draws the differential checks compare: more than
// two register lengths, so the feed index wraps and words written by
// earlier draws are read back.
const streamDraws = 1300

// checkStreamSource compares s, seeded with seed, against
// rand.NewSource(seed): the raw Uint64 stream first, then, re-seeded, the
// ExpFloat64/Float64/Float64 pattern the chassis loop draws per request.
func checkStreamSource(t *testing.T, s *streamSource, seed int64) {
	t.Helper()
	s.Seed(seed)
	ref := rand.NewSource(seed).(rand.Source64)
	for i := 0; i < streamDraws; i++ {
		if got, want := s.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("seed %d: draw %d = %#x, want %#x", seed, i, got, want)
		}
	}

	r := rand.New(s)
	r.Seed(seed)
	rr := rand.New(rand.NewSource(seed))
	for i := 0; i < streamDraws/3; i++ {
		got := [3]float64{r.ExpFloat64(), r.Float64(), r.Float64()}
		want := [3]float64{rr.ExpFloat64(), rr.Float64(), rr.Float64()}
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("seed %d: request %d draw %d = %v, want %v", seed, i, k, got[k], want[k])
			}
		}
	}
}

// TestStreamSourceMatchesStdlib pins the replica against math/rand on the
// seeds its reduction treats specially: zero and the multiples of the
// modulus (substituted), negatives (shifted up), and the int64 extremes.
// One source serves every seed in turn, as the generator pool reuses it,
// so a stale word left by the previous seed would show.
func TestStreamSourceMatchesStdlib(t *testing.T) {
	s := new(streamSource)
	for _, seed := range []int64{
		0, 1, -1, 7, 89482311,
		lcgMod, -lcgMod, 2 * lcgMod, lcgMod - 1, -(lcgMod - 1), lcgMod + 1,
		1 << 62, -1 << 62, math.MaxInt64, math.MinInt64,
	} {
		checkStreamSource(t, s, seed)
	}
}

// FuzzStreamSource is the differential target: for any seed, the replica's
// first 1,300 Uint64 draws and the chassis loop's per-request draw pattern
// equal rand.New(rand.NewSource(seed))'s, also when the source last served
// another seed and stopped anywhere in its first register pass, leaving
// the register partly filled.
func FuzzStreamSource(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, 3, 33, lcgMod, -lcgMod, lcgMod - 1, 1 << 62, -1 << 62, math.MaxInt64, math.MinInt64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		s := new(streamSource)
		s.Seed(^seed)
		for i := uint64(0); i < uint64(seed)%rngLen; i++ {
			s.Uint64()
		}
		checkStreamSource(t, s, seed)
	})
}

// benchStream draws one fleet-room stream (40 requests) from r after
// seeding it, the per-stream generator cost of a fleet run.
func benchStream(b *testing.B, r *rand.Rand) {
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		r.Seed(mix(1, tagArrival, int64(i)))
		for k := 0; k < 40; k++ {
			sink += r.ExpFloat64() + r.Float64() + r.Float64()
		}
	}
	if sink == 0 {
		b.Fatal("no draws")
	}
}

// BenchmarkStreamSeed is the per-stream cost on the chassis loop's
// generator: seed, then one 40-request stream of draws.
func BenchmarkStreamSeed(b *testing.B) { benchStream(b, rand.New(new(streamSource))) }

// BenchmarkStreamSeedStdlib is the same stream on a re-seeded math/rand
// source, the baseline streamSource replaces.
func BenchmarkStreamSeedStdlib(b *testing.B) { benchStream(b, rand.New(rand.NewSource(0))) }
