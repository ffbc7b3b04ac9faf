package dtm

import (
	"math/rand"
	"time"

	"repro/internal/disksim"
	"repro/internal/sim"
)

// SyntheticSource yields the seeded synthetic policy workload lazily:
// Poisson arrivals at the given rate, 8-sector requests uniform over the
// disk, 30% writes. Every call with the same arguments returns a fresh
// source replaying the identical sequence, so each controller in a
// comparison sees the same requests without the trace ever being
// materialized. It is PolicyRun's workload; seeded runs stay
// byte-reproducible because the sequence depends only on its arguments.
func SyntheticSource(totalSectors int64, n int, rate float64, seed int64) sim.Source[disksim.Request] {
	rng := rand.New(rand.NewSource(seed))
	now := 0.0
	i := 0
	return sim.SourceFunc[disksim.Request](func() (disksim.Request, bool) {
		if i >= n {
			return disksim.Request{}, false
		}
		now += rng.ExpFloat64() / rate
		r := disksim.Request{
			ID:      int64(i),
			Arrival: time.Duration(now * float64(time.Second)),
			LBN:     rng.Int63n(totalSectors - 64),
			Sectors: 8,
			Write:   rng.Float64() < 0.3,
		}
		i++
		return r, true
	})
}
