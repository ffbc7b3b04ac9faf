package thermal

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/units"
)

// Operating-point memoization. The DTM stream controllers and the fleet
// advance a drive's transient in 100 ms steps at the handful of RPM levels
// the policy actually uses, and the five convection couplings at a speed
// are the identical Reynolds/Nusselt arithmetic every time. Likewise the
// sweep engines re-solve SteadyState at a few recurring (RPM, duty,
// ambient) points. Both solves are pure functions of the operating point
// (with fixed-property air), so the model memoizes them. Each Transient
// also keeps its current speed's couplings in a one-entry cache of its own
// (operatingPoint, network.go) and consults the conductance memo here only
// when its RPM changes, so the conductance counters count speed changes,
// not steps.
//
// Keys are the operating point quantized to fixed-point buckets
// (rpmQuantum / dutyQuantum / tempQuantum below). Quantization alone could
// alias two nearby-but-different points onto one bucket, and whichever was
// solved first would then leak its result to the other — the answer would
// depend on evaluation order, which the determinism contract forbids. So
// every entry also stores the *exact* operating point it was solved at, and
// a lookup only counts as a hit when the stored point matches the query
// bit-for-bit. An aliased query falls through to a direct solve and leaves
// the entry alone. Memoized results are therefore always exactly what the
// direct solve would return, at any worker count, in any order.
//
// The maps are sync.Maps because the roadmap grid shares one Model per
// platter size across concurrently-evaluated year cells.

// Quantization buckets for the operating-point keys: 0.001 RPM, 1e-4 duty,
// 0.001 C. Far finer than any physical distinction the model can express,
// so aliasing (and the direct-solve fallback it triggers) is essentially
// confined to adversarial inputs.
const (
	rpmQuantum  = 1e-3
	dutyQuantum = 1e-4
	tempQuantum = 1e-3
)

// opKey is the quantized cache key for a steady-state solve.
type opKey struct {
	rpm, duty, amb int64
	filmDependent  bool
}

func quantize(v, quantum float64) int64 {
	return int64(math.Round(v / quantum))
}

func steadyKey(load Load, filmDependent bool) opKey {
	return opKey{
		rpm:           quantize(float64(load.RPM), rpmQuantum),
		duty:          quantize(load.VCMDuty, dutyQuantum),
		amb:           quantize(float64(load.Ambient), tempQuantum),
		filmDependent: filmDependent,
	}
}

// steadyEntry stores the exact load a state was solved at (hit verification)
// alongside the solution.
type steadyEntry struct {
	load  Load
	state State
}

// condEntry stores the exact RPM a conductance set was evaluated at.
type condEntry struct {
	rpm units.RPM
	g   conductances
}

// modelCache is the per-model memo store. It embeds sync.Maps, so a Model
// must not be copied once in use (go vet's copylocks check enforces this;
// every construction path hands out *Model).
type modelCache struct {
	steady sync.Map // opKey -> steadyEntry
	cond   sync.Map // int64 (quantized RPM) -> condEntry

	steadyHits, steadyMisses atomic.Int64
	condHits, condMisses     atomic.Int64
}

// CacheStats reports the memo cache's hit/miss counters since the model was
// built (or the last ResetCacheStats). The conductance counters count
// lookups in the model's memo, which a transient makes only when its
// spindle speed changes (its own operating-point entry serves the steps in
// between), plus one per steady solve that misses the steady memo; with
// TemperatureDependentAir or NoCache conductances are not memoized and
// they stay at zero.
type CacheStats struct {
	SteadyHits, SteadyMisses int64 // SteadyState solves
	CondHits, CondMisses     int64 // conductance memo lookups (transient speed changes, steady misses)
}

// SteadyHitRate returns the steady-solve hit fraction (0 when never queried).
func (s CacheStats) SteadyHitRate() float64 {
	if n := s.SteadyHits + s.SteadyMisses; n > 0 {
		return float64(s.SteadyHits) / float64(n)
	}
	return 0
}

// CondHitRate returns the conductance-evaluation hit fraction.
func (s CacheStats) CondHitRate() float64 {
	if n := s.CondHits + s.CondMisses; n > 0 {
		return float64(s.CondHits) / float64(n)
	}
	return 0
}

// CacheStats returns the model's memoization counters.
func (m *Model) CacheStats() CacheStats {
	return CacheStats{
		SteadyHits:   m.cache.steadyHits.Load(),
		SteadyMisses: m.cache.steadyMisses.Load(),
		CondHits:     m.cache.condHits.Load(),
		CondMisses:   m.cache.condMisses.Load(),
	}
}

// ResetCacheStats zeroes the counters (the cached entries stay).
func (m *Model) ResetCacheStats() {
	m.cache.steadyHits.Store(0)
	m.cache.steadyMisses.Store(0)
	m.cache.condHits.Store(0)
	m.cache.condMisses.Store(0)
}

// steadyCached wraps the direct steady solve with the memo store.
func (m *Model) steadyCached(load Load) State {
	if m.NoCache {
		return m.steadyDirect(load, true)
	}
	c := &m.cache
	k := steadyKey(load, m.TemperatureDependentAir)
	if v, ok := c.steady.Load(k); ok {
		e := v.(steadyEntry)
		if e.load == load {
			c.steadyHits.Add(1)
			return e.state
		}
		// Quantization alias: a different exact point owns this bucket.
		c.steadyMisses.Add(1)
		return m.steadyDirect(load, true)
	}
	c.steadyMisses.Add(1)
	st := m.steadyDirect(load, true)
	c.steady.Store(k, steadyEntry{load: load, state: st})
	return st
}

// condCached wraps conductancesAt with the memo store. Only the
// fixed-property path is cacheable: with TemperatureDependentAir the
// couplings track the film temperature, which varies continuously along a
// transient.
func (m *Model) condCached(rpm units.RPM, film units.Celsius) conductances {
	if m.TemperatureDependentAir || m.NoCache {
		return m.conductancesAt(rpm, film)
	}
	c := &m.cache
	k := quantize(float64(rpm), rpmQuantum)
	if v, ok := c.cond.Load(k); ok {
		e := v.(condEntry)
		if e.rpm == rpm {
			c.condHits.Add(1)
			return e.g
		}
		c.condMisses.Add(1)
		return m.conductancesAt(rpm, film)
	}
	c.condMisses.Add(1)
	g := m.conductancesAt(rpm, film)
	c.cond.Store(k, condEntry{rpm: rpm, g: g})
	return g
}
